let rep_rngs = Seeds.rep_rngs

let replicate ?cap ?jobs inst policy ~seed ~lo ~hi ~batch ~after_batch
    results =
  if batch <= 0 then invalid_arg "Runner.replicate: batch must be positive";
  let rngs = rep_rngs ~seed ~reps:hi in
  let n = Suu_core.Instance.n inst in
  let rec go base =
    if base < hi then begin
      let top = min hi (base + batch) in
      (* Replication [k] draws only from rngs.(k) and writes only slot
         [k], so the results are bit-identical to a sequential loop
         whatever the worker count or batch layout. *)
      Parallel.parallel_for ?jobs ~n:(top - base) (fun i ->
          let k = base + i in
          let trace_rng, policy_rng = rngs.(k) in
          let trace = Trace.draw ~n trace_rng in
          results.(k) <-
            float_of_int
              (Engine.makespan ?cap inst policy ~trace ~rng:policy_rng));
      after_batch ~lo:base ~hi:top;
      go top
    end
  in
  go lo

let makespans ?cap ?jobs inst policy ~seed ~reps =
  if reps <= 0 then invalid_arg "Runner.makespans: reps must be positive";
  let results = Array.make reps 0.0 in
  replicate ?cap ?jobs inst policy ~seed ~lo:0 ~hi:reps ~batch:reps
    ~after_batch:(fun ~lo:_ ~hi:_ -> ())
    results;
  results

let expected_makespan ?cap ?jobs inst policy ~seed ~reps =
  let xs = makespans ?cap ?jobs inst policy ~seed ~reps in
  Array.fold_left ( +. ) 0.0 xs /. float_of_int reps

let ratio_to_bound ?cap ?jobs inst policy ~bound ~seed ~reps =
  expected_makespan ?cap ?jobs inst policy ~seed ~reps
  /. Float.max bound 1e-9
