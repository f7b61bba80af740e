let default_batch = 64

let c_served = Suu_obs.Registry.counter "store.memo.served"
let c_computed = Suu_obs.Registry.counter "store.memo.computed"

let instance_digest inst =
  Digest.to_hex (Digest.string (Suu_core.Instance_io.to_string inst))

let makespans ~store ?cap ?jobs ?(batch = default_batch) ?policy_name inst
    policy ~seed ~reps =
  if reps <= 0 then invalid_arg "Memo.makespans: reps must be positive";
  if batch <= 0 then invalid_arg "Memo.makespans: batch must be positive";
  let policy_name =
    match policy_name with
    | Some n -> n
    | None -> Suu_core.Policy.name policy
  in
  let key =
    { Result_store.digest = instance_digest inst; policy = policy_name;
      seed; cap }
  in
  let have = Result_store.committed store key in
  let have_n = min (Array.length have) reps in
  let results = Array.make reps 0.0 in
  Array.blit have 0 results 0 have_n;
  Suu_obs.Counter.add c_served have_n;
  if have_n < reps then begin
    (* Replication [k] depends only on (seed, k), so starting mid-sweep
       replays the exact generators an uninterrupted run would have
       used; each batch is committed before the next one starts. *)
    Suu_sim.Runner.replicate ?cap ?jobs inst policy ~seed ~lo:have_n ~hi:reps
      ~batch
      ~after_batch:(fun ~lo ~hi ->
        Result_store.append store key ~start:lo
          (Array.sub results lo (hi - lo)))
      results;
    Suu_obs.Counter.add c_computed (reps - have_n)
  end;
  results
