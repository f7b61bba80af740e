(* Canonical per-replication generator derivation for the replication
   kernel, so every worker count sees identical traces.

   Determinism contract: generators are split off the master in an
   explicit loop (trace rng before policy rng, replication order) —
   Array.init's effect order is unspecified, so it is not used here.
   Replication [k]'s pair depends only on [(seed, k)], never on [reps]:
   extending a sweep from 10 to 100 replications re-runs the first 10
   on the exact same traces. *)
let rep_rngs ~seed ~reps =
  if reps < 0 then invalid_arg "Seeds.rep_rngs: negative reps";
  if reps = 0 then [||]
  else begin
    let master = Suu_prng.Rng.create ~seed in
    let draw_pair () =
      let trace_rng = Suu_prng.Rng.split master in
      let policy_rng = Suu_prng.Rng.split master in
      (trace_rng, policy_rng)
    in
    let pairs = Array.make reps (draw_pair ()) in
    for k = 1 to reps - 1 do
      pairs.(k) <- draw_pair ()
    done;
    pairs
  end
