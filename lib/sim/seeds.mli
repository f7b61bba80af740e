(** Canonical replication seeding for {!Runner}'s replication kernel.

    [rep_rngs ~seed ~reps] derives the per-replication
    [(trace_rng, policy_rng)] pairs from a master generator, in a fixed
    order: pair [k] is split off before pair [k + 1], trace generator
    before policy generator.

    Determinism contract: replication [k]'s pair is a function of
    [(seed, k)] alone — independent of [reps] — so run [k] sees the same
    trace whether the sweep asks for 10 replications or 10,000, and
    sequential and parallel runners agree bit for bit. *)

val rep_rngs :
  seed:int -> reps:int -> (Suu_prng.Rng.t * Suu_prng.Rng.t) array
(** Raises [Invalid_argument] on negative [reps]; [reps = 0] yields
    [[||]]. *)
