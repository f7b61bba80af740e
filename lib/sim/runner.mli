(** Replication harness: repeated executions over independent traces.

    Seeds are derived deterministically (see {!Seeds}), so any experiment
    is reproducible from [(instance, policy, seed, reps)]; when several
    policies are run with the same seed they see *identical* traces
    (paired comparison, as in the paper's offline/online argument).

    {!replicate} is the one replication kernel of the library:
    {!makespans}, the store-backed [Suu_store.Memo.makespans] and the
    server's [simulate] all run on it.  Replications run on at most
    [jobs] workers of the process-wide {!Parallel} pool (default
    {!Parallel.default_jobs}, i.e. [SUU_JOBS] or the machine's core
    count).  The fan-out is bit-identical to a sequential loop:
    replication [k] always draws trace and policy randomness from the
    pair [Seeds.rep_rngs].(k) and writes only result slot [k],
    regardless of [jobs], [reps] or the batch layout.  The one shared
    value is [policy] itself: its [fresh] steppers run concurrently,
    which every policy in this repository supports (per-execution state
    lives in the stepper; policy-level caches and stats sinks are
    lock-protected).  Pass [~jobs:1] to run on the calling thread
    alone. *)

val replicate :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> lo:int -> hi:int -> batch:int ->
  after_batch:(lo:int -> hi:int -> unit) -> float array -> unit
(** [replicate inst policy ~seed ~lo ~hi ~batch ~after_batch results]
    runs replications [lo .. hi - 1] and stores the makespan of
    replication [k] in [results.(k)] ([results] must have at least [hi]
    slots).  They run in batches of [batch] replications, in order;
    after each batch [after_batch ~lo ~hi] is called with that batch's
    bounds, on the calling thread, before the next batch starts — the
    hook the result store commits through and the server checks its
    deadline in.  An exception from [after_batch] or from a replication
    stops the run.  Raises [Invalid_argument] on non-positive [batch]. *)

val makespans :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> reps:int -> float array
(** [makespans inst policy ~seed ~reps] runs [reps] independent
    executions and returns their makespans, in replication order. *)

val expected_makespan :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> reps:int -> float
(** Mean of {!makespans}. *)

val ratio_to_bound :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  bound:float -> seed:int -> reps:int -> float
(** [ratio_to_bound inst policy ~bound] is
    [expected_makespan / max bound 1e-9] — the measured approximation
    ratio against a lower bound. *)

val rep_rngs :
  seed:int -> reps:int -> (Suu_prng.Rng.t * Suu_prng.Rng.t) array
(** [rep_rngs ~seed ~reps] is {!Seeds.rep_rngs}: the per-replication
    [(trace_rng, policy_rng)] pairs in the canonical order.
    Replication [k]'s pair depends only on [(seed, k)], never on [reps]
    (run [k] sees the same trace however many replications follow). *)
