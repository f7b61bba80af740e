(** The discrete-time SUU* execution engine.

    Drives a {!Suu_core.Policy.t} step by step over a fixed {!Trace.t}:
    at each unit step the policy's assignment adds
    [l_ij = -log2 q_ij] of log mass to each assigned job; a job completes
    once its mass reaches its threshold (up to a roundoff tolerance
    *relative* to the threshold, since the accrued sum's error scales
    with [w_j]).  The engine enforces the model's rules strictly —
    assigning an uncompleted, ineligible job raises {!Invalid_schedule} —
    and records utilization counters.

    Eligibility is tracked incrementally: each job carries a
    remaining-predecessor counter (seeded from the dag's packed CSR
    adjacency) that is decremented when a predecessor completes, so a
    completion costs O(out-degree), not an O(n) rescan.

    For [n] above 256 (arrays the runtime would allocate straight in
    the major heap) the n-sized run state ([remaining], [eligible],
    accrued mass, completion floors, predecessor counters) lives in a
    per-domain scratch reused across executions, so a run allocates
    nothing n-sized.  A run claims it with a compare-and-set and
    releases it on return or exception; a nested run (from [on_step] or
    a stepper) or another systhread on the same domain finds it taken
    and works on fresh arrays, and a run with a different [n] replaces
    it.  Smaller runs allocate fresh arrays in the minor heap. *)

exception Invalid_schedule of string
(** A policy violated the model (ineligible assignment, bad job index). *)

exception Horizon_exceeded of int
(** The execution passed the step cap without completing (a policy
    liveness bug, or a cap chosen too small). *)

type result = {
  makespan : int;  (** steps until the last job completed *)
  busy_steps : int;  (** machine-steps spent on uncompleted jobs *)
  wasted_steps : int;
      (** machine-steps assigned to already-completed jobs (the paper
          allows these; they count toward load but do no work) *)
  idle_steps : int;  (** machine-steps explicitly idle *)
}

val run :
  ?cap:int ->
  ?on_step:(time:int -> assignment:int array -> unit) ->
  Suu_core.Instance.t -> Suu_core.Policy.t -> trace:Trace.t ->
  rng:Suu_prng.Rng.t -> result
(** [run inst policy ~trace ~rng] executes one schedule to completion.
    [rng] seeds the policy's private randomness (it is split, so the
    caller's generator stays independent).  [cap] bounds the number of
    steps (default [4_000_000]).  [on_step] observes each step's raw
    machine → job assignment before validation (the array is the
    policy's buffer: copy it if retained). *)

val makespan :
  ?cap:int -> Suu_core.Instance.t -> Suu_core.Policy.t -> trace:Trace.t ->
  rng:Suu_prng.Rng.t -> int
(** [makespan] is [run]'s makespan alone. *)

val run_recorded :
  ?cap:int -> Suu_core.Instance.t -> Suu_core.Policy.t -> trace:Trace.t ->
  rng:Suu_prng.Rng.t -> result * int array array
(** [run_recorded] also returns the full step-by-step assignment matrix
    (one row per step, one entry per machine, [-1] = idle), ready for
    {!Gantt.render}. *)
