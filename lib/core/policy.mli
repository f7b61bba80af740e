(** Scheduling policies: the interface between the paper's algorithms and
    the simulator.

    A policy is the paper's schedule [Sigma]: a (possibly adaptive) rule
    that, given what has happened so far, assigns machines to jobs for the
    next unit step.  The simulator drives a fresh {!stepper} per
    execution; the stepper sees only the sets of remaining and eligible
    jobs — never the hidden SUU* thresholds — exactly like the paper's
    history-based schedules. *)

type stepper = time:int -> remaining:bool array -> eligible:bool array -> int array
(** [step ~time ~remaining ~eligible] returns the machine → job assignment
    for step [time] (0-based): entry [i] is the job run by machine [i], or
    [-1] to idle.  Assigning a completed job is allowed (the machine
    idles, as in the paper); assigning an ineligible, uncompleted job is a
    policy bug and rejected by the engine.  The returned array is read
    immediately and never retained, so policies may reuse a buffer.

    The contract steppers may rely on, within one execution:
    - [remaining] and [eligible] both have length [n] (the instance's
      job count) and are the same two arrays at every call;
    - [remaining.(j)] only ever goes from [true] to [false] — a
      stepper may keep a cursor past jobs it has seen completed;
    - both arrays belong to the engine, which reuses them for later
      executions: treat them as read-only and do not keep them beyond
      the execution. *)

type t

val make : name:string -> fresh:(Suu_prng.Rng.t -> stepper) -> t
(** [make ~name ~fresh] wraps a policy.  [fresh rng] must return the
    stepper for one independent execution; [rng] is the execution's
    private randomness (for random delays etc.). *)

val name : t -> string

val fresh : t -> Suu_prng.Rng.t -> stepper
(** Start a new execution. *)
