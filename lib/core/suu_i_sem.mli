(** SUU-I-SEM: the semioblivious O(log log min(m, n))-approximation for
    independent jobs (paper Section 3, Theorem 4).

    The schedule runs [K = ceil(log log min(m, n)) + 3] rounds.  Round 1
    executes the rounded LP1(J, 1/2) schedule; round [k] re-solves (LP1)
    on the surviving jobs [J_k] with the doubled target [L_k = 2^(k-2)]
    and executes its rounded schedule once.  A job surviving round [k-1]
    must have threshold [-log2 r_j > 2^(k-3)], which is why each round's
    cost is within a constant of the offline optimum (the competitive
    argument of Theorem 4).  If jobs remain after round [K]: with
    [n <= m] they are run one at a time on all machines; with [m < n]
    the round-[K] schedule is repeated until completion. *)

val rounds : Instance.t -> int
(** [rounds inst] is [K] for this instance. *)

val policy :
  ?solver:Solver_choice.t -> ?jobs:int array -> Instance.t -> Policy.t
(** [policy inst] is the SUU-I-SEM schedule.  [jobs] restricts the policy
    to a subset (used by SUU-C's long-job phases; default all jobs) — the
    stepper then ignores jobs outside the subset entirely, and the round
    count uses the subset size. *)

val scoped : Plan_cache.t -> m:int -> int array -> Policy.stepper
(** [scoped cache ~m scope] is one fresh SUU-I-SEM execution on an
    [m]-machine instance, restricted to the jobs of [scope] (non-empty;
    borrowed, never mutated), with its round plans looked up in
    [cache].  Each stepper of {!policy} is one of these.  SUU-C calls it
    directly at every segment boundary, with the pending long jobs as
    the scope and one cache handle shared by all of its boundaries, so a
    boundary builds no policy value.  Per step the stepper allocates
    nothing: survivor sets are built once per round, and the serial
    tail keeps a cursor past completed jobs and refills one row. *)
