(** Revised simplex with an explicit basis inverse.

    A second, structurally independent implementation of two-phase
    simplex: where {!Simplex} carries the full tableau through every
    pivot, this solver maintains only the basis inverse [B⁻¹] (updated by
    elementary eta transformations and periodically refactorized by
    Gauss–Jordan for numerical hygiene) and prices columns against the
    original constraint matrix.

    Cost: B⁻¹ is a dense [rows x rows] matrix.  Each iteration computes
    [x_B = B⁻¹ b] (O(rows²)), the duals (O(rows × basic columns with a
    nonzero cost)) and the reduced costs (O(nonzeros)), and updates
    B⁻¹ by one elimination ({!Elim.pivot}): O(rows touched × nonzeros of
    the scaled pivot row of B⁻¹).  Every 64 iterations, and once for a
    warm start, B⁻¹ is refactorized by Gauss–Jordan on [[B | I]], where
    each step costs O(rows touched × pivot-row nonzeros) as well.  The
    skipped terms are exact zeros, so every nonzero value, pivot choice
    and returned basis is bit for bit that of full-row updates (a zero
    may keep the sign [-0.0]).

    Since the paper's guarantees all flow through LP solutions
    (Lemmas 1, 2, 5, 6; the LL LP; LST), having two independent solvers
    lets the test suite differentially validate the critical substrate:
    both must agree on optimal values, feasibility and unboundedness for
    every randomized instance. *)

val solve : ?max_iters:int -> Problem.t -> Simplex.result
(** [solve p] optimizes [p] with the same contract as
    {!Simplex.solve} (identical result type; optimal values agree to
    numerical tolerance, though the optimal vertex may differ when the
    optimum is degenerate). *)

val solve_basis :
  ?max_iters:int -> ?basis:int array -> Problem.t ->
  Simplex.result * int array option
(** [solve_basis ?basis p] is {!solve} with optional warm starting.

    The basis argument is an opaque list of standard-form column
    indices, as returned by a previous [solve_basis] call on a problem
    with the {e same constraint structure} (same variables and
    constraints in the same insertion order — e.g. the previous target
    of a doubling sequence, where only the RHS and coefficient clipping
    move).  When the supplied basis is structurally valid, nonsingular
    against the new constraint matrix and primal feasible under the new
    RHS, phase 1 is skipped entirely and optimization resumes from it;
    otherwise the basis is discarded and the cold two-phase path runs —
    a stale or foreign basis can cost the warm-start attempt, never
    correctness.

    The second component of the result is the optimal basis to feed the
    next restart: [Some b] when the solve ended [Optimal] with an
    artificial-free basis, [None] otherwise. *)

val solve_exn : ?max_iters:int -> Problem.t -> float * float array
(** Like {!Simplex.solve_exn}. *)
