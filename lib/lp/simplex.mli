(** Dense two-phase primal simplex.

    Solves the minimization problems built with {!Problem}.  Uses Dantzig
    pricing with an automatic switch to Bland's rule to guarantee
    termination under degeneracy, and a full-tableau implementation — ample
    for the (LP1)/(LP2) relaxations, whose tableaux have [n + m] rows.

    Cost: the tableau is [(rows + 2) x (cols + 1)] floats, zeroed once
    per solve; each pivot then costs O([rows + cols]) for pricing, the
    ratio test and scaling the pivot row, plus O(rows touched × pivot-row
    nonzeros) for the elimination ({!Elim.pivot}): rows whose pivot-column
    entry is zero and columns where the scaled pivot row is zero are
    skipped.  On (LP2) of 160 jobs in 16 chains on 10 machines (about
    1,950 rows), a pivot updates 31 rows and 180 columns on average; on
    (LP1) the pivot row is about 65% nonzero.  The elimination computes
    every nonzero entry bit for bit as a full-row update would, so pivot
    order, vertices and duals are those of a full-row tableau (a zero may
    keep the sign [-0.0]; no pivot test reads the sign of a zero).

    The tableau lives in one process-wide buffer, claimed with a
    compare-and-set and grown to the largest tableau seen; a solve that
    finds it taken (another domain or thread is solving) allocates its
    own.

    All comparisons use an absolute tolerance of [1e-9]; callers should
    treat returned values as accurate to roughly [1e-7] relative. *)

type result =
  | Optimal of { objective : float; x : float array }
      (** An optimal vertex: [x.(v)] is the value of variable [v]. *)
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The pivot budget was exhausted (pathological inputs only). *)

val solve : ?max_iters:int -> Problem.t -> result
(** [solve p] optimizes [p].  [max_iters] defaults to
    [max 100_000 (50 * (rows + cols))]. *)

val solve_exn : ?max_iters:int -> Problem.t -> float * float array
(** Like {!solve} but raises [Failure] unless the result is [Optimal];
    returns [(objective, x)]. *)

type detailed = { objective : float; x : float array; duals : float array }
(** An optimal solution together with its dual values, one per constraint
    (in insertion order).  Sign convention: the Lagrangian is
    [c.x - sum_r duals_r (row_r - rhs_r)], so at optimality
    [objective = sum_r duals_r * rhs_r] (strong duality) and the reduced
    cost [c_j - sum_r duals_r a_rj] of every variable is nonnegative. *)

val solve_detailed : ?max_iters:int -> Problem.t -> detailed option
(** [solve_detailed p] is the optimal primal and dual solution, or [None]
    when [p] is infeasible, unbounded, or hit the pivot budget. *)
