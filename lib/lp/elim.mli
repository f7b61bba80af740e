(** The row-elimination step shared by {!Simplex} (tableau pivots) and
    {!Revised_simplex} (basis-inverse refactorization and updates).

    A matrix is stored flat, row-major: entry [(r, j)] of a [rows] ×
    [width] matrix is [a.{r * width + j}].  The storage is a Bigarray,
    outside the OCaml heap: a tableau of tens of megabytes kept for reuse
    would otherwise count as live heap, and the major GC lets garbage
    grow in proportion to the live heap. *)

type matrix =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> matrix
(** [create len] is an uninitialized matrix of [len] entries. *)

val zero : matrix -> int -> unit
(** [zero a len] sets the first [len] entries of [a] to [0.0]. *)

type scratch
(** Room for one scaled pivot row's nonzeros. *)

val scratch : int -> scratch
(** [scratch width] serves matrices up to [width] columns wide. *)

val pivot :
  matrix ->
  width:int ->
  rows:int ->
  row:int ->
  col:int ->
  factor:float array ->
  scratch ->
  unit
(** [pivot a ~width ~rows ~row ~col ~factor s] scales row [row] by
    [1 /. factor.(row)], then, for every other row [r] with
    [factor.(r) <> 0], subtracts [factor.(r)] times the scaled row from
    row [r].  [factor] is usually the pivot column, copied out before the
    call.  When [col >= 0] the scaled row reads exactly [1.0] at [col]
    and every updated row exactly [0.0]; pass [col = -1] when the
    multipliers come from outside the matrix.  [s] must come from
    [scratch w] with [w >= width].

    Cost: O([width]) to scale the row plus O(rows updated × nonzeros of
    the scaled row).  Columns where the scaled row is [±0.0] are skipped,
    which leaves every nonzero result bit-for-bit what a full-row update
    ([a_rj -. f *. a_pj] for all [j]) computes; a skipped [-0.0] may
    stay [-0.0] where the full update would give [+0.0].  Raises
    [Invalid_argument] when a dimension is out of range. *)
