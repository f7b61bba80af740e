type result =
  | Optimal of { objective : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

type detailed = { objective : float; x : float array; duals : float array }

let eps = 1e-9
let feas_tol = 1e-7

type tableau = {
  rows : int;
  cols : int; (* number of variable columns; rhs lives at index [cols] *)
  width : int; (* cols + 1 *)
  a : Elim.matrix;
  (* (rows + 2) x width, row-major: the constraint rows, then the
     phase-1 and phase-2 reduced-cost rows z1 (row [rows]) and z2 (row
     [rows + 1]) *)
  basis : int array; (* basic column of each row *)
  factor : float array; (* pivot-column scratch, length rows + 2 *)
  scratch : Elim.scratch; (* pivot-row scratch *)
  nstruct : int; (* structural variables occupy columns [0, nstruct) *)
  first_artificial : int; (* artificial columns occupy [first_artificial, cols) *)
  dual_of_row : (int * float) array;
  (* per user constraint: the standardized row's slack/surplus/artificial
     column and the sign such that the user-facing dual is
     sign * z2.(column) at optimality *)
}

let get t r j = Bigarray.Array1.unsafe_get t.a ((r * t.width) + j)
let z1_row t = t.rows
let z2_row t = t.rows + 1

(* The tableau of an (LP2) solve is tens of megabytes.  Rather than
   allocating it fresh for every solve, one process-wide buffer is
   claimed with a compare-and-set, grown to the largest tableau seen, and
   zeroed up to the length in use; a solve that finds it taken (another
   domain or systhread is solving) allocates its own.  [buffer] is only
   read or written by the holder of [busy]. *)
let busy = Atomic.make false
let buffer = ref (Elim.create 0)

let with_buffer len f =
  let claimed = Atomic.compare_and_set busy false true in
  Fun.protect
    ~finally:(fun () -> if claimed then Atomic.set busy false)
    (fun () ->
      let a =
        if claimed && Bigarray.Array1.dim !buffer >= len then !buffer
        else begin
          let a = Elim.create len in
          if claimed then buffer := a;
          a
        end
      in
      Elim.zero a len;
      f a)

(* The first artificial column and the column count: a slack for each <=
   row, a surplus and an artificial for each >= row, an artificial for
   each = row (after flipping rows with a negative right-hand side). *)
let dims problem =
  let nstruct = Problem.num_vars problem in
  let n_slack = ref 0 and n_art = ref 0 in
  Problem.iter_constraints problem (fun _ sense rhs ->
      match Problem.flipped sense rhs with
      | Problem.Le -> incr n_slack
      | Problem.Ge -> incr n_slack; incr n_art
      | Problem.Eq -> incr n_art);
  let first_artificial = nstruct + !n_slack in
  (first_artificial, first_artificial + !n_art)

(* Lay out columns as [structural | slack/surplus | artificial] in [a],
   zeroed up to (rows + 2) * (cols + 1), and install the initial basis:
   slack for <= rows, artificial for >= and = rows. *)
let build problem ~first_artificial ~cols a =
  let nstruct = Problem.num_vars problem in
  let nrows = Problem.num_constraints problem in
  let width = cols + 1 in
  let basis = Array.make nrows (-1) in
  let z1 = nrows * width and z2 = (nrows + 1) * width in
  let obj = Problem.objective problem in
  Array.iteri (fun v c -> a.{z2 + v} <- c) obj;
  let slack_next = ref nstruct and art_next = ref first_artificial in
  let dual_of_row = Array.make nrows (0, 0.0) in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let row = !r * width in
      let flip = rhs < 0.0 in
      let put (v, c) =
        a.{row + v} <- a.{row + v} +. (if flip then -.c else c)
      in
      Array.iter put terms;
      a.{row + cols} <- (if flip then -.rhs else rhs);
      (* Record where this row's dual can be read off after phase 2:
         the reduced cost of a slack (+1) column is -y, of a surplus
         (-1) column +y, of a zero-cost artificial -y; a flipped row
         negates the user-facing dual again. *)
      let fsign = if flip then -1.0 else 1.0 in
      (match Problem.flipped sense rhs with
      | Problem.Le ->
          let s = !slack_next in
          incr slack_next;
          a.{row + s} <- 1.0;
          basis.(!r) <- s;
          dual_of_row.(!r) <- (s, -.fsign)
      | Problem.Ge ->
          let s = !slack_next in
          incr slack_next;
          a.{row + s} <- -1.0;
          let art = !art_next in
          incr art_next;
          a.{row + art} <- 1.0;
          basis.(!r) <- art;
          dual_of_row.(!r) <- (s, fsign)
      | Problem.Eq ->
          let art = !art_next in
          incr art_next;
          a.{row + art} <- 1.0;
          basis.(!r) <- art;
          dual_of_row.(!r) <- (art, -.fsign));
      incr r);
  (* Phase-1 reduced costs: cost 1 on every artificial column, then
     price out the initial (artificial) basics by subtracting their
     rows. *)
  for j = first_artificial to cols - 1 do
    a.{z1 + j} <- 1.0
  done;
  for r = 0 to nrows - 1 do
    if basis.(r) >= first_artificial then begin
      let row = r * width in
      for j = 0 to cols do
        a.{z1 + j} <- a.{z1 + j} -. a.{row + j}
      done
    end
  done;
  (* The z rows store reduced costs in [0, cols) and minus the current
     objective value at index [cols]. *)
  { rows = nrows; cols; width; a; basis; factor = Array.make (nrows + 2) 0.0;
    scratch = Elim.scratch width; nstruct; first_artificial; dual_of_row }

let pivot t ~row ~col =
  for r = 0 to t.rows + 1 do
    t.factor.(r) <- get t r col
  done;
  Elim.pivot t.a ~width:t.width ~rows:(t.rows + 2) ~row ~col ~factor:t.factor
    t.scratch;
  t.basis.(row) <- col

(* Choose the entering column from reduced-cost row [z]: Dantzig (most
   negative reduced cost) unless [bland], then the lowest eligible index.
   [limit] excludes artificial columns during phase 2. *)
let entering t z ~bland ~limit =
  if bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to limit - 1 do
         if get t z j < -.eps then begin
           found := j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let best = ref (-1) and best_val = ref (-.eps) in
    for j = 0 to limit - 1 do
      let v = get t z j in
      if v < !best_val then begin
        best_val := v;
        best := j
      end
    done;
    !best
  end

(* Ratio test; ties broken toward the smallest basic column to limit
   cycling.  Returns -1 when the column is unbounded. *)
let leaving t col =
  let best = ref (-1) and best_ratio = ref infinity in
  for r = 0 to t.rows - 1 do
    let arc = get t r col in
    if arc > eps then begin
      let ratio = get t r t.cols /. arc in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
            && !best >= 0
            && t.basis.(r) < t.basis.(!best))
      then begin
        best_ratio := ratio;
        best := r
      end
    end
  done;
  !best

type phase_outcome = Done | Unbounded_col | Out_of_iters

let run_phase t z ~limit ~iters_left ~bland_after =
  let iters = ref 0 in
  let rec loop () =
    if !iters >= iters_left then Out_of_iters
    else begin
      let bland = !iters > bland_after in
      let col = entering t z ~bland ~limit in
      if col < 0 then Done
      else
        let row = leaving t col in
        if row < 0 then Unbounded_col
        else begin
          pivot t ~row ~col;
          incr iters;
          loop ()
        end
    end
  in
  let outcome = loop () in
  (outcome, !iters)

(* After phase 1, pivot zero-level artificial basics out on any usable
   non-artificial column; rows that admit none are redundant and keep their
   artificial basic at level zero (artificials never re-enter because
   phase 2 prices only columns below [first_artificial]). *)
let expel_artificials t =
  for r = 0 to t.rows - 1 do
    if t.basis.(r) >= t.first_artificial then begin
      let col = ref (-1) in
      (try
         for j = 0 to t.first_artificial - 1 do
           if Float.abs (get t r j) > 1e-7 then begin
             col := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !col >= 0 then pivot t ~row:r ~col:!col
    end
  done

let solve_tableau ?max_iters problem t =
  let default_budget = max 100_000 (50 * (t.rows + t.cols)) in
  let budget = match max_iters with Some b -> b | None -> default_budget in
  let bland_after = 10 * (t.rows + t.cols) in
  let phase1_needed = t.first_artificial < t.cols in
  let after_phase1 =
    if not phase1_needed then Some budget
    else begin
      match
        run_phase t (z1_row t) ~limit:t.cols ~iters_left:budget ~bland_after
      with
      | Done, used ->
          let phase1_obj = -.get t (z1_row t) t.cols in
          if phase1_obj > feas_tol then None
          else begin
            expel_artificials t;
            Some (budget - used)
          end
      | Unbounded_col, _ ->
          (* Phase 1 minimizes a sum of nonnegative variables: it cannot be
             unbounded on exact arithmetic; treat as numerical failure. *)
          None
      | Out_of_iters, _ -> Some 0
    end
  in
  match after_phase1 with
  | None -> (Infeasible, None)
  | Some 0 -> (Iteration_limit, None)
  | Some left -> (
      match
        run_phase t (z2_row t) ~limit:t.first_artificial ~iters_left:left
          ~bland_after
      with
      | Done, _ ->
          let x = Array.make t.nstruct 0.0 in
          for r = 0 to t.rows - 1 do
            let b = t.basis.(r) in
            if b < t.nstruct then x.(b) <- get t r t.cols
          done;
          (* Clamp tiny negatives produced by roundoff. *)
          for v = 0 to t.nstruct - 1 do
            if x.(v) < 0.0 && x.(v) > -.feas_tol then x.(v) <- 0.0
          done;
          let duals =
            Array.map
              (fun (col, sign) -> sign *. get t (z2_row t) col)
              t.dual_of_row
          in
          (Optimal { objective = Problem.objective_value problem x; x },
           Some duals)
      | Unbounded_col, _ -> (Unbounded, None)
      | Out_of_iters, _ -> (Iteration_limit, None))

let solve_internal ?max_iters problem =
  let first_artificial, cols = dims problem in
  let len = (Problem.num_constraints problem + 2) * (cols + 1) in
  with_buffer len (fun a ->
      solve_tableau ?max_iters problem
        (build problem ~first_artificial ~cols a))

let solve ?max_iters problem = fst (solve_internal ?max_iters problem)

let solve_detailed ?max_iters problem =
  match solve_internal ?max_iters problem with
  | Optimal { objective; x }, Some duals -> Some { objective; x; duals }
  | _ -> None

let solve_exn ?max_iters problem =
  match solve ?max_iters problem with
  | Optimal { objective; x } -> (objective, x)
  | Infeasible -> failwith (Problem.name problem ^ ": infeasible")
  | Unbounded -> failwith (Problem.name problem ^ ": unbounded")
  | Iteration_limit -> failwith (Problem.name problem ^ ": iteration limit")
