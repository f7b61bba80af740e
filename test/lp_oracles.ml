(* The exact LP solvers as they were before their row eliminations went
   through [Suu_lp.Elim]: a fresh [float array array] tableau (resp.
   basis inverse) per solve, and every pivot updating every column of
   every touched row.  They are the specification the sparse-row
   kernel must match bit for bit, up to the sign of a zero — see the
   "sparse pivots = dense oracles" property in test_lp. *)

module Problem = Suu_lp.Problem
module Simplex = Suu_lp.Simplex

module Dense = struct
type result = Simplex.result =
  | Optimal of { objective : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let eps = 1e-9
let feas_tol = 1e-7

type tableau = {
  rows : int;
  cols : int; (* number of variable columns; rhs lives at index [cols] *)
  a : float array array; (* rows x (cols + 1) *)
  basis : int array; (* basic column of each row *)
  z1 : float array; (* phase-1 reduced costs, length cols + 1 *)
  z2 : float array; (* phase-2 reduced costs, length cols + 1 *)
  nstruct : int; (* structural variables occupy columns [0, nstruct) *)
  first_artificial : int; (* artificial columns occupy [first_artificial, cols) *)
  dual_of_row : (int * float) array;
  (* per user constraint: the standardized row's slack/surplus/artificial
     column and the sign such that the user-facing dual is
     sign * z2.(column) at optimality *)
}

(* Lay out columns as [structural | slack/surplus | artificial] and install
   the initial basis: slack for <= rows, artificial for >= and = rows. *)
let build problem =
  let nstruct = Problem.num_vars problem in
  let nrows = Problem.num_constraints problem in
  (* Count extra columns. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Problem.iter_constraints problem (fun _ sense rhs ->
      let sense = if rhs < 0.0 then
          (match sense with Problem.Le -> Problem.Ge
                          | Problem.Ge -> Problem.Le
                          | Problem.Eq -> Problem.Eq)
        else sense
      in
      match sense with
      | Problem.Le -> incr n_slack
      | Problem.Ge -> incr n_slack; incr n_art
      | Problem.Eq -> incr n_art);
  let first_artificial = nstruct + !n_slack in
  let cols = first_artificial + !n_art in
  let a = Array.init nrows (fun _ -> Array.make (cols + 1) 0.0) in
  let basis = Array.make nrows (-1) in
  let z1 = Array.make (cols + 1) 0.0 in
  let z2 = Array.make (cols + 1) 0.0 in
  let obj = Problem.objective problem in
  Array.blit obj 0 z2 0 nstruct;
  let slack_next = ref nstruct and art_next = ref first_artificial in
  let dual_of_row = Array.make nrows (0, 0.0) in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let row = a.(!r) in
      let flip = rhs < 0.0 in
      let put (v, c) = row.(v) <- row.(v) +. (if flip then -.c else c) in
      Array.iter put terms;
      row.(cols) <- (if flip then -.rhs else rhs);
      let sense =
        if flip then
          match sense with
          | Problem.Le -> Problem.Ge
          | Problem.Ge -> Problem.Le
          | Problem.Eq -> Problem.Eq
        else sense
      in
      (* Record where this row's dual can be read off after phase 2:
         the reduced cost of a slack (+1) column is -y, of a surplus
         (-1) column +y, of a zero-cost artificial -y; a flipped row
         negates the user-facing dual again. *)
      let fsign = if flip then -1.0 else 1.0 in
      (match sense with
      | Problem.Le ->
          let s = !slack_next in
          incr slack_next;
          row.(s) <- 1.0;
          basis.(!r) <- s;
          dual_of_row.(!r) <- (s, -.fsign)
      | Problem.Ge ->
          let s = !slack_next in
          incr slack_next;
          row.(s) <- -1.0;
          let art = !art_next in
          incr art_next;
          row.(art) <- 1.0;
          basis.(!r) <- art;
          dual_of_row.(!r) <- (s, fsign)
      | Problem.Eq ->
          let art = !art_next in
          incr art_next;
          row.(art) <- 1.0;
          basis.(!r) <- art;
          dual_of_row.(!r) <- (art, -.fsign));
      incr r);
  (* Phase-1 reduced costs: cost 1 on every artificial column, then
     price out the initial (artificial) basics by subtracting their
     rows. *)
  for j = first_artificial to cols - 1 do
    z1.(j) <- 1.0
  done;
  for r = 0 to nrows - 1 do
    if basis.(r) >= first_artificial then begin
      let row = a.(r) in
      for j = 0 to cols do
        z1.(j) <- z1.(j) -. row.(j)
      done
    end
  done;
  (* The z rows store reduced costs in [0, cols) and minus the current
     objective value at index [cols]. *)
  { rows = nrows; cols; a; basis; z1; z2; nstruct; first_artificial;
    dual_of_row }

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  let inv = 1.0 /. p in
  for j = 0 to t.cols do
    arow.(j) <- arow.(j) *. inv
  done;
  arow.(col) <- 1.0;
  let eliminate target =
    let f = target.(col) in
    if Float.abs f > 0.0 then begin
      for j = 0 to t.cols do
        target.(j) <- target.(j) -. (f *. arow.(j))
      done;
      target.(col) <- 0.0
    end
  in
  for r = 0 to t.rows - 1 do
    if r <> row then eliminate t.a.(r)
  done;
  eliminate t.z1;
  eliminate t.z2;
  t.basis.(row) <- col

(* Choose the entering column: Dantzig (most negative reduced cost) unless
   [bland], then the lowest eligible index.  [limit] excludes artificial
   columns during phase 2. *)
let entering z ~bland ~limit =
  if bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to limit - 1 do
         if z.(j) < -.eps then begin
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
      if z.(j) < !best_val then begin
        best_val := z.(j);
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
    let arc = t.a.(r).(col) in
    if arc > eps then begin
      let ratio = t.a.(r).(t.cols) /. arc in
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
      let col = entering z ~bland ~limit in
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
      let row = t.a.(r) in
      let col = ref (-1) in
      (try
         for j = 0 to t.first_artificial - 1 do
           if Float.abs row.(j) > 1e-7 then begin
             col := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !col >= 0 then pivot t ~row:r ~col:!col
    end
  done

let solve_internal ?max_iters problem =
  let t = build problem in
  let default_budget = max 100_000 (50 * (t.rows + t.cols)) in
  let budget = match max_iters with Some b -> b | None -> default_budget in
  let bland_after = 10 * (t.rows + t.cols) in
  let phase1_needed = t.first_artificial < t.cols in
  let after_phase1 =
    if not phase1_needed then Some budget
    else begin
      match run_phase t t.z1 ~limit:t.cols ~iters_left:budget ~bland_after with
      | Done, used ->
          let phase1_obj = -.t.z1.(t.cols) in
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
        run_phase t t.z2 ~limit:t.first_artificial ~iters_left:left
          ~bland_after
      with
      | Done, _ ->
          let x = Array.make t.nstruct 0.0 in
          for r = 0 to t.rows - 1 do
            let b = t.basis.(r) in
            if b < t.nstruct then x.(b) <- t.a.(r).(t.cols)
          done;
          (* Clamp tiny negatives produced by roundoff. *)
          for v = 0 to t.nstruct - 1 do
            if x.(v) < 0.0 && x.(v) > -.feas_tol then x.(v) <- 0.0
          done;
          let duals =
            Array.map
              (fun (col, sign) -> sign *. t.z2.(col))
              t.dual_of_row
          in
          (Optimal { objective = Problem.objective_value problem x; x },
           Some duals)
      | Unbounded_col, _ -> (Unbounded, None)
      | Out_of_iters, _ -> (Iteration_limit, None))

end

module Revised = struct
let eps = 1e-9
let feas_tol = 1e-7

(* Columns are stored sparse (row indices + values): SUU's LPs have
   2-3 nonzeros per structural column, so pricing and column updates
   over a dense rows x cols matrix would spend two orders of magnitude
   more memory traffic than the arithmetic needs.  The basis matrix
   and B⁻¹ stay dense — they are rows x rows, which is small. *)
type standard = {
  rows : int;
  cols : int;
  col_rows : int array array; (* per column: rows of its nonzeros *)
  col_vals : float array array; (* per column: the coefficients *)
  b : float array; (* rhs >= 0 *)
  c2 : float array; (* phase-2 costs *)
  nstruct : int;
  first_artificial : int;
  basis : int array;
}

(* Standard form: [structural | slack/surplus | artificial] columns with
   an identity initial basis (slack for <=, artificial for >= and =). *)
let standardize problem =
  let nstruct = Problem.num_vars problem in
  let rows = Problem.num_constraints problem in
  let n_slack = ref 0 and n_art = ref 0 in
  Problem.iter_constraints problem (fun _ sense rhs ->
      let sense =
        if rhs < 0.0 then
          match sense with
          | Problem.Le -> Problem.Ge
          | Problem.Ge -> Problem.Le
          | Problem.Eq -> Problem.Eq
        else sense
      in
      match sense with
      | Problem.Le -> incr n_slack
      | Problem.Ge ->
          incr n_slack;
          incr n_art
      | Problem.Eq -> incr n_art);
  let first_artificial = nstruct + !n_slack in
  let cols = first_artificial + !n_art in
  (* Count structural nonzeros per column, then fill with cursors. *)
  let nnz = Array.make cols 0 in
  Problem.iter_constraints problem (fun terms _ _ ->
      Array.iter (fun (v, _) -> nnz.(v) <- nnz.(v) + 1) terms);
  for j = nstruct to cols - 1 do
    nnz.(j) <- 1
  done;
  let col_rows = Array.init cols (fun j -> Array.make nnz.(j) 0) in
  let col_vals = Array.init cols (fun j -> Array.make nnz.(j) 0.0) in
  let cursor = Array.make cols 0 in
  let b = Array.make rows 0.0 in
  let basis = Array.make rows (-1) in
  let c2 = Array.make cols 0.0 in
  Array.blit (Problem.objective problem) 0 c2 0 nstruct;
  let slack_next = ref nstruct and art_next = ref first_artificial in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let flip = rhs < 0.0 in
      Array.iter
        (fun (v, coeff) ->
          let i = cursor.(v) in
          cursor.(v) <- i + 1;
          col_rows.(v).(i) <- !r;
          col_vals.(v).(i) <- (if flip then -.coeff else coeff))
        terms;
      b.(!r) <- (if flip then -.rhs else rhs);
      let sense =
        if flip then
          match sense with
          | Problem.Le -> Problem.Ge
          | Problem.Ge -> Problem.Le
          | Problem.Eq -> Problem.Eq
        else sense
      in
      let unit_col j v =
        col_rows.(j).(0) <- !r;
        col_vals.(j).(0) <- v
      in
      (match sense with
      | Problem.Le ->
          unit_col !slack_next 1.0;
          basis.(!r) <- !slack_next;
          incr slack_next
      | Problem.Ge ->
          unit_col !slack_next (-1.0);
          incr slack_next;
          unit_col !art_next 1.0;
          basis.(!r) <- !art_next;
          incr art_next
      | Problem.Eq ->
          unit_col !art_next 1.0;
          basis.(!r) <- !art_next;
          incr art_next);
      incr r);
  (* A structural variable can appear in several constraints; the same
     variable twice in ONE constraint was merged by Problem.  Columns
     are filled in row order, so col_rows is sorted — nothing to fix. *)
  { rows; cols; col_rows; col_vals; b; c2; nstruct; first_artificial; basis }

(* Recompute B^-1 from the basis columns by Gauss-Jordan with partial
   pivoting; returns false if the basis matrix is (numerically)
   singular. *)
let refactorize st binv =
  let k = st.rows in
  let work = Array.init k (fun _ -> Array.make k 0.0) in
  for c = 0 to k - 1 do
    let j = st.basis.(c) in
    let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
    for i = 0 to Array.length rows_j - 1 do
      work.(rows_j.(i)).(c) <- vals_j.(i)
    done
  done;
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      binv.(r).(c) <- (if r = c then 1.0 else 0.0)
    done
  done;
  let ok = ref true in
  for col = 0 to k - 1 do
    if !ok then begin
      let pivot = ref col in
      for r = col + 1 to k - 1 do
        if Float.abs work.(r).(col) > Float.abs work.(!pivot).(col) then
          pivot := r
      done;
      if Float.abs work.(!pivot).(col) < 1e-12 then ok := false
      else begin
        if !pivot <> col then begin
          let t = work.(col) in
          work.(col) <- work.(!pivot);
          work.(!pivot) <- t;
          let t = binv.(col) in
          binv.(col) <- binv.(!pivot);
          binv.(!pivot) <- t
        end;
        let inv = 1.0 /. work.(col).(col) in
        for c = 0 to k - 1 do
          work.(col).(c) <- work.(col).(c) *. inv;
          binv.(col).(c) <- binv.(col).(c) *. inv
        done;
        for r = 0 to k - 1 do
          if r <> col then begin
            let f = work.(r).(col) in
            if Float.abs f > 0.0 then begin
              for c = 0 to k - 1 do
                work.(r).(c) <- work.(r).(c) -. (f *. work.(col).(c));
                binv.(r).(c) <- binv.(r).(c) -. (f *. binv.(col).(c))
              done
            end
          end
        done
      end
    end
  done;
  !ok

type phase_result = Opt | Unbounded_dir | Iters_exhausted

let solve_basis ?max_iters ?basis problem =
  let st = standardize problem in
  let k = st.rows in
  let binv = Array.init k (fun r -> Array.init k (fun c -> if r = c then 1.0 else 0.0)) in
  let is_basic = Array.make st.cols false in
  Array.iter (fun j -> is_basic.(j) <- true) st.basis;
  let budget =
    match max_iters with
    | Some b -> b
    | None -> max 100_000 (50 * (st.rows + st.cols))
  in
  let bland_after = 10 * (st.rows + st.cols) in
  let iters = ref 0 in
  let xb = Array.make k 0.0 in
  let compute_xb () =
    for r = 0 to k - 1 do
      let acc = ref 0.0 in
      for c = 0 to k - 1 do
        acc := !acc +. (binv.(r).(c) *. st.b.(c))
      done;
      xb.(r) <- !acc
    done
  in
  let y = Array.make k 0.0 in
  let compute_y cost =
    for c = 0 to k - 1 do
      let acc = ref 0.0 in
      for r = 0 to k - 1 do
        acc := !acc +. (cost st.basis.(r) *. binv.(r).(c))
      done;
      y.(c) <- !acc
    done
  in
  let reduced cost j =
    let acc = ref (cost j) in
    let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
    for i = 0 to Array.length rows_j - 1 do
      acc := !acc -. (y.(rows_j.(i)) *. vals_j.(i))
    done;
    !acc
  in
  let u = Array.make k 0.0 in
  let compute_u j =
    Array.fill u 0 k 0.0;
    let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
    for i = 0 to Array.length rows_j - 1 do
      let c = rows_j.(i) and v = vals_j.(i) in
      for r = 0 to k - 1 do
        u.(r) <- u.(r) +. (binv.(r).(c) *. v)
      done
    done
  in
  let pivot_update ~leave ~enter =
    let d = u.(leave) in
    let inv = 1.0 /. d in
    for c = 0 to k - 1 do
      binv.(leave).(c) <- binv.(leave).(c) *. inv
    done;
    for r = 0 to k - 1 do
      if r <> leave then begin
        let f = u.(r) in
        if Float.abs f > 0.0 then
          for c = 0 to k - 1 do
            binv.(r).(c) <- binv.(r).(c) -. (f *. binv.(leave).(c))
          done
      end
    done;
    is_basic.(st.basis.(leave)) <- false;
    is_basic.(enter) <- true;
    st.basis.(leave) <- enter
  in
  let run_phase cost ~limit =
    let rec loop () =
      if !iters >= budget then Iters_exhausted
      else begin
        if !iters mod 64 = 63 then ignore (refactorize st binv);
        compute_y cost;
        let bland = !iters > bland_after in
        (* entering column *)
        let enter = ref (-1) and best = ref (-.eps) in
        (try
           for j = 0 to limit - 1 do
             if not is_basic.(j) then begin
               let rc = reduced cost j in
               if bland then begin
                 if rc < -.eps then begin
                   enter := j;
                   raise Exit
                 end
               end
               else if rc < !best then begin
                 best := rc;
                 enter := j
               end
             end
           done
         with Exit -> ());
        if !enter < 0 then Opt
        else begin
          compute_u !enter;
          compute_xb ();
          let leave = ref (-1) and best_ratio = ref infinity in
          for r = 0 to k - 1 do
            if u.(r) > eps then begin
              let ratio = Float.max 0.0 xb.(r) /. u.(r) in
              if
                ratio < !best_ratio -. eps
                || (ratio < !best_ratio +. eps
                   && !leave >= 0
                   && st.basis.(r) < st.basis.(!leave))
              then begin
                best_ratio := ratio;
                leave := r
              end
            end
          done;
          if !leave < 0 then Unbounded_dir
          else begin
            pivot_update ~leave:!leave ~enter:!enter;
            incr iters;
            loop ()
          end
        end
      end
    in
    loop ()
  in
  (* Warm start: adopt the caller's basis when it is structurally sound
     (one column per row, in range, artificial-free, no repeats) and
     numerically nonsingular against THIS problem's constraint matrix.
     A basis carried over from a neighbouring problem (the previous
     target of a doubling sequence) is usually primal {e infeasible}
     here — the RHS and the clipped coefficients moved — so instead of
     rejecting it we run a composite phase 1 from it: pivot to shrink
     the total infeasibility sum(-xb | xb < 0) until the basis is
     feasible.  Near-optimal starts need a handful of such pivots where
     the cold two-phase path needs hundreds.  Every check and every
     pivot runs against the fresh standardization, so staleness can
     cost the repair attempt but never correctness; on any failure
     (singular, repair stalls, pivot cap) the cold identity start is
     restored and the usual two-phase path runs. *)
  let install b =
    Array.iter (fun j -> is_basic.(j) <- false) st.basis;
    Array.blit b 0 st.basis 0 k;
    Array.iter (fun j -> is_basic.(j) <- true) st.basis
  in
  let repair_feasibility () =
    (* Composite phase 1 from the current (nonsingular) basis.  With
       infeasible set I = { r | xb_r < -tol }, entering column j
       changes the infeasibility sum at rate s_j = sum_{r in I} u_rj
       (for xb := xb - t u); any j with s_j < 0 improves.  The step is
       blocked by the first feasible basic driven to 0 or the first
       infeasible basic crossing 0; both pivots keep the basis
       artificial-free.  Bounded by a pivot cap: a stall or cycle
       abandons the warm start rather than risking it. *)
    let w = Array.make k 0.0 in
    let max_pivots = 4 * k in
    let pivots = ref 0 in
    let verdict = ref None in
    while !verdict = None do
      compute_xb ();
      Array.fill w 0 k 0.0;
      let infeasible = ref false in
      for r = 0 to k - 1 do
        if xb.(r) < -.feas_tol then begin
          infeasible := true;
          for c = 0 to k - 1 do
            w.(c) <- w.(c) +. binv.(r).(c)
          done
        end
      done;
      if not !infeasible then verdict := Some true
      else if !pivots >= max_pivots then verdict := Some false
      else begin
        let enter = ref (-1) and best = ref (-.eps) in
        for j = 0 to st.first_artificial - 1 do
          if not is_basic.(j) then begin
            let s = ref 0.0 in
            let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
            for i = 0 to Array.length rows_j - 1 do
              s := !s +. (w.(rows_j.(i)) *. vals_j.(i))
            done;
            if !s < !best then begin
              best := !s;
              enter := j
            end
          end
        done;
        if !enter < 0 then verdict := Some false
        else begin
          compute_u !enter;
          let leave = ref (-1) and best_ratio = ref infinity in
          for r = 0 to k - 1 do
            let ratio =
              if xb.(r) >= -.feas_tol then
                if u.(r) > eps then Float.max 0.0 xb.(r) /. u.(r)
                else infinity
              else if u.(r) < -.eps then xb.(r) /. u.(r)
              else infinity
            in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps
                 && !leave >= 0
                 && st.basis.(r) < st.basis.(!leave))
            then begin
              best_ratio := ratio;
              leave := r
            end
          done;
          if !leave < 0 || !best_ratio = infinity then verdict := Some false
          else begin
            pivot_update ~leave:!leave ~enter:!enter;
            incr pivots
          end
        end
      end
    done;
    !verdict = Some true
  in
  let warm =
    match basis with
    | None -> false
    | Some b ->
        let sound =
          Array.length b = k
          &&
          let seen = Array.make st.first_artificial false in
          Array.for_all
            (fun j ->
              j >= 0 && j < st.first_artificial
              && (not seen.(j))
              && begin
                   seen.(j) <- true;
                   true
                 end)
            b
        in
        if not sound then false
        else begin
          let cold = Array.copy st.basis in
          install b;
          let ok =
            refactorize st binv
            && begin
                 compute_xb ();
                 Array.for_all (fun v -> v >= -.feas_tol) xb
                 || repair_feasibility ()
               end
          in
          if not ok then begin
            (* Restore the identity start: basis, flags and B⁻¹. *)
            install cold;
            for r = 0 to k - 1 do
              for c = 0 to k - 1 do
                binv.(r).(c) <- (if r = c then 1.0 else 0.0)
              done
            done
          end;
          ok
        end
  in
  let phase1_needed = (not warm) && st.first_artificial < st.cols in
  let c1 j = if j >= st.first_artificial then 1.0 else 0.0 in
  let feasible =
    if not phase1_needed then true
    else
      match run_phase c1 ~limit:st.cols with
      | Opt ->
          compute_xb ();
          let obj = ref 0.0 in
          for r = 0 to k - 1 do
            obj := !obj +. (c1 st.basis.(r) *. Float.max 0.0 xb.(r))
          done;
          if !obj > feas_tol then false
          else begin
            (* Expel zero-level artificial basics where possible. *)
            for r = 0 to k - 1 do
              if st.basis.(r) >= st.first_artificial then begin
                let found = ref (-1) in
                (try
                   for j = 0 to st.first_artificial - 1 do
                     if not is_basic.(j) then begin
                       compute_u j;
                       if Float.abs u.(r) > 1e-7 then begin
                         found := j;
                         raise Exit
                       end
                     end
                   done
                 with Exit -> ());
                if !found >= 0 then begin
                  compute_u !found;
                  pivot_update ~leave:r ~enter:!found
                end
              end
            done;
            true
          end
      | Unbounded_dir -> false
      | Iters_exhausted -> raise Exit
  in
  match
    if not feasible then (Simplex.Infeasible, None)
    else begin
      let c2 j = if j < st.cols then st.c2.(j) else 0.0 in
      match run_phase c2 ~limit:st.first_artificial with
      | Opt ->
          compute_xb ();
          let x = Array.make st.nstruct 0.0 in
          for r = 0 to k - 1 do
            let j = st.basis.(r) in
            if j < st.nstruct then x.(j) <- Float.max 0.0 xb.(r)
          done;
          (* Export the optimal basis only when it can seed a future warm
             start: a degenerate optimum may still carry a zero-level
             artificial, which no restart is allowed to trust. *)
          let out =
            if Array.exists (fun j -> j >= st.first_artificial) st.basis then
              None
            else Some (Array.copy st.basis)
          in
          (Simplex.Optimal { objective = Problem.objective_value problem x; x },
           out)
      | Unbounded_dir -> (Simplex.Unbounded, None)
      | Iters_exhausted -> (Simplex.Iteration_limit, None)
    end
  with
  | result -> result
  | exception Exit -> (Simplex.Iteration_limit, None)

end
