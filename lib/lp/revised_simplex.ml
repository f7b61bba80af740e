module A1 = Bigarray.Array1

let eps = 1e-9
let feas_tol = 1e-7

(* Columns are stored sparse, in one compressed-column block: SUU's LPs
   have 2-3 nonzeros per structural column, so pricing and column
   updates over a dense rows x cols matrix would spend two orders of
   magnitude more memory traffic than the arithmetic needs.  The basis
   matrix and B⁻¹ stay dense — they are rows x rows, which is small. *)
type standard = {
  rows : int;
  cols : int;
  col_start : int array;
  (* column j's nonzeros are entries [col_start.(j), col_start.(j + 1)) *)
  row_of : int array; (* per entry: its row, ascending within a column *)
  value : float array; (* per entry: the coefficient *)
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
  let n_slack = ref 0 and n_art = ref 0 and n_terms = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      n_terms := !n_terms + Array.length terms;
      match Problem.flipped sense rhs with
      | Problem.Le -> incr n_slack
      | Problem.Ge ->
          incr n_slack;
          incr n_art
      | Problem.Eq -> incr n_art);
  let first_artificial = nstruct + !n_slack in
  let cols = first_artificial + !n_art in
  (* Count nonzeros per column (one for each slack, surplus and
     artificial), then fill with cursors. *)
  let col_start = Array.make (cols + 1) 0 in
  Problem.iter_constraints problem (fun terms _ _ ->
      Array.iter (fun (v, _) -> col_start.(v + 1) <- col_start.(v + 1) + 1)
        terms);
  for j = nstruct to cols - 1 do
    col_start.(j + 1) <- 1
  done;
  for j = 1 to cols do
    col_start.(j) <- col_start.(j) + col_start.(j - 1)
  done;
  let entries = !n_terms + (cols - nstruct) in
  let row_of = Array.make entries 0 and value = Array.make entries 0.0 in
  let cursor = Array.sub col_start 0 cols in
  let put j r v =
    let i = cursor.(j) in
    cursor.(j) <- i + 1;
    row_of.(i) <- r;
    value.(i) <- v
  in
  let b = Array.make rows 0.0 in
  let basis = Array.make rows (-1) in
  let c2 = Array.make cols 0.0 in
  Array.blit (Problem.objective problem) 0 c2 0 nstruct;
  let slack_next = ref nstruct and art_next = ref first_artificial in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let flip = rhs < 0.0 in
      Array.iter
        (fun (v, coeff) -> put v !r (if flip then -.coeff else coeff))
        terms;
      b.(!r) <- (if flip then -.rhs else rhs);
      (match Problem.flipped sense rhs with
      | Problem.Le ->
          put !slack_next !r 1.0;
          basis.(!r) <- !slack_next;
          incr slack_next
      | Problem.Ge ->
          put !slack_next !r (-1.0);
          incr slack_next;
          put !art_next !r 1.0;
          basis.(!r) <- !art_next;
          incr art_next
      | Problem.Eq ->
          put !art_next !r 1.0;
          basis.(!r) <- !art_next;
          incr art_next);
      incr r);
  (* A structural variable can appear in several constraints; the same
     variable twice in ONE constraint was merged by Problem.  Columns
     are filled in row order, so each column's rows ascend. *)
  { rows; cols; col_start; row_of; value; b; c2; nstruct; first_artificial;
    basis }

(* B⁻¹ is stored flat, row-major: entry (r, c) is [binv.{r * rows + c}]. *)
let set_identity k (binv : Elim.matrix) =
  Elim.zero binv (k * k);
  for r = 0 to k - 1 do
    binv.{(r * k) + r} <- 1.0
  done

(* Recompute B^-1 from the basis columns by Gauss-Jordan with partial
   pivoting on [B | I], laid out in [work] (rows x 2 rows, row-major);
   returns false if the basis matrix is (numerically) singular.  On
   failure [binv] holds the partial elimination, as it always has. *)
let refactorize st (binv : Elim.matrix) ~(work : Elim.matrix) ~factor ~scratch =
  let k = st.rows in
  let w = 2 * k in
  Elim.zero work (k * w);
  for c = 0 to k - 1 do
    let j = st.basis.(c) in
    for i = st.col_start.(j) to st.col_start.(j + 1) - 1 do
      work.{(st.row_of.(i) * w) + c} <- st.value.(i)
    done;
    work.{(c * w) + k + c} <- 1.0
  done;
  let ok = ref true in
  let col = ref 0 in
  while !ok && !col < k do
    let col' = !col in
    let pivot = ref col' in
    for r = col' + 1 to k - 1 do
      if Float.abs work.{(r * w) + col'} > Float.abs work.{(!pivot * w) + col'}
      then pivot := r
    done;
    if Float.abs work.{(!pivot * w) + col'} < 1e-12 then ok := false
    else begin
      if !pivot <> col' then
        for c = 0 to w - 1 do
          let t = work.{(col' * w) + c} in
          work.{(col' * w) + c} <- work.{(!pivot * w) + c};
          work.{(!pivot * w) + c} <- t
        done;
      for r = 0 to k - 1 do
        factor.(r) <- work.{(r * w) + col'}
      done;
      Elim.pivot work ~width:w ~rows:k ~row:col' ~col:col' ~factor scratch;
      incr col
    end
  done;
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      binv.{(r * k) + c} <- work.{(r * w) + k + c}
    done
  done;
  !ok

type phase_result = Opt | Unbounded_dir | Iters_exhausted

let solve_basis ?max_iters ?basis problem =
  let st = standardize problem in
  let k = st.rows in
  let binv = Elim.create (k * k) in
  set_identity k binv;
  let scratch = Elim.scratch (2 * k) in
  let work = Elim.create (2 * k * k) and factor = Array.make k 0.0 in
  let refactorize () = refactorize st binv ~work ~factor ~scratch in
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
      let base = r * k in
      for c = 0 to k - 1 do
        acc := !acc +. (A1.unsafe_get binv (base + c) *. st.b.(c))
      done;
      xb.(r) <- !acc
    done
  in
  (* y = c_B B⁻¹, accumulated row by row in the same order as the
     column-wise dot products: a zero-cost basic contributes only
     signed zeros to sums that start at +0, so it is skipped. *)
  let y = Array.make k 0.0 in
  let compute_y cost =
    Array.fill y 0 k 0.0;
    for r = 0 to k - 1 do
      let cr = cost st.basis.(r) in
      if cr <> 0.0 then begin
        let base = r * k in
        for c = 0 to k - 1 do
          Array.unsafe_set y c
            (Array.unsafe_get y c +. (cr *. A1.unsafe_get binv (base + c)))
        done
      end
    done
  in
  let reduced cost j =
    let acc = ref (cost j) in
    for i = st.col_start.(j) to st.col_start.(j + 1) - 1 do
      acc := !acc -. (y.(st.row_of.(i)) *. st.value.(i))
    done;
    !acc
  in
  let u = Array.make k 0.0 in
  let compute_u j =
    Array.fill u 0 k 0.0;
    for i = st.col_start.(j) to st.col_start.(j + 1) - 1 do
      let c = st.row_of.(i) and v = st.value.(i) in
      for r = 0 to k - 1 do
        Array.unsafe_set u r
          (Array.unsafe_get u r +. (A1.unsafe_get binv ((r * k) + c) *. v))
      done
    done
  in
  let pivot_update ~leave ~enter =
    Elim.pivot binv ~width:k ~rows:k ~row:leave ~col:(-1) ~factor:u scratch;
    is_basic.(st.basis.(leave)) <- false;
    is_basic.(enter) <- true;
    st.basis.(leave) <- enter
  in
  let run_phase cost ~limit =
    let rec loop () =
      if !iters >= budget then Iters_exhausted
      else begin
        if !iters mod 64 = 63 then ignore (refactorize ());
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
            w.(c) <- w.(c) +. binv.{(r * k) + c}
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
            for i = st.col_start.(j) to st.col_start.(j + 1) - 1 do
              s := !s +. (w.(st.row_of.(i)) *. st.value.(i))
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
            refactorize ()
            && begin
                 compute_xb ();
                 Array.for_all (fun v -> v >= -.feas_tol) xb
                 || repair_feasibility ()
               end
          in
          if not ok then begin
            (* Restore the identity start: basis, flags and B⁻¹. *)
            install cold;
            set_identity k binv
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

let solve ?max_iters problem = fst (solve_basis ?max_iters problem)

let solve_exn ?max_iters problem =
  match solve ?max_iters problem with
  | Simplex.Optimal { objective; x } -> (objective, x)
  | Simplex.Infeasible -> failwith (Problem.name problem ^ ": infeasible")
  | Simplex.Unbounded -> failwith (Problem.name problem ^ ": unbounded")
  | Simplex.Iteration_limit ->
      failwith (Problem.name problem ^ ": iteration limit")
