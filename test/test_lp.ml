(* Tests for the LP substrate: problem builder, two-phase simplex, and the
   MWU covering solver.  The simplex's correctness is what the paper's
   Lemma 1/2/5/6 machinery stands on, so it gets adversarial cases
   (degeneracy, redundancy, infeasibility, unboundedness) plus randomized
   cross-checks against independently-known optima. *)

module P = Suu_lp.Problem
module S = Suu_lp.Simplex
module Mwu = Suu_lp.Mwu

let checkf = Alcotest.(check (float 1e-6))

let optimal = function
  | S.Optimal { objective; x } -> (objective, x)
  | S.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | S.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

let solve_opt p = optimal (S.solve p)

(* --- hand-built LPs with known optima --- *)

let test_trivial_min () =
  (* min x s.t. x >= 3 *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 3.0;
  let obj, sol = solve_opt p in
  checkf "objective" 3.0 obj;
  checkf "x" 3.0 sol.(x)

let test_two_var_max () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  (opt 12 at x=4,y=0) *)
  let p = P.create () in
  let x = P.add_var ~obj:(-3.0) p in
  let y = P.add_var ~obj:(-2.0) p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Le 4.0;
  P.add_constraint p [ (x, 1.0); (y, 3.0) ] P.Le 6.0;
  let obj, sol = solve_opt p in
  checkf "objective" (-12.0) obj;
  checkf "x" 4.0 sol.(x);
  checkf "y" 0.0 sol.(y)

let test_equality_constraint () =
  (* min x + y s.t. x + y = 5, x - y <= 1  -> any x+y=5; obj 5 *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  let y = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Eq 5.0;
  P.add_constraint p [ (x, 1.0); (y, -1.0) ] P.Le 1.0;
  let obj, sol = solve_opt p in
  checkf "objective" 5.0 obj;
  checkf "feasible" 0.0 (P.constraint_violation p sol)

let test_negative_rhs () =
  (* min x s.t. -x <= -2  (i.e. x >= 2) *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, -1.0) ] P.Le (-2.0);
  let obj, _ = solve_opt p in
  checkf "objective" 2.0 obj

let test_infeasible () =
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  match S.solve p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  (* min -x s.t. x >= 1 *)
  let p = P.create () in
  let x = P.add_var ~obj:(-1.0) p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 1.0;
  match S.solve p with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate_beale () =
  (* Beale's classic cycling example; Bland's fallback must terminate.
     min -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
     s.t. 0.25 x4 - 60 x5 - 0.04 x6 + 9 x7 <= 0
          0.5  x4 - 90 x5 - 0.02 x6 + 3 x7 <= 0
          x6 <= 1                         (optimum -0.05) *)
  let p = P.create () in
  let x4 = P.add_var ~obj:(-0.75) p in
  let x5 = P.add_var ~obj:150.0 p in
  let x6 = P.add_var ~obj:(-0.02) p in
  let x7 = P.add_var ~obj:6.0 p in
  P.add_constraint p
    [ (x4, 0.25); (x5, -60.0); (x6, -0.04); (x7, 9.0) ]
    P.Le 0.0;
  P.add_constraint p
    [ (x4, 0.5); (x5, -90.0); (x6, -0.02); (x7, 3.0) ]
    P.Le 0.0;
  P.add_constraint p [ (x6, 1.0) ] P.Le 1.0;
  let obj, sol = solve_opt p in
  checkf "objective" (-0.05) obj;
  checkf "feasible" 0.0 (P.constraint_violation p sol)

let test_redundant_rows () =
  (* Duplicate equalities create zero rows in phase 1. *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  let y = P.add_var ~obj:2.0 p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Eq 3.0;
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Eq 3.0;
  P.add_constraint p [ (x, 2.0); (y, 2.0) ] P.Eq 6.0;
  let obj, sol = solve_opt p in
  checkf "objective" 3.0 obj;
  checkf "x" 3.0 sol.(x);
  checkf "y" 0.0 sol.(y)

let test_duplicate_terms_merged () =
  (* x appearing twice in one row must sum coefficients. *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0); (x, 1.0) ] P.Ge 4.0;
  let obj, _ = solve_opt p in
  checkf "objective (2x >= 4)" 2.0 obj

let test_zero_rhs_ge () =
  (* min x + y s.t. x - y >= 0, y >= 2 -> x = y = 2 *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  let y = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0); (y, -1.0) ] P.Ge 0.0;
  P.add_constraint p [ (y, 1.0) ] P.Ge 2.0;
  let obj, _ = solve_opt p in
  checkf "objective" 4.0 obj

let test_solve_exn_raises () =
  let p = P.create ~name:"broken" () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  Alcotest.check_raises "exn" (Failure "broken: infeasible") (fun () ->
      ignore (S.solve_exn p))

let test_problem_validation () =
  let p = P.create () in
  let _ = P.add_var p in
  Alcotest.check_raises "bad var"
    (Invalid_argument "Problem.add_constraint: variable out of range")
    (fun () -> P.add_constraint p [ (5, 1.0) ] P.Ge 0.0)

let test_objective_value () =
  let p = P.create () in
  let x = P.add_var ~obj:2.0 p in
  let y = P.add_var ~obj:(-1.0) p in
  ignore y;
  checkf "eval" 5.0 (P.objective_value p [| 3.0; 1.0 |]);
  ignore x

(* --- randomized cross-checks --- *)

(* Random transportation-style LP whose optimum we can compute greedily:
   min sum c_i x_i  s.t. sum x_i >= b, x_i <= u_i.  Optimal cost: fill
   cheapest first. *)
let transportation_case seed =
  let rng = Suu_prng.Rng.create ~seed in
  let k = 2 + Suu_prng.Rng.int rng 6 in
  let c = Array.init k (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:5.0) in
  let u = Array.init k (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:3.0) in
  let cap = Array.fold_left ( +. ) 0.0 u in
  let b = Suu_prng.Rng.range rng ~lo:0.1 ~hi:(0.9 *. cap) in
  let p = P.create () in
  let xs = Array.map (fun ci -> P.add_var ~obj:ci p) c in
  P.add_constraint p
    (Array.to_list (Array.map (fun x -> (x, 1.0)) xs))
    P.Ge b;
  Array.iteri (fun i x -> P.add_constraint p [ (x, 1.0) ] P.Le u.(i)) xs;
  (* greedy optimum *)
  let order = Array.init k Fun.id in
  Array.sort (fun a b' -> compare c.(a) c.(b')) order;
  let expected = ref 0.0 and need = ref b in
  Array.iter
    (fun i ->
      let take = Float.min !need u.(i) in
      expected := !expected +. (take *. c.(i));
      need := !need -. take)
    order;
  (p, !expected)

let prop_transportation =
  QCheck.Test.make ~count:200 ~name:"simplex matches greedy transportation"
    QCheck.small_int (fun seed ->
      let p, expected = transportation_case seed in
      let obj, sol = solve_opt p in
      Float.abs (obj -. expected) < 1e-6 *. Float.max 1.0 expected
      && P.constraint_violation p sol < 1e-6)

(* Random LP1-shaped min-load covers: simplex solution must be feasible,
   and no worse than the trivial single-machine solution. *)
let prop_min_load_cover_feasible =
  QCheck.Test.make ~count:100 ~name:"simplex on LP1 shape: feasible + sane"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let m = 2 + Suu_prng.Rng.int rng 4 in
      let n = 2 + Suu_prng.Rng.int rng 6 in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
      in
      let p = P.create () in
      let t = P.add_var ~obj:1.0 p in
      let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
      for j = 0 to n - 1 do
        P.add_constraint p
          (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
          P.Ge 1.0
      done;
      for i = 0 to m - 1 do
        P.add_constraint p
          ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
          P.Le 0.0
      done;
      let obj, sol = solve_opt p in
      (* trivial upper bound: machine 0 covers everything alone *)
      let trivial = ref 0.0 in
      for j = 0 to n - 1 do
        trivial := !trivial +. (1.0 /. a.(0).(j))
      done;
      P.constraint_violation p sol < 1e-6
      && obj <= !trivial +. 1e-6
      && obj >= -1e-9)

(* Random LP in the two solvers: identical classification and, when
   optimal, matching objective values plus mutual feasibility. *)
let random_general_lp seed =
  let rng = Suu_prng.Rng.create ~seed in
  let nv = 2 + Suu_prng.Rng.int rng 6 in
  let nc = 1 + Suu_prng.Rng.int rng 6 in
  let p = P.create () in
  let vars =
    Array.init nv (fun _ ->
        P.add_var ~obj:(Suu_prng.Rng.range rng ~lo:(-2.0) ~hi:3.0) p)
  in
  for _ = 1 to nc do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Suu_prng.Rng.bool rng then
               Some (v, Suu_prng.Rng.range rng ~lo:(-2.0) ~hi:2.0)
             else None)
    in
    let terms = if terms = [] then [ (vars.(0), 1.0) ] else terms in
    let sense =
      match Suu_prng.Rng.int rng 3 with
      | 0 -> P.Le
      | 1 -> P.Ge
      | _ -> P.Eq
    in
    P.add_constraint p terms sense (Suu_prng.Rng.range rng ~lo:(-3.0) ~hi:5.0)
  done;
  p

(* --- duals --- *)

let test_duals_known () =
  (* min x s.t. x >= 3: dual of the covering row is 1 (the objective's
     full weight rests on it); objective = 1 * 3. *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 3.0;
  match S.solve_detailed p with
  | Some d ->
      checkf "objective" 3.0 d.S.objective;
      checkf "dual" 1.0 d.S.duals.(0)
  | None -> Alcotest.fail "expected optimal"

let test_duals_none_when_infeasible () =
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  Alcotest.(check bool) "none" true (S.solve_detailed p = None)

(* Strong duality + dual feasibility on random LPs: whenever the solver
   reports optimal, obj = duals . rhs and every variable's reduced cost
   under the duals is >= 0 (for minimization with x >= 0). *)
let prop_strong_duality =
  QCheck.Test.make ~count:300 ~name:"strong duality and dual feasibility"
    QCheck.small_int (fun seed ->
      let p = random_general_lp seed in
      match S.solve_detailed p with
      | None -> true (* infeasible/unbounded: nothing to check *)
      | Some d ->
          let nv = P.num_vars p in
          (* gather rhs and per-variable dual weights *)
          let yb = ref 0.0 in
          let aty = Array.make nv 0.0 in
          let r = ref 0 in
          P.iter_constraints p (fun terms _ rhs ->
              yb := !yb +. (d.S.duals.(!r) *. rhs);
              Array.iter
                (fun (v, coeff) ->
                  aty.(v) <- aty.(v) +. (d.S.duals.(!r) *. coeff))
                terms;
              incr r);
          let scale = Float.max 1.0 (Float.abs d.S.objective) in
          let strong = Float.abs (d.S.objective -. !yb) < 1e-5 *. scale in
          let c = P.objective p in
          let dual_feasible = ref true in
          for v = 0 to nv - 1 do
            if c.(v) -. aty.(v) < -1e-5 then dual_feasible := false
          done;
          strong && !dual_feasible)

(* --- revised simplex (differential) --- *)

module Rs = Suu_lp.Revised_simplex

let test_revised_known_cases () =
  (* Re-run the hand-built cases through the second solver. *)
  let p = P.create () in
  let x = P.add_var ~obj:(-3.0) p in
  let y = P.add_var ~obj:(-2.0) p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Le 4.0;
  P.add_constraint p [ (x, 1.0); (y, 3.0) ] P.Le 6.0;
  let obj, sol = optimal (Rs.solve p) in
  checkf "objective" (-12.0) obj;
  checkf "feasible" 0.0 (P.constraint_violation p sol)

let test_revised_infeasible_unbounded () =
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  (match Rs.solve p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  let p = P.create () in
  let x = P.add_var ~obj:(-1.0) p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 1.0;
  match Rs.solve p with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_revised_beale () =
  let p = P.create () in
  let x4 = P.add_var ~obj:(-0.75) p in
  let x5 = P.add_var ~obj:150.0 p in
  let x6 = P.add_var ~obj:(-0.02) p in
  let x7 = P.add_var ~obj:6.0 p in
  P.add_constraint p
    [ (x4, 0.25); (x5, -60.0); (x6, -0.04); (x7, 9.0) ]
    P.Le 0.0;
  P.add_constraint p
    [ (x4, 0.5); (x5, -90.0); (x6, -0.02); (x7, 3.0) ]
    P.Le 0.0;
  P.add_constraint p [ (x6, 1.0) ] P.Le 1.0;
  let obj, _ = optimal (Rs.solve p) in
  checkf "objective" (-0.05) obj

let prop_revised_matches_tableau =
  QCheck.Test.make ~count:300 ~name:"revised = tableau on random LPs"
    QCheck.small_int (fun seed ->
      let p = random_general_lp seed in
      match (S.solve p, Rs.solve p) with
      | ( S.Optimal { objective = oa; x = xa },
          S.Optimal { objective = ob; x = xb } ) ->
          Float.abs (oa -. ob) < 1e-5 *. Float.max 1.0 (Float.abs oa)
          && P.constraint_violation p xa < 1e-6
          && P.constraint_violation p xb < 1e-6
      | S.Infeasible, S.Infeasible -> true
      | S.Unbounded, S.Unbounded -> true
      | _, _ -> false)

let prop_revised_matches_on_lp1_shape =
  QCheck.Test.make ~count:60 ~name:"revised = tableau on LP1 shapes"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let m = 2 + Suu_prng.Rng.int rng 4 in
      let n = 2 + Suu_prng.Rng.int rng 6 in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
      in
      let targets =
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:2.0)
      in
      let build () =
        let p = P.create () in
        let t = P.add_var ~obj:1.0 p in
        let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
        for j = 0 to n - 1 do
          P.add_constraint p
            (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
            P.Ge targets.(j)
        done;
        for i = 0 to m - 1 do
          P.add_constraint p
            ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
            P.Le 0.0
        done;
        p
      in
      let va, _ = solve_opt (build ()) in
      let vb, _ = optimal (Rs.solve (build ())) in
      Float.abs (va -. vb) < 1e-5 *. Float.max 1.0 va)

(* --- warm-started revised simplex --- *)

(* An LP1-shaped builder whose RHS scales with the doubling target
   L_k = 2^(k-2): same variables and rows in the same order at every
   target, so an optimal basis from one target is structurally valid
   for the next — the exact situation {!Plan_cache} replays. *)
let lp1_shape_case seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 2 + Suu_prng.Rng.int rng 4 in
  let n = 2 + Suu_prng.Rng.int rng 6 in
  let a =
    Array.init m (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
  in
  let targets =
    Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:2.0)
  in
  let build scale =
    let p = P.create () in
    let t = P.add_var ~obj:1.0 p in
    let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
    for j = 0 to n - 1 do
      P.add_constraint p
        (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
        P.Ge (targets.(j) *. scale)
    done;
    for i = 0 to m - 1 do
      P.add_constraint p
        ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
        P.Le 0.0
    done;
    p
  in
  build

let prop_warm_matches_cold_doubling =
  QCheck.Test.make ~count:60
    ~name:"warm revised = cold to 1e-9 across a doubling sequence"
    QCheck.small_int (fun seed ->
      let build = lp1_shape_case seed in
      (* L_k = 2^(k-2) for k = 1..6, threading each round's optimal
         basis into the next — round k+1 starts from round k's basis. *)
      let ok = ref true in
      let basis = ref None in
      for k = 1 to 6 do
        let scale = Float.pow 2.0 (float_of_int (k - 2)) in
        let warm_r, out = Rs.solve_basis ?basis:!basis (build scale) in
        let warm, _ = optimal warm_r in
        let cold, _ = optimal (Rs.solve (build scale)) in
        if Float.abs (warm -. cold) > 1e-9 *. Float.max 1.0 cold then
          ok := false;
        if k > 1 && out = None then ok := false;
        basis := out
      done;
      !ok)

let prop_warm_matches_cold_lp2_shape =
  QCheck.Test.make ~count:60
    ~name:"warm revised = cold to 1e-9 on LP2 shapes"
    QCheck.small_int (fun seed ->
      (* LP2's extra structure over LP1: chain-length rows, x <= d
         coupling rows and d >= 1 rows. *)
      let rng = Suu_prng.Rng.create ~seed in
      let m = 2 + Suu_prng.Rng.int rng 3 in
      let n = 2 + Suu_prng.Rng.int rng 4 in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
      in
      let build () =
        let p = P.create () in
        let t = P.add_var ~obj:1.0 p in
        let d = Array.init n (fun _ -> P.add_var p) in
        let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
        for j = 0 to n - 1 do
          P.add_constraint p
            (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
            P.Ge 1.0
        done;
        for i = 0 to m - 1 do
          P.add_constraint p
            ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
            P.Le 0.0
        done;
        (* one chain over all jobs *)
        P.add_constraint p
          ((t, -1.0) :: List.init n (fun j -> (d.(j), 1.0)))
          P.Le 0.0;
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            P.add_constraint p [ (x.(i).(j), 1.0); (d.(j), -1.0) ] P.Le 0.0
          done
        done;
        for j = 0 to n - 1 do
          P.add_constraint p [ (d.(j), 1.0) ] P.Ge 1.0
        done;
        p
      in
      let cold_r, basis = Rs.solve_basis (build ()) in
      let cold, _ = optimal cold_r in
      let warm_r, _ = Rs.solve_basis ?basis (build ()) in
      let warm, _ = optimal warm_r in
      Float.abs (warm -. cold) <= 1e-9 *. Float.max 1.0 cold)

let prop_warm_garbage_basis_harmless =
  QCheck.Test.make ~count:120
    ~name:"a garbage warm basis never changes the answer"
    QCheck.small_int (fun seed ->
      let p () = random_general_lp seed in
      let rng = Suu_prng.Rng.create ~seed:(seed + 7919) in
      let rows = P.num_constraints (p ()) in
      let garbage =
        Array.init
          (max 1 (Suu_prng.Rng.int rng (rows + 2)))
          (fun _ -> Suu_prng.Rng.int rng 50 - 5)
      in
      match (Rs.solve (p ()), Rs.solve_basis ~basis:garbage (p ())) with
      | ( S.Optimal { objective = oa; _ },
          (S.Optimal { objective = ob; x = xb }, _) ) ->
          Float.abs (oa -. ob) < 1e-6 *. Float.max 1.0 (Float.abs oa)
          && P.constraint_violation (p ()) xb < 1e-6
      | S.Infeasible, (S.Infeasible, _) -> true
      | S.Unbounded, (S.Unbounded, _) -> true
      | _, _ -> false)

(* --- sparse pivots vs. the dense oracles --- *)

(* Both exact solvers route every row elimination through
   [Suu_lp.Elim], which skips the columns where the pivot row is zero.
   [Lp_oracles] keeps the full-row solvers it replaced; on every input
   the two must agree on the result variant, the objective, x, the
   duals and the returned basis, bit for bit.  The one freedom the
   kernel has is the sign of a zero (a skipped [-0.0 -. f *. 0.0]), so
   zeros compare equal whatever their sign. *)

let bits v = Int64.bits_of_float (v +. 0.0)

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> bits u = bits v) a b

let same_result r o =
  match (r, o) with
  | ( S.Optimal { objective = a; x = xa },
      S.Optimal { objective = b; x = xb } ) ->
      bits a = bits b && same_floats xa xb
  | S.Infeasible, S.Infeasible
  | S.Unbounded, S.Unbounded
  | S.Iteration_limit, S.Iteration_limit ->
      true
  | _ -> false

(* Random LPs biased toward what stresses an elimination: small integer
   coefficients (exact cancellations, signed zeros), zero right-hand
   sides (degenerate vertices), negative ones (flipped rows), and a mix
   of senses that leaves some problems infeasible or unbounded. *)
let oracle_lp seed =
  let rng = Suu_prng.Rng.create ~seed in
  let nv = 2 + Suu_prng.Rng.int rng 8 in
  let nc = 1 + Suu_prng.Rng.int rng 8 in
  let integral = Suu_prng.Rng.bool rng in
  let coeff lo hi =
    if integral then float_of_int (Suu_prng.Rng.int rng (hi - lo + 1) + lo)
    else Suu_prng.Rng.range rng ~lo:(float_of_int lo) ~hi:(float_of_int hi)
  in
  let p = P.create () in
  let vars = Array.init nv (fun _ -> P.add_var ~obj:(coeff (-2) 3) p) in
  for _ = 1 to nc do
    let terms =
      Array.to_list vars
      |> List.filter (fun _ -> Suu_prng.Rng.int rng 3 > 0)
      |> List.map (fun v -> (v, coeff (-2) 2))
    in
    let terms = if terms = [] then [ (vars.(0), 1.0) ] else terms in
    let sense =
      match Suu_prng.Rng.int rng 3 with 0 -> P.Le | 1 -> P.Ge | _ -> P.Eq
    in
    let rhs =
      match Suu_prng.Rng.int rng 3 with
      | 0 -> 0.0
      | 1 -> -.Float.abs (coeff 1 4)
      | _ -> Float.abs (coeff 1 5)
    in
    P.add_constraint p terms sense rhs
  done;
  p

(* (LP1) and (LP2) of a small generated instance, built the way
   [Suu_core.Lp1] and [Suu_core.Lp2] build them: coverage and
   machine-load rows, and for LP2 also chain-length, x <= d coupling and
   d >= 1 rows. *)
let workload_lp seed =
  let module W = Suu_workload.Workload in
  let module I = Suu_core.Instance in
  let rng = Suu_prng.Rng.create ~seed in
  let m = 2 + Suu_prng.Rng.int rng 3 in
  let n = 3 + Suu_prng.Rng.int rng 9 in
  let hazard = W.Uniform { lo = 0.2; hi = 0.95 } in
  let lp2 = Suu_prng.Rng.bool rng in
  let inst =
    if lp2 then
      W.random_chains hazard ~n ~z:(1 + Suu_prng.Rng.int rng 3) ~m ~seed
    else W.independent hazard ~n ~m ~seed
  in
  let target =
    if lp2 then 1.0
    else Float.pow 2.0 (float_of_int (Suu_prng.Rng.int rng 4 - 1))
  in
  let p = P.create () in
  let t = P.add_var ~obj:1.0 p in
  let d = if lp2 then Array.init n (fun _ -> P.add_var p) else [||] in
  (* (machine, job, variable, clipped log failure) per usable pair *)
  let cells =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            let c = I.clipped_log_failure inst ~target i j in
            if c > 0.0 then Some (i, j, P.add_var p, c) else None)
          (List.init n Fun.id))
      (List.init m Fun.id)
  in
  for j = 0 to n - 1 do
    P.add_constraint p
      (List.filter_map
         (fun (_, j', v, c) -> if j' = j then Some (v, c) else None)
         cells)
      P.Ge target
  done;
  for i = 0 to m - 1 do
    P.add_constraint p
      ((t, -1.0)
      :: List.filter_map
           (fun (i', _, v, _) -> if i' = i then Some (v, 1.0) else None)
           cells)
      P.Le 0.0
  done;
  if lp2 then begin
    (* a chain starts at a job without predecessor and follows the
       unique successors *)
    let g = I.dag inst in
    let rec chain j =
      j :: (match Suu_dag.Dag.succs g j with [ s ] -> chain s | _ -> [])
    in
    List.iter
      (fun h ->
        if Suu_dag.Dag.preds g h = [] then
          P.add_constraint p
            ((t, -1.0) :: List.map (fun j -> (d.(j), 1.0)) (chain h))
            P.Le 0.0)
      (List.init n Fun.id);
    List.iter
      (fun (_, j, v, _) ->
        P.add_constraint p [ (v, 1.0); (d.(j), -1.0) ] P.Le 0.0)
      cells;
    Array.iter (fun dj -> P.add_constraint p [ (dj, 1.0) ] P.Ge 1.0) d
  end;
  p

(* One problem through all paths: the dense tableau (result and duals),
   the cold revised simplex (result and basis), and the revised simplex
   warm-started from that basis, from the optimal basis of the problem
   with its right-hand side halved (the doubling step, which usually
   needs the composite phase-1 repair), and from a garbage basis. *)
let matches_oracles p ~halved ~garbage =
  let dense = S.solve p in
  let dense_o, duals_o = Lp_oracles.Dense.solve_internal p in
  let duals = Option.map (fun d -> d.S.duals) (S.solve_detailed p) in
  let revised_same ?basis () =
    let r, b = Rs.solve_basis ?basis p in
    let ro, bo = Lp_oracles.Revised.solve_basis ?basis p in
    (same_result r ro && b = bo, b)
  in
  let cold_same, cold_basis = revised_same () in
  let _, halved_basis = Rs.solve_basis halved in
  same_result dense dense_o
  && Option.equal same_floats duals duals_o
  && cold_same
  && fst (revised_same ?basis:cold_basis ())
  && fst (revised_same ?basis:halved_basis ())
  && fst (revised_same ~basis:garbage ())

let halve p =
  let h = P.create () in
  let obj = P.objective p in
  Array.iter (fun c -> ignore (P.add_var ~obj:c h)) obj;
  P.iter_constraints p (fun terms sense rhs ->
      P.add_constraint h (Array.to_list terms) sense (rhs /. 2.0));
  h

let prop_sparse_pivots_match_oracles =
  QCheck.Test.make ~count:400 ~name:"sparse pivots = dense oracles"
    QCheck.small_int (fun seed ->
      let p = if seed mod 3 = 0 then workload_lp seed else oracle_lp seed in
      let rng = Suu_prng.Rng.create ~seed:(seed + 104729) in
      (* distinct columns, often a structurally sound basis *)
      let garbage =
        let cols = Array.init (P.num_vars p + P.num_constraints p) Fun.id in
        for i = Array.length cols - 1 downto 1 do
          let j = Suu_prng.Rng.int rng (i + 1) in
          let c = cols.(i) in
          cols.(i) <- cols.(j);
          cols.(j) <- c
        done;
        Array.sub cols 0 (P.num_constraints p)
      in
      matches_oracles p ~halved:(halve p) ~garbage)

(* --- MWU --- *)

let mwu_case seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 2 + Suu_prng.Rng.int rng 4 in
  let n = 2 + Suu_prng.Rng.int rng 6 in
  let a =
    Array.init m (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
  in
  let targets =
    Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:2.0)
  in
  (m, n, a, targets)

let simplex_min_load_cover ~m ~n ~a ~targets =
  let p = P.create () in
  let t = P.add_var ~obj:1.0 p in
  let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
  for j = 0 to n - 1 do
    P.add_constraint p
      (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
      P.Ge targets.(j)
  done;
  for i = 0 to m - 1 do
    P.add_constraint p
      ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
      P.Le 0.0
  done;
  fst (solve_opt p)

let prop_mwu_feasible_and_near_optimal =
  QCheck.Test.make ~count:60 ~name:"MWU covers targets within (1+5eps) of LP"
    QCheck.small_int (fun seed ->
      let m, n, a, targets = mwu_case seed in
      let eps = 0.1 in
      let { Mwu.x; value; lower_bound } =
        Mwu.min_load_cover ~a:(fun i j -> a.(i).(j)) ~m ~n ~targets ~eps
      in
      (* feasibility: every job covered *)
      let covered = ref true in
      for j = 0 to n - 1 do
        let cov = ref 0.0 in
        for i = 0 to m - 1 do
          cov := !cov +. (a.(i).(j) *. x.(i).(j))
        done;
        if !cov < targets.(j) -. 1e-6 then covered := false
      done;
      (* load accounting *)
      let load = ref 0.0 in
      for i = 0 to m - 1 do
        let l = Array.fold_left ( +. ) 0.0 x.(i) in
        if l > !load then load := l
      done;
      let opt = simplex_min_load_cover ~m ~n ~a ~targets in
      !covered
      && Float.abs (!load -. value) < 1e-6
      && value <= ((1.0 +. (5.0 *. eps)) *. opt) +. 1e-6
      && value >= opt -. 1e-6
      (* certificate soundness: the weak-duality bound brackets the true
         optimum from below... *)
      && lower_bound <= opt +. 1e-6
      && lower_bound > 0.0
      (* ...and is tight enough that the (1+5eps) acceptance check the
         serve path performs (Lp1) passes on these instances. *)
      && value <= ((1.0 +. (5.0 *. eps)) *. lower_bound) +. 1e-6)

let test_mwu_validation () =
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Mwu: eps must be in (0, 0.5]") (fun () ->
      ignore
        (Mwu.min_load_cover
           ~a:(fun _ _ -> 1.0)
           ~m:1 ~n:1 ~targets:[| 1.0 |] ~eps:0.9));
  Alcotest.check_raises "empty support"
    (Invalid_argument "Mwu: job with empty support") (fun () ->
      ignore
        (Mwu.min_load_cover
           ~a:(fun _ _ -> 0.0)
           ~m:2 ~n:1 ~targets:[| 1.0 |] ~eps:0.1))

let test_mwu_single () =
  (* One machine, one job: the answer is exactly target / a. *)
  let { Mwu.value; _ } =
    Mwu.min_load_cover
      ~a:(fun _ _ -> 0.5)
      ~m:1 ~n:1 ~targets:[| 2.0 |] ~eps:0.05
  in
  Alcotest.(check bool)
    (Printf.sprintf "value %.4f in [4, 4*1.3]" value)
    true
    (value >= 4.0 -. 1e-9 && value <= 4.0 *. 1.3)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "trivial min" `Quick test_trivial_min;
          Alcotest.test_case "two-var max" `Quick test_two_var_max;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "degenerate (Beale)" `Quick test_degenerate_beale;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "duplicate terms" `Quick
            test_duplicate_terms_merged;
          Alcotest.test_case "zero-rhs >=" `Quick test_zero_rhs_ge;
          Alcotest.test_case "solve_exn" `Quick test_solve_exn_raises;
        ] );
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "objective eval" `Quick test_objective_value;
        ] );
      ( "duals",
        [
          Alcotest.test_case "known" `Quick test_duals_known;
          Alcotest.test_case "infeasible" `Quick
            test_duals_none_when_infeasible;
        ] );
      ( "revised-simplex",
        [
          Alcotest.test_case "known cases" `Quick test_revised_known_cases;
          Alcotest.test_case "infeasible/unbounded" `Quick
            test_revised_infeasible_unbounded;
          Alcotest.test_case "degenerate (Beale)" `Quick test_revised_beale;
        ] );
      ( "mwu",
        [
          Alcotest.test_case "validation" `Quick test_mwu_validation;
          Alcotest.test_case "single pair" `Quick test_mwu_single;
        ] );
      ( "properties",
        [
          q prop_transportation;
          q prop_min_load_cover_feasible;
          q prop_strong_duality;
          q prop_revised_matches_tableau;
          q prop_revised_matches_on_lp1_shape;
          q prop_warm_matches_cold_doubling;
          q prop_warm_matches_cold_lp2_shape;
          q prop_warm_garbage_basis_harmless;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            prop_sparse_pivots_match_oracles;
          q prop_mwu_feasible_and_near_optimal;
        ] );
    ]
