(* End-to-end tests of the paper's algorithms as executable policies:
   SUU-I-OBL, SUU-I-SEM, SUU-C (with its internal invariants), SUU-T,
   the baselines, and the Auto dispatcher.  The strict engine doubles as
   an invariant checker: any ineligible assignment raises. *)

module Dag = Suu_dag.Dag
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Runner = Suu_sim.Runner
module Engine = Suu_sim.Engine
module Trace = Suu_sim.Trace
module W = Suu_workload.Workload
module Rng = Suu_prng.Rng

let uniform = W.Uniform { lo = 0.2; hi = 0.95 }

let completes ?(cap = 200_000) ?(reps = 3) inst policy =
  (* Runs to completion without Invalid_schedule / Horizon_exceeded. *)
  let xs = Runner.makespans ~cap inst policy ~seed:99 ~reps in
  Array.for_all (fun x -> x >= 0.0) xs

(* --- SUU-I-OBL --- *)

let test_obl_plan_properties () =
  let inst = W.independent uniform ~n:12 ~m:4 ~seed:1 in
  let plan = Suu_core.Suu_i_obl.plan inst in
  Alcotest.(check bool)
    "positive horizon" true
    (Suu_core.Oblivious.horizon plan >= 1)

let test_obl_completes_all_hazards () =
  List.iter
    (fun hazard ->
      let inst = W.independent hazard ~n:10 ~m:4 ~seed:2 in
      Alcotest.(check bool)
        (W.hazard_name hazard) true
        (completes inst (Suu_core.Suu_i_obl.policy inst)))
    W.default_hazards

(* Each full pass of the OBL plan gives every job failure probability at
   most 2^(-1/2): makespan should concentrate around O(log n) passes. *)
let test_obl_makespan_sane () =
  let inst = W.independent uniform ~n:16 ~m:4 ~seed:3 in
  let plan = Suu_core.Suu_i_obl.plan inst in
  let h = float_of_int (Suu_core.Oblivious.horizon plan) in
  let mk =
    Runner.expected_makespan inst (Suu_core.Suu_i_obl.policy inst) ~seed:4
      ~reps:20
  in
  (* crude: no more than ~4 log2 n passes on average *)
  Alcotest.(check bool)
    (Printf.sprintf "mk %.1f <= %.1f" mk (4.0 *. h *. 4.0))
    true
    (mk <= 4.0 *. h *. 4.0)

(* --- SUU-I-SEM --- *)

let test_sem_completes_all_hazards () =
  List.iter
    (fun hazard ->
      let inst = W.independent hazard ~n:10 ~m:4 ~seed:5 in
      Alcotest.(check bool)
        (W.hazard_name hazard) true
        (completes inst (Suu_core.Suu_i_sem.policy inst)))
    W.default_hazards

let test_sem_with_mwu_solver () =
  let inst = W.independent uniform ~n:12 ~m:4 ~seed:6 in
  Alcotest.(check bool)
    "mwu-backed SEM completes" true
    (completes inst
       (Suu_core.Suu_i_sem.policy ~solver:(Suu_core.Solver_choice.Mwu 0.1)
          inst))

let test_sem_subset () =
  (* SEM restricted to a subset must leave other jobs untouched: running
     it alone can never finish, so give the subset all the work. *)
  let inst = W.independent uniform ~n:6 ~m:3 ~seed:7 in
  let sem = Suu_core.Suu_i_sem.policy ~jobs:[| 0; 2; 4 |] inst in
  let stepper = Policy.fresh sem (Rng.create ~seed:1) in
  let remaining = Array.make 6 true in
  let eligible = Array.make 6 true in
  for time = 0 to 50 do
    let a = stepper ~time ~remaining ~eligible in
    Array.iter
      (fun j ->
        Alcotest.(check bool)
          "only scoped jobs" true
          (j = -1 || j = 0 || j = 2 || j = 4))
      a
  done

let test_sem_serial_tail_small_n () =
  (* n <= m: after K rounds survivors run serially.  Force survivors with
     huge thresholds (adversarial trace): must still complete. *)
  let inst = W.independent uniform ~n:3 ~m:6 ~seed:8 in
  let trace = Trace.of_thresholds [| 40.0; 45.0; 50.0 |] in
  let mk =
    Engine.makespan ~cap:200_000 inst (Suu_core.Suu_i_sem.policy inst) ~trace
      ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check bool) "finished" true (mk > 0)

let test_sem_repeat_tail_large_n () =
  (* m < n: after K rounds the round-K plan repeats. *)
  let inst = W.independent uniform ~n:8 ~m:2 ~seed:9 in
  let trace =
    Trace.of_thresholds (Array.init 8 (fun j -> 30.0 +. float_of_int j))
  in
  let mk =
    Engine.makespan ~cap:400_000 inst (Suu_core.Suu_i_sem.policy inst) ~trace
      ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check bool) "finished" true (mk > 0)

(* --- round-plan caching --- *)

let plans_equal a b =
  let module O = Suu_core.Oblivious in
  O.horizon a = O.horizon b
  && O.machines a = O.machines b
  && (let ok = ref true in
      for k = 0 to O.horizon a - 1 do
        ok := !ok && O.assignment_at a k = O.assignment_at b k
      done;
      !ok)

let test_plan_cache_matches_fresh () =
  let module PC = Suu_core.Plan_cache in
  let inst = W.independent uniform ~n:10 ~m:4 ~seed:23 in
  let cache = PC.create inst in
  let all = Array.init 10 Fun.id in
  let some = [| 1; 4; 5; 8 |] in
  List.iter
    (fun (round, survivors) ->
      let cached = PC.plan cache ~round ~survivors in
      let again = PC.plan cache ~round ~survivors in
      Alcotest.(check bool) "second lookup hits (same plan)" true
        (cached == again);
      let fresh = PC.fresh_plan inst ~round ~survivors in
      Alcotest.(check bool) "cached plan equals a fresh solve" true
        (plans_equal cached fresh))
    [ (1, all); (2, all); (1, some); (3, some) ];
  let s = PC.stats cache in
  Alcotest.(check int) "4 misses" 4 s.PC.misses;
  Alcotest.(check int) "4 hits" 4 s.PC.hits;
  Alcotest.(check int) "no evictions" 0 s.PC.evictions

let test_plan_cache_distinguishes_keys () =
  let module PC = Suu_core.Plan_cache in
  let inst = W.independent uniform ~n:8 ~m:3 ~seed:24 in
  let cache = PC.create inst in
  let a = PC.plan cache ~round:1 ~survivors:[| 0; 1; 2 |] in
  let b = PC.plan cache ~round:2 ~survivors:[| 0; 1; 2 |] in
  let c = PC.plan cache ~round:1 ~survivors:[| 0; 1; 3 |] in
  Alcotest.(check bool) "round is part of the key" true (not (a == b));
  Alcotest.(check bool) "survivors are part of the key" true (not (a == c));
  Alcotest.(check bool) "empty survivors rejected" true
    (try
       ignore (PC.plan cache ~round:1 ~survivors:[||]);
       false
     with Invalid_argument _ -> true)

(* A key insertion copies the survivor array: mutating the caller's
   array afterwards must not corrupt the cache. *)
let test_plan_cache_key_isolation () =
  let module PC = Suu_core.Plan_cache in
  let inst = W.independent uniform ~n:8 ~m:3 ~seed:25 in
  let cache = PC.create inst in
  let survivors = [| 0; 1; 2 |] in
  let a = PC.plan cache ~round:1 ~survivors in
  survivors.(0) <- 5;
  let b = PC.plan cache ~round:1 ~survivors:[| 0; 1; 2 |] in
  Alcotest.(check bool) "original key still hits" true (a == b)

(* Past the entry bound the cache must keep absorbing new keys by
   evicting the oldest half, not stop inserting: a long-lived daemon
   otherwise degrades to one LP solve per request. *)
let test_plan_cache_eviction () =
  let module PC = Suu_core.Plan_cache in
  let inst = W.independent uniform ~n:12 ~m:3 ~seed:26 in
  let cap = 6 in
  let cache = PC.create ~max_entries:cap inst in
  (* 12 distinct singleton survivor sets: twice the capacity. *)
  for j = 0 to 11 do
    ignore (PC.plan cache ~round:1 ~survivors:[| j |])
  done;
  let s = PC.stats cache in
  Alcotest.(check int) "all lookups missed" 12 s.PC.misses;
  Alcotest.(check bool)
    (Printf.sprintf "evictions happened (%d)" s.PC.evictions)
    true (s.PC.evictions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "size %d stays within bound" (PC.size cache))
    true
    (PC.size cache <= cap);
  (* The newest key must still be resident (FIFO evicts the oldest). *)
  let before = (PC.stats cache).PC.hits in
  ignore (PC.plan cache ~round:1 ~survivors:[| 11 |]);
  Alcotest.(check int) "newest key hits" (before + 1) (PC.stats cache).PC.hits;
  (* And a key evicted long ago re-solves to an identical plan. *)
  let again = PC.plan cache ~round:1 ~survivors:[| 0 |] in
  let fresh = PC.fresh_plan inst ~round:1 ~survivors:[| 0 |] in
  Alcotest.(check bool) "re-solved plan identical" true (plans_equal again fresh);
  Alcotest.(check bool) "max_entries must be positive" true
    (try
       ignore (PC.create ~max_entries:0 inst);
       false
     with Invalid_argument _ -> true)

(* Regression for the serve-bench miss storm: the old cache evicted in
   insertion order, so the {e hottest} entries (inserted first, hit on
   every subsequent request) were exactly the ones dropped when churn
   filled the table.  Eviction must be recency-based: a key touched
   between churn batches survives a churn of more than [capacity]
   distinct cold keys. *)
let test_plan_cache_lru_keeps_hot_keys () =
  let module PC = Suu_core.Plan_cache in
  let inst = W.independent uniform ~n:16 ~m:3 ~seed:27 in
  let cache = PC.create ~max_entries:8 inst in
  let hot = [| 0; 1 |] in
  ignore (PC.plan cache ~round:1 ~survivors:hot);
  (* Churn 12 > capacity distinct cold keys, touching the hot key
     between batches the way the serve path re-requests round-1 plans
     on every replication. *)
  for j = 2 to 13 do
    ignore (PC.plan cache ~round:1 ~survivors:[| j |]);
    if j mod 3 = 0 then ignore (PC.plan cache ~round:1 ~survivors:hot)
  done;
  let before = (PC.stats cache).PC.hits in
  ignore (PC.plan cache ~round:1 ~survivors:hot);
  Alcotest.(check int) "hot key still resident after churn" (before + 1)
    (PC.stats cache).PC.hits;
  Alcotest.(check bool) "evictions did happen" true
    ((PC.stats cache).PC.evictions > 0)

(* Two handles onto the same (instance, solver) share the process-wide
   store: work done through one is a hit through the other.  This is
   the fix for the old per-policy caches re-solving identical LPs. *)
let test_plan_cache_global_sharing () =
  let module PC = Suu_core.Plan_cache in
  let inst = W.independent uniform ~n:9 ~m:3 ~seed:28 in
  let a = PC.create inst in
  let b = PC.create inst in
  let survivors = [| 0; 2; 4; 6 |] in
  let pa = PC.plan a ~round:2 ~survivors in
  let pb = PC.plan b ~round:2 ~survivors in
  Alcotest.(check bool) "handles share the physical plan" true (pa == pb);
  Alcotest.(check int) "first handle missed" 1 (PC.stats a).PC.misses;
  Alcotest.(check int) "second handle hit" 1 (PC.stats b).PC.hits;
  Alcotest.(check bool) "hit_rate reflects per-handle traffic" true
    (PC.hit_rate (PC.stats b) = 1.0 && PC.hit_rate (PC.stats a) = 0.0);
  (* A different solver must not share plans: solver is plan identity. *)
  let c = PC.create ~solver:Suu_core.Solver_choice.Revised inst in
  let pc = PC.plan c ~round:2 ~survivors in
  Alcotest.(check int) "different solver misses" 1 (PC.stats c).PC.misses;
  Alcotest.(check bool) "but computes an equivalent plan" true
    (plans_equal pa pc)

let test_sem_beats_obl_near_one () =
  (* The doubling rounds should not lose to plain repetition on hazard
     rates near 1 (where repetitions pile up). *)
  let inst = W.independent W.Near_one ~n:40 ~m:8 ~seed:10 in
  let sem =
    Runner.expected_makespan inst (Suu_core.Suu_i_sem.policy inst) ~seed:11
      ~reps:8
  in
  let obl =
    Runner.expected_makespan inst (Suu_core.Suu_i_obl.policy inst) ~seed:11
      ~reps:8
  in
  Alcotest.(check bool)
    (Printf.sprintf "sem %.1f <= 1.5 * obl %.1f" sem obl)
    true
    (sem <= 1.5 *. obl)

(* Statistical regression guard on the guarantee itself: on tiny random
   instances SUU-I-SEM's measured expected makespan stays within a
   generous constant of the exact optimum (the theory allows O(K) with
   K = 4 here; the observed constant is ~2-3, we assert < 8). *)
let prop_sem_ratio_bounded_vs_opt =
  QCheck.Test.make ~count:15 ~name:"SEM within 8x of exact optimum"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let n = 2 + Suu_prng.Rng.int rng 3 in
      let m = 1 + Suu_prng.Rng.int rng 2 in
      let q =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.2 ~hi:0.9))
      in
      let inst = Instance.make ~dag:(Suu_dag.Dag.empty n) q in
      let opt = Suu_core.Exact_dp.expected_makespan inst in
      let sem =
        Runner.expected_makespan inst (Suu_core.Suu_i_sem.policy inst)
          ~seed ~reps:300
      in
      sem /. opt < 8.0)

(* --- baselines --- *)

let test_baselines_complete () =
  let inst = W.independent uniform ~n:10 ~m:3 ~seed:12 in
  List.iter
    (fun p -> Alcotest.(check bool) (Policy.name p) true (completes inst p))
    [
      Suu_core.Baselines.greedy_completion inst;
      Suu_core.Baselines.round_robin inst;
      Suu_core.Baselines.serial inst;
    ]

let test_baselines_respect_precedence () =
  let inst = W.chains uniform ~z:3 ~length:4 ~m:3 ~seed:13 in
  List.iter
    (fun p -> Alcotest.(check bool) (Policy.name p) true (completes inst p))
    [
      Suu_core.Baselines.greedy_completion inst;
      Suu_core.Baselines.round_robin inst;
      Suu_core.Baselines.serial inst;
    ]

(* --- online steppers vs. their list-based oracles --- *)

(* A random instance of the given shape over the jobs in a random order
   [perm], so chains and trees are not index-contiguous; every edge joins
   two positions of [perm] in one direction (an in-forest's all point
   back), so the graph is acyclic.  Half the
   instances draw q from {0, 0.25, 0.5, 1} (ties everywhere), half from
   (0.05, 0.95); an all-ones column gets one 0.5. *)
let random_online_instance rng ~shape ~n ~m =
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let edges = ref [] in
  let edge a b = edges := (perm.(a), perm.(b)) :: !edges in
  let inward = Rng.bool rng in
  for p = 1 to n - 1 do
    match shape with
    | `Independent -> ()
    | `Chains -> if Rng.int rng 10 > 0 then edge (p - 1) p
    | `Forest ->
        if Rng.int rng 5 > 0 then begin
          let parent = Rng.int rng p in
          if inward then edge p parent else edge parent p
        end
    | `General ->
        for _ = 1 to Rng.int rng 4 do
          edge (Rng.int rng p) p
        done
  done;
  let ties = Rng.bool rng in
  let levels = [| 0.0; 0.25; 0.5; 1.0 |] in
  let q =
    Array.init m (fun _ ->
        Array.init n (fun _ ->
            if ties then levels.(Rng.int rng 4)
            else Rng.range rng ~lo:0.05 ~hi:0.95))
  in
  for j = 0 to n - 1 do
    if Array.for_all (fun row -> row.(j) >= 1.0) q then
      q.(Rng.int rng m).(j) <- 0.5
  done;
  Instance.make ~dag:(Dag.of_edges ~n !edges) q

let prop_online_oracles =
  let shapes = [| `Independent; `Chains; `Forest; `General |] in
  QCheck.Test.make ~count:200 ~name:"steppers match list-based oracles"
    QCheck.(triple (int_bound 3) (int_range 150 400) small_nat)
    (fun (s, n, seed) ->
      let rng = Rng.create ~seed:(seed + (1000 * s) + n) in
      let m = 1 + Rng.int rng 8 in
      let inst = random_online_instance rng ~shape:shapes.(s) ~n ~m in
      List.for_all
        (fun (oracle, stepper) ->
          List.for_all
            (fun rep ->
              let trace = Trace.draw ~n (Rng.create ~seed:(seed + rep)) in
              let run p =
                Engine.run_recorded inst p ~trace
                  ~rng:(Rng.create ~seed:(seed + rep + 7))
              in
              run (oracle inst) = run (stepper inst))
            [ 0; 1 ])
        [
          (Online_oracles.greedy_completion, Suu_core.Baselines.greedy_completion);
          (Online_oracles.serial, Suu_core.Baselines.serial);
          (Online_oracles.round_robin, Suu_core.Baselines.round_robin);
        ])

(* The property must exercise greedy's exact scan past its top-K
   ranking, not only the prefix. *)
let test_online_oracles () =
  let fallbacks () =
    Suu_obs.Counter.get (Suu_obs.Registry.counter "greedy.fallbacks")
  in
  let before = fallbacks () in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |]) prop_online_oracles;
  Alcotest.(check bool) "greedy fallback ran" true (fallbacks () > before)

(* Schedules pinned before the steppers were rewritten: [Runner.makespans]
   (seed 5, 4 reps) and the MD5 of one [run_recorded] assignment matrix
   (trace seed 17, policy seed 18), per (shape, policy).  A stepper change
   that moves any schedule fails here.  Each job is made incapable
   (q = 1) on about half the machines, so backfill's widths differ and
   its reservation shadow decides some starts. *)
let masked inst ~seed =
  let rng = Rng.create ~seed in
  let m = Instance.m inst and n = Instance.n inst in
  let q = Array.init m (fun i -> Array.init n (fun j -> Instance.q inst i j)) in
  for j = 0 to n - 1 do
    let keep = Rng.int rng m in
    for i = 0 to m - 1 do
      if i <> keep && Rng.bool rng then q.(i).(j) <- 1.0
    done
  done;
  Instance.make ~dag:(Instance.dag inst) q

let golden_instances =
  [
    ("independent", masked (W.independent uniform ~n:300 ~m:8 ~seed:21) ~seed:31);
    ("chains", masked (W.random_chains uniform ~n:160 ~z:10 ~m:6 ~seed:22) ~seed:32);
    ( "forest",
      masked
        (W.forest uniform ~n:120 ~trees:6 ~orientation:`Mixed ~m:5 ~seed:23)
        ~seed:33 );
  ]

let golden =
  [
    ("independent", "greedy", [| 68; 66; 61; 74 |], "02b3c3362976090beba8f08f594778a3");
    ("independent", "serial", [| 353; 351; 333; 350 |], "eae97da0bc1a99be5c051712275cb85e");
    ("independent", "round-robin", [| 192; 185; 171; 196 |], "81e089f59c39fabe38efe935fbbd566d");
    ("independent", "lzf", [| 79; 78; 71; 87 |], "c1d49263ff3ea42cd9e4d5280c89dcf6");
    ("independent", "backfill", [| 183; 184; 174; 175 |], "02f8e0f8789936fa6fa23a000bfab7f3");
    ("chains", "greedy", [| 102; 88; 97; 90 |], "da087cf9b15b31d9220a290d642ceb3d");
    ("chains", "serial", [| 230; 195; 210; 199 |], "74131e92b61af433d2c8badd97aa9c7b");
    ("chains", "round-robin", [| 166; 136; 143; 136 |], "892f13acbf4159b2b46d0d4bee12adc9");
    ("chains", "lzf", [| 98; 91; 97; 95 |], "a81baa5017a169aed31dcba811e77f6f");
    ("chains", "backfill", [| 168; 136; 153; 150 |], "6a33322efaf0f56ee40aaeff8cd76fa5");
    ("forest", "greedy", [| 55; 73; 66; 58 |], "92e75b411a20f0be26ad559fab016e96");
    ("forest", "serial", [| 173; 203; 189; 174 |], "6d9e61eb3019db66cbf07062961f117e");
    ("forest", "round-robin", [| 128; 159; 141; 121 |], "ddfe8b3e36b6f35305ca680edbb6a265");
    ("forest", "lzf", [| 63; 78; 66; 64 |], "db1c6dba6aa887ef271a7df8796f4186");
    ("forest", "backfill", [| 96; 107; 97; 102 |], "78391356cdd759e80ecbd0e188db5896");
  ]

let golden_policy name inst =
  match name with
  | "greedy" -> Suu_core.Baselines.greedy_completion inst
  | "serial" -> Suu_core.Baselines.serial inst
  | "round-robin" -> Suu_core.Baselines.round_robin inst
  | "lzf" -> Suu_sched.Lzf.policy inst
  | "backfill" -> Suu_sched.Backfill.policy inst
  | _ -> invalid_arg name

let matrix_digest steps =
  let b = Buffer.create 4096 in
  Array.iter
    (fun row ->
      Array.iter
        (fun j ->
          Buffer.add_string b (string_of_int j);
          Buffer.add_char b ',')
        row;
      Buffer.add_char b '\n')
    steps;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_schedules () =
  List.iter
    (fun (shape, pname, mks, md5) ->
      let inst = List.assoc shape golden_instances in
      let p = golden_policy pname inst in
      let what = shape ^ " " ^ pname in
      Alcotest.(check (array int))
        (what ^ " makespans") mks
        (Array.map int_of_float (Runner.makespans inst p ~seed:5 ~reps:4));
      let trace = Trace.draw ~n:(Instance.n inst) (Rng.create ~seed:17) in
      let _, steps = Engine.run_recorded inst p ~trace ~rng:(Rng.create ~seed:18) in
      Alcotest.(check string) (what ^ " assignment md5") md5 (matrix_digest steps))
    golden

let test_greedy_oblivious_coverage () =
  (* The LP-free assignment must reach the target mass on every job. *)
  let inst = W.independent uniform ~n:12 ~m:4 ~seed:40 in
  let a = Suu_core.Baselines.greedy_oblivious_assignment inst in
  for j = 0 to 11 do
    Alcotest.(check bool)
      "covered" true
      (Suu_core.Assignment.clipped_log_mass inst ~target:0.5 a j
      >= 0.5 -. 1e-9)
  done

let test_greedy_oblivious_completes () =
  List.iter
    (fun hazard ->
      let inst = W.independent hazard ~n:10 ~m:4 ~seed:41 in
      Alcotest.(check bool)
        (W.hazard_name hazard) true
        (completes inst (Suu_core.Baselines.greedy_oblivious inst)))
    W.default_hazards

let test_greedy_oblivious_custom_target () =
  let inst = W.independent uniform ~n:6 ~m:3 ~seed:42 in
  let a =
    Suu_core.Baselines.greedy_oblivious_assignment ~target:2.0 inst
  in
  for j = 0 to 5 do
    Alcotest.(check bool)
      "covered at 2.0" true
      (Suu_core.Assignment.clipped_log_mass inst ~target:2.0 a j
      >= 2.0 -. 1e-9)
  done

(* --- SUU-C --- *)

let test_suu_c_prepare_invariants () =
  let inst = W.chains uniform ~z:4 ~length:5 ~m:4 ~seed:14 in
  let chains =
    match Suu_dag.Chains.of_dag (Instance.dag inst) with
    | Some c -> c
    | None -> Alcotest.fail "not chains"
  in
  let prep = Suu_core.Suu_c.prepare inst ~chains in
  Alcotest.(check bool) "gamma >= 1" true (prep.Suu_core.Suu_c.gamma >= 1);
  Alcotest.(check bool) "load >= 1" true (prep.Suu_core.Suu_c.load >= 1);
  (* every job got its unit of (clipped) log mass *)
  for j = 0 to Instance.n inst - 1 do
    Alcotest.(check bool)
      "unit mass" true
      (Suu_core.Assignment.clipped_log_mass inst ~target:1.0
         prep.Suu_core.Suu_c.assignment j
      >= 1.0 -. 1e-6)
  done;
  (* long jobs really are longer than gamma *)
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "long means long" true
        (Suu_core.Assignment.job_length prep.Suu_core.Suu_c.assignment j
        > prep.Suu_core.Suu_c.gamma))
    prep.Suu_core.Suu_c.long_jobs

let prop_suu_c_prepare_invariants =
  QCheck.Test.make ~count:30 ~name:"prepare invariants on random chains"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let z = 2 + Suu_prng.Rng.int rng 4 in
      let len = 2 + Suu_prng.Rng.int rng 4 in
      let m = 2 + Suu_prng.Rng.int rng 3 in
      let inst = W.chains uniform ~z ~length:len ~m ~seed in
      let chains =
        match Suu_dag.Chains.of_dag (Instance.dag inst) with
        | Some c -> c
        | None -> assert false
      in
      let prep = Suu_core.Suu_c.prepare inst ~chains in
      let open Suu_core.Suu_c in
      prep.gamma >= 1 && prep.load >= 1
      && List.for_all
           (fun j ->
             Suu_core.Assignment.job_length prep.assignment j > prep.gamma)
           prep.long_jobs
      && List.for_all
           (fun chain ->
             Array.for_all
               (fun j ->
                 Suu_core.Assignment.clipped_log_mass inst ~target:1.0
                   prep.assignment j
                 >= 1.0 -. 1e-6)
               chain)
           chains)

let test_suu_c_completes () =
  List.iter
    (fun hazard ->
      let inst = W.chains hazard ~z:3 ~length:4 ~m:3 ~seed:15 in
      Alcotest.(check bool)
        (W.hazard_name hazard) true
        (completes inst (Suu_core.Suu_c.policy inst)))
    W.default_hazards

let test_suu_c_random_lengths () =
  let inst = W.random_chains uniform ~n:14 ~z:4 ~m:3 ~seed:16 in
  Alcotest.(check bool)
    "completes" true
    (completes inst (Suu_core.Suu_c.policy inst))

let test_suu_c_stats_populated () =
  let inst = W.chains uniform ~z:3 ~length:4 ~m:3 ~seed:17 in
  let stats = Suu_core.Suu_c.new_stats () in
  let p = Suu_core.Suu_c.policy ~stats inst in
  let _ = Runner.makespans inst p ~seed:18 ~reps:2 in
  Alcotest.(check bool)
    "supersteps counted" true
    (stats.Suu_core.Suu_c.supersteps > 0);
  Alcotest.(check bool)
    "congestion seen" true
    (stats.Suu_core.Suu_c.max_congestion >= 1);
  Alcotest.(check bool)
    "total >= max" true
    (stats.Suu_core.Suu_c.total_congestion
    >= stats.Suu_core.Suu_c.max_congestion)

let test_suu_c_no_delays_option () =
  let inst = W.chains uniform ~z:3 ~length:4 ~m:3 ~seed:19 in
  Alcotest.(check bool)
    "completes without delays" true
    (completes inst (Suu_core.Suu_c.policy ~random_delays:false inst))

let test_suu_c_delay_granularity () =
  (* Coarse delay lattices (the nonpolynomial-t_LP2 device) still yield
     complete, valid schedules. *)
  let inst = W.chains uniform ~z:4 ~length:4 ~m:3 ~seed:43 in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "granularity %d" g)
        true
        (completes inst (Suu_core.Suu_c.policy ~delay_granularity:g inst)))
    [ 1; 2; 5; 1000 ];
  Alcotest.(check bool)
    "rejects granularity 0" true
    (try
       ignore (Suu_core.Suu_c.policy ~delay_granularity:0 inst);
       false
     with Invalid_argument _ -> true)

let test_suu_c_rejects_non_chains () =
  let inst = W.forest uniform ~n:8 ~trees:2 ~orientation:`Out ~m:3 ~seed:20 in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Suu_core.Suu_c.policy inst);
       false
     with Invalid_argument _ -> true)

let test_suu_c_singleton_chains_only () =
  (* Chains that are all singletons degenerate to independent jobs. *)
  let inst = W.independent uniform ~n:6 ~m:3 ~seed:21 in
  let chains = List.init 6 (fun j -> [| j |]) in
  let prep = Suu_core.Suu_c.prepare inst ~chains in
  let p = Suu_core.Suu_c.policy_of_prepared inst prep in
  Alcotest.(check bool) "completes" true (completes inst p)

let test_suu_c_long_job_path () =
  (* Specialists hazard with few machines forces long assignments, so the
     pause/SEM machinery actually runs. *)
  let inst =
    W.chains (W.Specialists { capable = 1 }) ~z:2 ~length:6 ~m:2 ~seed:22
  in
  let stats = Suu_core.Suu_c.new_stats () in
  let p = Suu_core.Suu_c.policy ~stats inst in
  Alcotest.(check bool) "completes" true (completes ~cap:400_000 inst p)

(* --- SUU-T --- *)

let test_suu_t_completes () =
  List.iter
    (fun orientation ->
      let inst = W.forest uniform ~n:12 ~trees:3 ~orientation ~m:3 ~seed:23 in
      Alcotest.(check bool)
        "completes" true
        (completes inst (Suu_core.Suu_t.policy inst)))
    [ `Out; `In; `Mixed ]

let test_suu_t_rejects_general () =
  let inst = W.mapreduce uniform ~maps:3 ~reduces:3 ~m:3 ~seed:24 in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Suu_core.Suu_t.policy inst);
       false
     with Invalid_argument _ -> true)

(* --- Auto --- *)

let test_auto_dispatch_names () =
  let ind = W.independent uniform ~n:4 ~m:2 ~seed:25 in
  let ch = W.chains uniform ~z:2 ~length:2 ~m:2 ~seed:25 in
  let fo = W.forest uniform ~n:6 ~trees:2 ~orientation:`Out ~m:2 ~seed:25 in
  let mr = W.mapreduce uniform ~maps:2 ~reduces:2 ~m:2 ~seed:25 in
  Alcotest.(check string) "independent" "suu-i-sem"
    (Policy.name (Suu_core.Auto.policy ind));
  Alcotest.(check string) "chains" "suu-c"
    (Policy.name (Suu_core.Auto.policy ch));
  Alcotest.(check string) "forest" "suu-t"
    (Policy.name (Suu_core.Auto.policy fo));
  Alcotest.(check string) "general" "greedy(general-dag)"
    (Policy.name (Suu_core.Auto.policy mr))

let test_auto_completes_each_shape () =
  let insts =
    [
      W.independent uniform ~n:6 ~m:3 ~seed:26;
      W.chains uniform ~z:2 ~length:3 ~m:3 ~seed:26;
      W.forest uniform ~n:7 ~trees:2 ~orientation:`Mixed ~m:3 ~seed:26;
      W.mapreduce uniform ~maps:3 ~reduces:2 ~m:3 ~seed:26;
    ]
  in
  List.iter
    (fun inst ->
      Alcotest.(check bool)
        (Instance.name inst) true
        (completes inst (Suu_core.Auto.policy inst)))
    insts

(* --- paired traces --- *)

let test_paired_traces_identical () =
  (* Same seed means the same hidden thresholds for both policies. *)
  let inst = W.independent uniform ~n:8 ~m:3 ~seed:27 in
  let a = Runner.makespans inst (Suu_core.Baselines.serial inst) ~seed:1 ~reps:5 in
  let b = Runner.makespans inst (Suu_core.Baselines.serial inst) ~seed:1 ~reps:5 in
  Alcotest.(check bool) "reproducible" true (a = b)

let () =
  Alcotest.run "policies"
    [
      ( "suu-i-obl",
        [
          Alcotest.test_case "plan" `Quick test_obl_plan_properties;
          Alcotest.test_case "all hazards" `Slow
            test_obl_completes_all_hazards;
          Alcotest.test_case "makespan sane" `Slow test_obl_makespan_sane;
        ] );
      ( "suu-i-sem",
        [
          Alcotest.test_case "all hazards" `Slow
            test_sem_completes_all_hazards;
          Alcotest.test_case "mwu backend" `Quick test_sem_with_mwu_solver;
          Alcotest.test_case "subset scope" `Quick test_sem_subset;
          Alcotest.test_case "serial tail" `Quick
            test_sem_serial_tail_small_n;
          Alcotest.test_case "repeat tail" `Quick
            test_sem_repeat_tail_large_n;
          Alcotest.test_case "near-one vs obl" `Slow
            test_sem_beats_obl_near_one;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "cached equals fresh" `Quick
            test_plan_cache_matches_fresh;
          Alcotest.test_case "key discrimination" `Quick
            test_plan_cache_distinguishes_keys;
          Alcotest.test_case "key isolation" `Quick
            test_plan_cache_key_isolation;
          Alcotest.test_case "eviction" `Quick test_plan_cache_eviction;
          Alcotest.test_case "LRU keeps hot keys" `Quick
            test_plan_cache_lru_keeps_hot_keys;
          Alcotest.test_case "global sharing" `Quick
            test_plan_cache_global_sharing;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "complete" `Quick test_baselines_complete;
          Alcotest.test_case "precedence" `Quick
            test_baselines_respect_precedence;
          Alcotest.test_case "greedy-oblivious coverage" `Quick
            test_greedy_oblivious_coverage;
          Alcotest.test_case "greedy-oblivious completes" `Slow
            test_greedy_oblivious_completes;
          Alcotest.test_case "greedy-oblivious target" `Quick
            test_greedy_oblivious_custom_target;
          Alcotest.test_case "online oracles" `Quick test_online_oracles;
          Alcotest.test_case "golden schedules" `Quick test_golden_schedules;
        ] );
      ( "suu-c",
        [
          Alcotest.test_case "prepare invariants" `Quick
            test_suu_c_prepare_invariants;
          QCheck_alcotest.to_alcotest prop_suu_c_prepare_invariants;
          Alcotest.test_case "all hazards" `Slow test_suu_c_completes;
          Alcotest.test_case "random lengths" `Quick
            test_suu_c_random_lengths;
          Alcotest.test_case "stats" `Quick test_suu_c_stats_populated;
          Alcotest.test_case "no delays" `Quick test_suu_c_no_delays_option;
          Alcotest.test_case "delay granularity" `Quick
            test_suu_c_delay_granularity;
          Alcotest.test_case "rejects non-chains" `Quick
            test_suu_c_rejects_non_chains;
          Alcotest.test_case "singleton chains" `Quick
            test_suu_c_singleton_chains_only;
          Alcotest.test_case "long jobs" `Slow test_suu_c_long_job_path;
        ] );
      ( "suu-t",
        [
          Alcotest.test_case "completes" `Slow test_suu_t_completes;
          Alcotest.test_case "rejects general" `Quick
            test_suu_t_rejects_general;
        ] );
      ( "auto",
        [
          Alcotest.test_case "dispatch" `Quick test_auto_dispatch_names;
          Alcotest.test_case "completes" `Slow test_auto_completes_each_shape;
        ] );
      ( "pairing",
        [
          Alcotest.test_case "reproducible" `Quick
            test_paired_traces_identical;
        ] );
      ( "guarantees",
        [ QCheck_alcotest.to_alcotest prop_sem_ratio_bounded_vs_opt ] );
      ( "scale",
        [
          Alcotest.test_case "SEM at n=512 via MWU" `Slow (fun () ->
              let inst = W.independent W.Near_one ~n:512 ~m:16 ~seed:71 in
              let p =
                Suu_core.Suu_i_sem.policy
                  ~solver:(Suu_core.Solver_choice.Mwu 0.1) inst
              in
              Alcotest.(check bool)
                "completes" true
                (completes ~cap:2_000_000 ~reps:2 inst p));
          Alcotest.test_case "SUU-C at n=240" `Slow (fun () ->
              let inst = W.chains uniform ~z:24 ~length:10 ~m:4 ~seed:72 in
              Alcotest.(check bool)
                "completes" true
                (completes ~cap:2_000_000 ~reps:2 inst
                   (Suu_core.Suu_c.policy inst)));
        ] );
    ]
