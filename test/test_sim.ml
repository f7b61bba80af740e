(* Tests for the SUU* simulator: traces, the strict engine, and the
   statistical equivalence of the SUU* reformulation (paper Theorem 10). *)

module Dag = Suu_dag.Dag
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Trace = Suu_sim.Trace
module Engine = Suu_sim.Engine
module Runner = Suu_sim.Runner
module Rng = Suu_prng.Rng

let checkf4 = Alcotest.(check (float 1e-4))

let single_machine_inst q n =
  Instance.make ~dag:(Dag.empty n) [| Array.make n q |]

(* A policy assigning machine 0 to the lowest remaining job. *)
let work_first inst =
  let m = Instance.m inst in
  Policy.make ~name:"work-first" ~fresh:(fun _rng ->
      fun ~time:_ ~remaining ~eligible ->
        let buf = Array.make m (-1) in
        (try
           Array.iteri
             (fun j r ->
               if r && eligible.(j) then begin
                 for i = 0 to m - 1 do
                   buf.(i) <- j
                 done;
                 raise Exit
               end)
             remaining
         with Exit -> ());
        buf)

(* --- traces --- *)

let test_trace_draw_positive () =
  let rng = Rng.create ~seed:1 in
  let t = Trace.draw ~n:100 rng in
  Alcotest.(check int) "size" 100 (Trace.n t);
  for j = 0 to 99 do
    Alcotest.(check bool) "positive" true (Trace.threshold t j > 0.0)
  done

let test_trace_mean () =
  (* w = -log2 r with r uniform: E[w] = 1/ln 2 ~ 1.4427. *)
  let rng = Rng.create ~seed:2 in
  let t = Trace.draw ~n:200_000 rng in
  let sum = ref 0.0 in
  for j = 0 to Trace.n t - 1 do
    sum := !sum +. Trace.threshold t j
  done;
  let mean = !sum /. 200_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 1.4427" mean)
    true
    (Float.abs (mean -. (1.0 /. log 2.0)) < 0.02)

let test_trace_of_thresholds () =
  let t = Trace.of_thresholds [| 1.0; 0.0; 2.5 |] in
  checkf4 "kept" 2.5 (Trace.threshold t 2);
  Alcotest.check_raises "negative"
    (Invalid_argument "Trace.of_thresholds: negative threshold") (fun () ->
      ignore (Trace.of_thresholds [| -1.0 |]))

(* --- engine mechanics --- *)

let test_engine_deterministic_threshold () =
  (* threshold 2.0, l = 1 per step: completes at exactly step 2. *)
  let inst = single_machine_inst 0.5 1 in
  let trace = Trace.of_thresholds [| 2.0 |] in
  let mk =
    Engine.makespan inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "two steps" 2 mk

let test_engine_zero_threshold () =
  (* r = 1 (w = 0): job completes with no work; engine must not hang. *)
  let inst = single_machine_inst 0.5 1 in
  let trace = Trace.of_thresholds [| 0.0 |] in
  let r =
    Engine.run inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "instant" 0 r.Engine.makespan

let test_engine_counters () =
  let inst = single_machine_inst 0.5 2 in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  let r =
    Engine.run inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "makespan" 2 r.Engine.makespan;
  Alcotest.(check int) "busy" 2 r.Engine.busy_steps;
  Alcotest.(check int) "accounting" (1 * r.Engine.makespan)
    (r.Engine.busy_steps + r.Engine.wasted_steps + r.Engine.idle_steps)

let test_engine_stuck_policy_capped () =
  (* A policy that never schedules job 1 must hit the step cap, and its
     steps on the already-completed job 0 count as wasted. *)
  let inst = Instance.make ~dag:(Dag.empty 2) [| [| 0.5; 0.5 |] |] in
  let sticky =
    Policy.make ~name:"sticky" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 0 |])
  in
  let trace = Trace.of_thresholds [| 0.5; 3.0 |] in
  Alcotest.check_raises "stuck policy" (Engine.Horizon_exceeded 50) (fun () ->
      ignore
        (Engine.run ~cap:50 inst sticky ~trace ~rng:(Rng.create ~seed:0)))

let test_engine_rejects_ineligible () =
  let inst =
    Instance.make
      ~dag:(Dag.of_edges ~n:2 [ (0, 1) ])
      [| [| 0.5; 0.5 |] |]
  in
  let bad =
    Policy.make ~name:"bad" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 1 |])
  in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  Alcotest.(check bool)
    "raises Invalid_schedule" true
    (try
       ignore (Engine.run inst bad ~trace ~rng:(Rng.create ~seed:0));
       false
     with Engine.Invalid_schedule _ -> true)

let test_engine_rejects_bad_job_index () =
  let inst = single_machine_inst 0.5 1 in
  let bad =
    Policy.make ~name:"bad-index" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 7 |])
  in
  let trace = Trace.of_thresholds [| 1.0 |] in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Engine.run inst bad ~trace ~rng:(Rng.create ~seed:0));
       false
     with Engine.Invalid_schedule _ -> true)

let test_engine_rejects_wrong_width () =
  let inst = single_machine_inst 0.5 1 in
  let bad =
    Policy.make ~name:"wide" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 0; 0 |])
  in
  let trace = Trace.of_thresholds [| 1.0 |] in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Engine.run inst bad ~trace ~rng:(Rng.create ~seed:0));
       false
     with Engine.Invalid_schedule _ -> true)

let test_engine_precedence_progress () =
  (* Chain 0 -> 1: makespan is the sum of both geometric phases. *)
  let inst =
    Instance.make
      ~dag:(Dag.of_edges ~n:2 [ (0, 1) ])
      [| [| 0.5; 0.5 |] |]
  in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  let mk =
    Engine.makespan inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "sequential" 2 mk

(* Completion tolerance must scale with the threshold: 1000 unit steps
   each adding l = -log2 0.3 accumulate ~3e-11 of roundoff against the
   threshold 1000 * l — far beyond an absolute 1e-12 epsilon (which
   cost a 1001st step), within the relative one. *)
let test_engine_relative_epsilon () =
  let inst = single_machine_inst 0.3 1 in
  let l = -.(log 0.3 /. log 2.0) in
  let trace = Trace.of_thresholds [| 1000.0 *. l |] in
  let mk =
    Engine.makespan inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "exactly 1000 steps" 1000 mk

(* Above 256 jobs the engine's run state is a per-domain scratch.  A run
   that starts while another holds it — nested in [on_step], or from a
   second systhread of the same domain — must get its own arrays, a run
   that raised must not leave stale state behind, and a change of [n]
   must not reuse the wrong size. *)
let scratch_inst n =
  let module W = Suu_workload.Workload in
  W.random_chains (W.Uniform { lo = 0.2; hi = 0.95 }) ~n ~z:(n / 10) ~m:4
    ~seed:n

let scratch_run ?on_step inst seed =
  let trace = Trace.draw ~n:(Instance.n inst) (Rng.create ~seed) in
  Engine.run ?on_step inst (Suu_core.Baselines.round_robin inst) ~trace
    ~rng:(Rng.create ~seed)

let test_engine_scratch_claims () =
  let big = scratch_inst 400 and other = scratch_inst 300 in
  let want = scratch_run big 1 and want_inner = scratch_run big 2 in
  let want_other = scratch_run other 3 in
  let check what want got =
    Alcotest.(check int) what want.Engine.makespan got.Engine.makespan;
    Alcotest.(check int) (what ^ " busy") want.Engine.busy_steps
      got.Engine.busy_steps
  in
  (* nested: inner runs of the same and of another size mid-run *)
  let on_step ~time ~assignment:_ =
    if time = 3 then check "nested same n" want_inner (scratch_run big 2);
    if time = 5 then check "nested other n" want_other (scratch_run other 3)
  in
  check "outer" want (scratch_run ~on_step big 1);
  (* a raising run, then clean runs of both sizes *)
  (try
     ignore
       (scratch_run big 1 ~on_step:(fun ~time ~assignment:_ ->
            if time = 7 then failwith "stop"))
   with Failure _ -> ());
  check "after raise" want (scratch_run big 1);
  check "other n" want_other (scratch_run other 3);
  check "back" want (scratch_run big 1);
  (* a second systhread runs to completion while the first is parked
     mid-run holding the scratch *)
  let m = Mutex.create () and c = Condition.create () in
  let parked = ref false and other_done = ref false in
  let park ~time ~assignment:_ =
    if time = 2 then begin
      Mutex.lock m;
      parked := true;
      Condition.broadcast c;
      while not !other_done do
        Condition.wait c m
      done;
      Mutex.unlock m
    end
  in
  let got_other = ref None in
  let t =
    Thread.create
      (fun () ->
        Mutex.lock m;
        while not !parked do
          Condition.wait c m
        done;
        Mutex.unlock m;
        got_other := Some (scratch_run big 2);
        Mutex.lock m;
        other_done := true;
        Condition.broadcast c;
        Mutex.unlock m)
      ()
  in
  check "parked thread" want (scratch_run ~on_step:park big 1);
  Thread.join t;
  check "other thread" want_inner (Option.get !got_other)

(* --- Theorem 10: SUU* equals SUU distributionally --- *)

let test_suu_star_equivalence_single () =
  (* Single job, q = 0.5: makespan should be Geometric(1/2).
     Compare E and the full distribution coarsely. *)
  let inst = single_machine_inst 0.5 1 in
  let reps = 40_000 in
  let xs = Runner.makespans inst (work_first inst) ~seed:7 ~reps in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 2" mean)
    true
    (Float.abs (mean -. 2.0) < 0.05);
  (* P(T = 1) should be ~1/2, P(T = 2) ~1/4 *)
  let count v =
    Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 xs
  in
  let p1 = float_of_int (count 1.0) /. float_of_int reps in
  let p2 = float_of_int (count 2.0) /. float_of_int reps in
  Alcotest.(check bool) "P(T=1)" true (Float.abs (p1 -. 0.5) < 0.02);
  Alcotest.(check bool) "P(T=2)" true (Float.abs (p2 -. 0.25) < 0.02)

let test_suu_star_equivalence_two_machines () =
  (* Two machines q1 = 0.5, q2 = 0.25 on one job: per-step failure
     q1 q2 = 1/8, E[T] = 8/7. *)
  let inst = Instance.make ~dag:(Dag.empty 1) [| [| 0.5 |]; [| 0.25 |] |] in
  let gang =
    Policy.make ~name:"gang" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 0; 0 |])
  in
  let xs = Runner.makespans inst gang ~seed:11 ~reps:40_000 in
  let mean = Array.fold_left ( +. ) 0.0 xs /. 40_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 8/7" mean)
    true
    (Float.abs (mean -. (8.0 /. 7.0)) < 0.02)

(* --- recording and gantt --- *)

let test_run_recorded () =
  let inst = single_machine_inst 0.5 2 in
  let trace = Trace.of_thresholds [| 1.0; 2.0 |] in
  let result, steps =
    Engine.run_recorded inst (work_first inst) ~trace
      ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "one row per step" result.Engine.makespan
    (Array.length steps);
  (* first step works job 0, later steps job 1 *)
  Alcotest.(check int) "step 0" 0 steps.(0).(0);
  Alcotest.(check int) "last step" 1 steps.(Array.length steps - 1).(0)

let test_gantt_render () =
  let steps = [| [| 0; -1 |]; [| 1; 1 |]; [| 0; -1 |] |] in
  let s = Suu_sim.Gantt.render steps in
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  Alcotest.(check int) "one line per machine" 2 (List.length lines);
  Alcotest.(check bool) "machine 0 row" true
    (String.length (List.hd lines) > 0);
  Alcotest.(check string) "empty recording" "" (Suu_sim.Gantt.render [||])

let test_gantt_sampling () =
  let steps = Array.make 1000 [| 0 |] in
  let s = Suu_sim.Gantt.render ~max_width:50 steps in
  Alcotest.(check bool) "notes the scale" true
    (String.length s < 200
    &&
    match String.index_opt s '(' with Some _ -> true | None -> false)

let test_gantt_utilization () =
  let steps = [| [| 0; -1 |]; [| 1; -1 |]; [| -1; -1 |]; [| 0; 2 |] |] in
  let u = Suu_sim.Gantt.utilization steps in
  checkf4 "machine 0" 0.75 u.(0);
  checkf4 "machine 1" 0.25 u.(1)

let test_gantt_symbols () =
  Alcotest.(check char) "idle" '.' (Suu_sim.Gantt.job_symbol (-1));
  Alcotest.(check char) "zero" '0' (Suu_sim.Gantt.job_symbol 0);
  Alcotest.(check char) "ten" 'a' (Suu_sim.Gantt.job_symbol 10);
  Alcotest.(check char) "cycles" '0' (Suu_sim.Gantt.job_symbol 62)

(* Machine-step accounting: every step, each machine is exactly one of
   busy / wasted / idle. *)
let prop_engine_accounting =
  QCheck.Test.make ~count:60 ~name:"busy + wasted + idle = m * makespan"
    QCheck.small_int (fun seed ->
      let module W = Suu_workload.Workload in
      let inst =
        W.independent (W.Uniform { lo = 0.2; hi = 0.95 }) ~n:8 ~m:3 ~seed
      in
      let rng = Rng.create ~seed:(seed + 13) in
      let trace = Trace.draw ~n:8 (Rng.split rng) in
      let r =
        Engine.run inst (Suu_core.Baselines.round_robin inst) ~trace ~rng
      in
      r.Engine.busy_steps + r.Engine.wasted_steps + r.Engine.idle_steps
      = 3 * r.Engine.makespan)

(* --- audit --- *)

let test_audit_accepts_valid () =
  let inst = single_machine_inst 0.5 3 in
  let rng = Rng.create ~seed:3 in
  let trace = Trace.draw ~n:3 rng in
  let _, steps =
    Engine.run_recorded inst (work_first inst) ~trace ~rng:(Rng.create ~seed:4)
  in
  (match Suu_sim.Audit.check inst ~trace ~steps with
  | Ok () -> ()
  | Error v -> Alcotest.failf "step %d: %s" v.Suu_sim.Audit.step v.message);
  let times = Suu_sim.Audit.completion_times inst ~trace ~steps in
  Alcotest.(check bool) "all completed" true (Array.for_all (fun t -> t > 0) times)

let test_audit_rejects_ineligible () =
  let inst =
    Instance.make ~dag:(Dag.of_edges ~n:2 [ (0, 1) ]) [| [| 0.5; 0.5 |] |]
  in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  (* Hand-built illegal recording: job 1 before job 0. *)
  let steps = [| [| 1 |]; [| 0 |]; [| 1 |] |] in
  match Suu_sim.Audit.check inst ~trace ~steps with
  | Error v ->
      Alcotest.(check int) "at step 0" 0 v.Suu_sim.Audit.step
  | Ok () -> Alcotest.fail "expected a violation"

let test_audit_rejects_incomplete () =
  let inst = single_machine_inst 0.5 2 in
  let trace = Trace.of_thresholds [| 1.0; 5.0 |] in
  let steps = [| [| 0 |] |] in
  match Suu_sim.Audit.check inst ~trace ~steps with
  | Error v ->
      Alcotest.(check bool)
        "mentions the job" true
        (String.length v.Suu_sim.Audit.message > 0)
  | Ok () -> Alcotest.fail "expected incompleteness violation"

let test_audit_rejects_bad_job () =
  let inst = single_machine_inst 0.5 1 in
  let trace = Trace.of_thresholds [| 0.5 |] in
  let steps = [| [| 9 |] |] in
  Alcotest.(check bool)
    "bad index flagged" true
    (match Suu_sim.Audit.check inst ~trace ~steps with
    | Error _ -> true
    | Ok () -> false)

(* Differential property: every policy's recorded execution, on every
   precedence shape, passes the independent audit, and the auditor's
   recomputed completion times are consistent with the makespan. *)
let prop_engine_executions_audit_clean =
  QCheck.Test.make ~count:60 ~name:"recorded executions pass the audit"
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let module W = Suu_workload.Workload in
      let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
      let inst =
        match shape with
        | 0 -> W.independent uniform ~n:8 ~m:3 ~seed
        | 1 -> W.chains uniform ~z:2 ~length:4 ~m:3 ~seed
        | 2 -> W.forest uniform ~n:9 ~trees:2 ~orientation:`Mixed ~m:3 ~seed
        | _ -> W.mapreduce uniform ~maps:4 ~reduces:3 ~m:3 ~seed
      in
      let policy = Suu_core.Auto.policy inst in
      let rng = Rng.create ~seed:(seed + 77) in
      let trace = Trace.draw ~n:(Instance.n inst) (Rng.split rng) in
      let result, steps = Engine.run_recorded inst policy ~trace ~rng in
      (match Suu_sim.Audit.check inst ~trace ~steps with
      | Ok () -> true
      | Error _ -> false)
      &&
      let times = Suu_sim.Audit.completion_times inst ~trace ~steps in
      Array.for_all
        (fun t -> t >= 0 && t <= result.Engine.makespan)
        times)

(* --- parallel runner --- *)

let test_parallel_matches_sequential () =
  let inst = single_machine_inst 0.6 5 in
  let seq =
    Runner.makespans ~jobs:1 inst (work_first inst) ~seed:21 ~reps:16
  in
  List.iter
    (fun jobs ->
      let par =
        Runner.makespans ~jobs inst (work_first inst) ~seed:21 ~reps:16
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d jobs identical" jobs)
        true (seq = par))
    [ 1; 2; 4 ]

let test_parallel_validation () =
  let inst = single_machine_inst 0.6 2 in
  Alcotest.check_raises "bad jobs"
    (Invalid_argument "Parallel.parallel_for: jobs must be positive")
    (fun () ->
      ignore (Runner.makespans ~jobs:0 inst (work_first inst) ~seed:0 ~reps:4));
  Alcotest.check_raises "bad batch"
    (Invalid_argument "Runner.replicate: batch must be positive") (fun () ->
      Runner.replicate inst (work_first inst) ~seed:0 ~lo:0 ~hi:4 ~batch:0
        ~after_batch:(fun ~lo:_ ~hi:_ -> ())
        (Array.make 4 0.0))

let test_parallel_real_policy () =
  (* A stateful LP-driven policy shared by every worker must agree with
     the single-worker run. *)
  let inst =
    Suu_core.Instance.make ~dag:(Suu_dag.Dag.empty 6)
      (Array.init 2 (fun i ->
           Array.init 6 (fun j ->
               0.3 +. (0.1 *. float_of_int ((i + j) mod 5)))))
  in
  let seq =
    Runner.makespans ~jobs:1 inst (Suu_core.Suu_i_sem.policy inst) ~seed:5
      ~reps:8
  in
  let par =
    Runner.makespans ~jobs:3 inst (Suu_core.Suu_i_sem.policy inst) ~seed:5
      ~reps:8
  in
  Alcotest.(check bool) "identical" true (seq = par)

(* Replications fan out over the pool with bit-identical results across
   random instances, seeds and job counts {1, 2, 5, default}; the
   default-jobs run uses a freshly built policy value, and a batched
   kernel run must agree slot for slot. *)
let prop_parallel_bit_identical =
  QCheck.Test.make ~count:15
    ~name:"parallel runners bit-identical to sequential"
    QCheck.(quad small_int (int_range 1 11) (int_range 0 2) (int_range 1 4))
    (fun (seed, reps, shape, batch) ->
      let module W = Suu_workload.Workload in
      let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
      let inst =
        match shape with
        | 0 -> W.independent uniform ~n:8 ~m:3 ~seed
        | 1 -> W.chains uniform ~z:2 ~length:4 ~m:3 ~seed
        | _ -> W.forest uniform ~n:9 ~trees:2 ~orientation:`Mixed ~m:3 ~seed
      in
      let policy = Suu_core.Auto.policy inst in
      let run ?jobs policy =
        Runner.makespans ?jobs inst policy ~seed:(seed + 1) ~reps
      in
      let seq = run ~jobs:1 policy in
      let batched = Array.make reps 0.0 in
      Runner.replicate ~jobs:2 inst policy ~seed:(seed + 1) ~lo:0 ~hi:reps
        ~batch ~after_batch:(fun ~lo:_ ~hi:_ -> ()) batched;
      seq = run ~jobs:2 policy
      && seq = run ~jobs:5 policy
      && seq = run (Suu_core.Auto.policy inst)
      && seq = batched)

(* A raising body surfaces its exception only once the call has
   finished: no item may complete after the caller sees the exception,
   and the pool survives for the next call. *)
let test_parallel_raise_joins_all () =
  let n = 8 in
  let completed = Atomic.make 0 in
  let raised =
    try
      Suu_sim.Parallel.parallel_for ~jobs:4 ~n (fun i ->
          if i = 0 then failwith "boom"
          else begin
            (* Slow enough that a still-running helper would be caught
               completing an item after the raise. *)
            Thread.delay 0.02;
            Atomic.incr completed
          end);
      false
    with Failure msg ->
      Alcotest.(check string) "body exception surfaces" "boom" msg;
      true
  in
  Alcotest.(check bool) "exception propagated" true raised;
  let at_catch = Atomic.get completed in
  Thread.delay 0.05;
  Alcotest.(check int) "no item finishes after the call returned" at_catch
    (Atomic.get completed);
  let out = Array.make n (-1) in
  Suu_sim.Parallel.parallel_for ~jobs:4 ~n (fun i -> out.(i) <- i);
  Alcotest.(check (array int)) "next call on the same pool succeeds"
    (Array.init n Fun.id) out

(* Concurrent callers share one pool: 4 threads x 50 calls never spawn
   a domain beyond the pool's fixed size. *)
let test_parallel_pool_size_fixed () =
  let threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for c = 1 to 50 do
              let out = Array.make 16 0 in
              Suu_sim.Parallel.parallel_for ~n:16 (fun i -> out.(i) <- i + c);
              assert (out = Array.init 16 (fun i -> i + c))
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "spawned domains = pool size"
    (Suu_sim.Parallel.default_jobs () - 1)
    (Suu_obs.Counter.get (Suu_obs.Registry.counter "parallel.pool.domains"))

(* Regression for the cross-domain [Lazy] race: module-level counters
   used to be [lazy] values forced on first use from several domains at
   once, which raises [CamlinternalLazy.Undefined].  Only a fresh
   process has its first use ahead of it, so run the probe many times. *)
let test_parallel_fresh_process_first_use () =
  let runs = 200 in
  let env = Array.append [| "SUU_JOBS=8" |] (Unix.environment ()) in
  let probe =
    Filename.concat (Filename.dirname Sys.executable_name) "race_probe.exe"
  in
  let failures = ref 0 in
  for _ = 1 to runs do
    let pid =
      Unix.create_process_env probe [| probe |] env Unix.stdin Unix.stdout
        Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failures
  done;
  Alcotest.(check int) (Printf.sprintf "failed runs of %d" runs) 0 !failures

(* --- runner --- *)

let test_runner_deterministic () =
  let inst = single_machine_inst 0.6 3 in
  let a = Runner.makespans inst (work_first inst) ~seed:5 ~reps:20 in
  let b = Runner.makespans inst (work_first inst) ~seed:5 ~reps:20 in
  Alcotest.(check bool) "same seed same runs" true (a = b);
  let c = Runner.makespans inst (work_first inst) ~seed:6 ~reps:20 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_runner_ratio () =
  let inst = single_machine_inst 0.5 1 in
  let r =
    Runner.ratio_to_bound inst (work_first inst) ~bound:2.0 ~seed:3 ~reps:500
  in
  Alcotest.(check bool) "ratio near 1" true (r > 0.8 && r < 1.25)

let test_runner_validation () =
  let inst = single_machine_inst 0.5 1 in
  Alcotest.check_raises "reps"
    (Invalid_argument "Runner.makespans: reps must be positive") (fun () ->
      ignore (Runner.makespans inst (work_first inst) ~seed:0 ~reps:0))

(* The documented determinism contract: replication k's generators
   depend on (seed, k) only, so extending a sweep re-runs the same
   prefix of traces. *)
let test_runner_rep_prefix () =
  let inst = single_machine_inst 0.6 4 in
  let short = Runner.makespans inst (work_first inst) ~seed:9 ~reps:6 in
  let long = Runner.makespans inst (work_first inst) ~seed:9 ~reps:17 in
  Alcotest.(check bool)
    "first 6 of 17 identical" true
    (Array.sub long 0 6 = short)

let () =
  Alcotest.run "sim"
    [
      ( "trace",
        [
          Alcotest.test_case "draw positive" `Quick test_trace_draw_positive;
          Alcotest.test_case "mean" `Slow test_trace_mean;
          Alcotest.test_case "of_thresholds" `Quick test_trace_of_thresholds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic threshold" `Quick
            test_engine_deterministic_threshold;
          Alcotest.test_case "zero threshold" `Quick
            test_engine_zero_threshold;
          Alcotest.test_case "counters" `Quick test_engine_counters;
          Alcotest.test_case "stuck policy capped" `Quick
            test_engine_stuck_policy_capped;
          Alcotest.test_case "rejects ineligible" `Quick
            test_engine_rejects_ineligible;
          Alcotest.test_case "rejects bad index" `Quick
            test_engine_rejects_bad_job_index;
          Alcotest.test_case "rejects wrong width" `Quick
            test_engine_rejects_wrong_width;
          Alcotest.test_case "precedence" `Quick
            test_engine_precedence_progress;
          Alcotest.test_case "scratch claims" `Quick
            test_engine_scratch_claims;
          Alcotest.test_case "relative completion epsilon" `Quick
            test_engine_relative_epsilon;
        ] );
      ( "theorem-10",
        [
          Alcotest.test_case "single machine distribution" `Slow
            test_suu_star_equivalence_single;
          Alcotest.test_case "two-machine mean" `Slow
            test_suu_star_equivalence_two_machines;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "run_recorded" `Quick test_run_recorded;
          Alcotest.test_case "render" `Quick test_gantt_render;
          Alcotest.test_case "sampling" `Quick test_gantt_sampling;
          Alcotest.test_case "utilization" `Quick test_gantt_utilization;
          Alcotest.test_case "symbols" `Quick test_gantt_symbols;
        ] );
      ( "audit",
        [
          Alcotest.test_case "accepts valid" `Quick test_audit_accepts_valid;
          Alcotest.test_case "rejects ineligible" `Quick
            test_audit_rejects_ineligible;
          Alcotest.test_case "rejects incomplete" `Quick
            test_audit_rejects_incomplete;
          Alcotest.test_case "rejects bad job" `Quick
            test_audit_rejects_bad_job;
          QCheck_alcotest.to_alcotest prop_engine_executions_audit_clean;
          QCheck_alcotest.to_alcotest prop_engine_accounting;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          Alcotest.test_case "lp policy" `Quick test_parallel_real_policy;
          Alcotest.test_case "raise joins all domains" `Quick
            test_parallel_raise_joins_all;
          QCheck_alcotest.to_alcotest prop_parallel_bit_identical;
          Alcotest.test_case "pool size fixed under concurrent callers" `Quick
            test_parallel_pool_size_fixed;
          Alcotest.test_case "first use from many domains in a fresh process"
            `Quick test_parallel_fresh_process_first_use;
        ] );
      ( "runner",
        [
          Alcotest.test_case "determinism" `Quick test_runner_deterministic;
          Alcotest.test_case "ratio" `Quick test_runner_ratio;
          Alcotest.test_case "validation" `Quick test_runner_validation;
          Alcotest.test_case "rep prefix determinism" `Quick
            test_runner_rep_prefix;
        ] );
    ]
