(* Entry point: perfbench.exe --workload W --seed N --seconds S
   --trace 0|1 [--tiny] [--suu PATH].

   Runs one workload and prints its tables, then one JSON line with
   correct / attempted / failed / metrics / info.  Untraced runs emit
   every end-to-end metric, traced runs every per-layer metric; a
   per-layer metric a workload does not exercise reads 0.  run.py builds
   this program, adds the host's provenance and prints the final
   record. *)

let end_to_end =
  [
    ("setup_s", "s", Pb.Lower);
    ("reps_per_s", "1/s", Pb.Higher);
    ("steps_per_s", "1/s", Pb.Higher);
    ("makespan_ratio", "ratio", Pb.Lower);
    ("p50_ms", "ms", Pb.Lower);
    ("p99_ms", "ms", Pb.Lower);
    ("slo_rps", "1/s", Pb.Higher);
    ("peak_rss_mb", "MB", Pb.Lower);
  ]

let per_layer =
  [
    ("workload.gen_ms", "ms", Pb.Lower);
    ("core.policy_build_ms", "ms", Pb.Lower);
    ("lp.lp1_solve_ms.simplex", "ms", Pb.Lower);
    ("lp.lp1_solve_ms.revised", "ms", Pb.Lower);
    ("lp.lp1_solve_ms.mwu", "ms", Pb.Lower);
    ("lp.rounding_ms", "ms", Pb.Lower);
    ("lp.fresh_plan_ms", "ms", Pb.Lower);
    ("plan_cache.hits", "count", Pb.Higher);
    ("plan_cache.misses", "count", Pb.Lower);
    ("plan_cache.hit_rate", "ratio", Pb.Higher);
    ("plan_cache.bypass", "count", Pb.Lower);
    ("plan_cache.entries", "count", Pb.Lower);
    ("sim.trace_draw_ms", "ms", Pb.Lower);
    ("sim.engine_run_ms", "ms", Pb.Lower);
    ("sim.engine_self_ns_per_step", "ns", Pb.Lower);
    ("policy.lp.step_ns", "ns", Pb.Lower);
    ("policy.online.step_ns", "ns", Pb.Lower);
    ("policy.calls_per_rep", "count", Pb.Lower);
    ("sim.runner_call_ms.p50", "ms", Pb.Lower);
    ("sim.runner_call_ms.p95", "ms", Pb.Lower);
    ("sim.parallel_speedup", "ratio", Pb.Higher);
    ("protocol.parse_us", "us", Pb.Lower);
    ("service.handle_ms.describe.p50", "ms", Pb.Lower);
    ("service.handle_ms.describe.p95", "ms", Pb.Lower);
    ("service.handle_ms.plan.p50", "ms", Pb.Lower);
    ("service.handle_ms.plan.p95", "ms", Pb.Lower);
    ("service.handle_ms.simulate.p50", "ms", Pb.Lower);
    ("service.handle_ms.simulate.p95", "ms", Pb.Lower);
    ("protocol.render_us", "us", Pb.Lower);
    ("server.queue_wait_ms.p95", "ms", Pb.Lower);
    ("server.execute_ms.p95", "ms", Pb.Lower);
    ("server.write_ms.p95", "ms", Pb.Lower);
    ("server.rejected", "count", Pb.Lower);
    ("server.unattributed_ms", "ms", Pb.Lower);
    ("loadgen.lag_ms.p99", "ms", Pb.Lower);
    ("loadgen.sent", "count", Pb.Higher);
    ("loadgen.conns", "count", Pb.Lower);
    ("trace.overhead_pct", "%", Pb.Lower);
    ("host.calib_ns_per_iter", "ns", Pb.Lower);
  ]

(* Keep exactly the expected metrics, in the canonical order: check that
   every emitted one has the declared unit and direction, and fill the
   per-layer ones a workload does not exercise with 0. *)
let finalize expected ~fill =
  let emitted = !Pb.metrics in
  List.iter
    (fun (m : Pb.metric) ->
      match List.find_opt (fun (n, _, _) -> n = m.name) expected with
      | Some (_, u, b) ->
          Pb.check
            (Printf.sprintf "metric %s declared as %s/%s" m.name u
               (Pb.better_name b))
            (u = m.unit_ && b = m.better)
      | None -> ())
    emitted;
  Pb.metrics := [];
  List.iter
    (fun (name, unit_, better) ->
      match List.find_opt (fun (m : Pb.metric) -> m.name = name) emitted with
      | Some m -> Pb.metrics := m :: !Pb.metrics
      | None when fill -> Pb.emit name unit_ better 0.0
      | None -> Pb.fail ("metric not produced: " ^ name))
    expected

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and tiny = ref false and suu = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "sweep-lp | sweep-online | serve-open");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--tiny", Arg.Set tiny, "smoke-test sizes");
      ("--suu", Arg.Set_string suu, "path of the suu executable (serve-open)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  Suu_sched.Register.ensure ();
  let traced = !trace = 1 in
  let tiny = !tiny in
  let calib0 = Pb.calib_ns_per_iter () in
  (match !workload with
  | "sweep-lp" ->
      let cfg = Sweep.lp_config ~tiny in
      if traced then begin
        (* serve-open is not a declared workload (see WORKLOADS.md), so
           the server layers are measured here, on its request stream,
           first, while this process's heap is still small *)
        Serve.run ~full:false ~suu:!suu ~tiny ~traced ~seed:!seed ~seconds:!seconds ();
        Sweep.run_traced cfg ~name:"sweep-lp" ~seed:!seed
      end
      else Sweep.run cfg ~name:"sweep-lp" ~seed:!seed ~seconds:!seconds
  | "sweep-online" ->
      let cfg = Sweep.online_config ~tiny in
      if traced then Sweep.run_traced cfg ~name:"sweep-online" ~seed:!seed
      else Sweep.run cfg ~name:"sweep-online" ~seed:!seed ~seconds:!seconds
  | "serve-open" ->
      Serve.run ~suu:!suu ~tiny ~traced ~seed:!seed ~seconds:!seconds ()
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2);
  let calib1 = Pb.calib_ns_per_iter () in
  Pb.note "host calibration: %.4f ns/iter at start, %.4f at end" calib0 calib1;
  if traced then begin
    Pb.emit "host.calib_ns_per_iter" "ns" Pb.Lower ((calib0 +. calib1) /. 2.0);
    finalize per_layer ~fill:true
  end
  else finalize end_to_end ~fill:false;
  Pb.print_result
    ~info:
      [
        ("calib_ns_per_iter_start", Pb.json_float calib0);
        ("calib_ns_per_iter_end", Pb.json_float calib1);
        ("fail_ratio",
         Pb.json_float (float_of_int !Pb.failed /. float_of_int (max 1 !Pb.attempted)));
        ("sim_jobs", string_of_int (Suu_sim.Parallel.default_jobs ()));
      ]
