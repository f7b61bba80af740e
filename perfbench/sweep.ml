(* The two sweep workloads: a Table-1-style grid of (instance, policy,
   seed) cells, each a batch of Monte-Carlo replications through
   [Runner.makespans].

   Untraced run: set the grid up several times (instance generation,
   policy build, one cold sequential replication per cell) and report
   the median; compute each instance's lower bound once; run a
   reference pass at one domain; then repeat timed passes at the
   default domain count until the time is up, checking every pass
   against the reference bit for bit.  A sample of executions is
   re-run through [Engine.run_recorded] and [Audit.check].

   Traced run: the same grid, with every layer timed from outside —
   generation, policy build, the LP pipeline, [Runner.makespans] at the
   default and at one domain, and a sequential replay of every cell's
   [Seeds.rep_rngs] through [Trace.draw] and [Engine.run] with each
   stepper call timed. *)

module I = Suu_core.Instance
module W = Suu_workload.Workload
module Reg = Suu_core.Policy_registry
module SC = Suu_core.Solver_choice
module Policy = Suu_core.Policy
module Runner = Suu_sim.Runner
module Engine = Suu_sim.Engine
module Trace = Suu_sim.Trace

type spec = {
  label : string;
  gen : seed:int -> I.t;
  policies : string list;
  reps : int;
}

type config = {
  specs : spec list;
  setups : int;  (** set-up repetitions; [setup_s] is their median *)
  solver : SC.t;  (** LP backend of the policies and the lower bounds *)
  exact_jobs : int;  (** job-subset size of the traced exact LP solves *)
}

let uniform = W.Uniform { lo = 0.2; hi = 0.95 }

(* [copies k specs] repeats every spec [k] times; each copy draws its
   own instance (instance seeds depend on the position in the grid). *)
let copies k specs = List.concat_map (fun s -> List.init k (fun _ -> s)) specs

let lp_config ~tiny =
  let n, m = if tiny then (24, 4) else (160, 12) in
  let cn, cz, cm = if tiny then (24, 3, 3) else (160, 16, 10) in
  let fn, ft, fm = if tiny then (20, 2, 3) else (144, 8, 8) in
  let reps = if tiny then 6 else 200 in
  {
    specs =
      copies (if tiny then 1 else 2)
      [
        {
          label = Printf.sprintf "independent-n%d-m%d" n m;
          gen = (fun ~seed -> W.independent uniform ~n ~m ~seed);
          policies = [ "suu-i-sem"; "suu-i-obl" ];
          reps;
        };
        {
          label = Printf.sprintf "chains-n%d-m%d" cn cm;
          gen = (fun ~seed -> W.random_chains uniform ~n:cn ~z:cz ~m:cm ~seed);
          policies = [ "suu-c" ];
          reps;
        };
        {
          label = Printf.sprintf "forest-n%d-m%d" fn fm;
          gen =
            (fun ~seed ->
              W.forest uniform ~n:fn ~trees:ft ~orientation:`Mixed ~m:fm ~seed);
          policies = [ "suu-t" ];
          reps;
        };
      ];
    setups = 3;
    solver = SC.default;
    exact_jobs = n;
  }

let online_config ~tiny =
  let big, mid, small, m = if tiny then (48, 32, 16, 4) else (2048, 1024, 256, 32) in
  let reps = if tiny then 4 else 10 in
  let online = [ "lzf"; "serial"; "round-robin"; "greedy" ] in
  {
    specs =
      [
        {
          label = Printf.sprintf "independent-n%d-m%d" big m;
          gen = (fun ~seed -> W.independent uniform ~n:big ~m ~seed);
          policies = online;
          reps;
        };
        {
          label = Printf.sprintf "chains-n%d-m%d" mid m;
          gen =
            (fun ~seed -> W.random_chains uniform ~n:mid ~z:(mid / 16) ~m ~seed);
          policies = online;
          reps;
        };
        {
          label = Printf.sprintf "forest-n%d-m%d" small (m / 2);
          gen =
            (fun ~seed ->
              W.forest uniform ~n:small ~trees:8 ~orientation:`Mixed ~m:(m / 2)
                ~seed);
          policies = [ "backfill"; "lzf" ];
          reps;
        };
      ];
    setups = 5;
    solver = SC.serve_default;
    exact_jobs = (if tiny then 16 else 96);
  }

(* Deterministic, positive seeds derived from the workload seed. *)
let derive seed a b = ((seed * 1_000_003) + (a * 10_007) + b) land 0x3FFF_FFFF

type cell = {
  spec : int;
  inst : I.t;
  pname : string;
  policy : Policy.t;
  cseed : int;
  reps : int;
}

type grid = { insts : I.t array; cells : cell array }

(* Per-layer samples (ms) collected while a grid is set up. *)
type setup_trace = {
  gen_ms : Pb.Samples.t;
  build_ms : Pb.Samples.t;
  cold_ms : Pb.Samples.t;
  by_policy : (string, Pb.Samples.t * Pb.Samples.t) Hashtbl.t;
      (** per policy: build and cold-replication samples *)
}

let new_setup_trace () =
  {
    gen_ms = Pb.Samples.create ();
    build_ms = Pb.Samples.create ();
    cold_ms = Pb.Samples.create ();
    by_policy = Hashtbl.create 8;
  }

let policy_samples st name =
  match Hashtbl.find_opt st.by_policy name with
  | Some s -> s
  | None ->
      let s = (Pb.Samples.create (), Pb.Samples.create ()) in
      Hashtbl.replace st.by_policy name s;
      s

let timed_into samples f =
  let r, dt = Pb.time f in
  Pb.Samples.add samples (1000.0 *. dt);
  r

(* One set-up: generate every instance, build every policy, run one
   cold sequential replication per cell.  [None] when an operation
   failed (already counted). *)
let setup cfg ~seed ~k ~st =
  let specs = Array.of_list cfg.specs in
  let insts =
    Array.mapi
      (fun i (s : spec) ->
        Pb.op ("generate " ^ s.label) (fun () ->
            timed_into st.gen_ms (fun () -> s.gen ~seed:(derive seed k i))))
      specs
  in
  if Array.exists Option.is_none insts then None
  else begin
    let insts = Array.map Option.get insts in
    let cells = ref [] in
    Array.iteri
      (fun i (s : spec) ->
        List.iteri
          (fun pi pname ->
            let built =
              Pb.op ("build " ^ pname) (fun () ->
                  let r, dt =
                    Pb.time (fun () -> Reg.build ~solver:cfg.solver pname insts.(i))
                  in
                  Pb.Samples.add st.build_ms (1000.0 *. dt);
                  Pb.Samples.add (fst (policy_samples st pname)) (1000.0 *. dt);
                  r)
            in
            match built with
            | Some (Ok policy) ->
                cells :=
                  {
                    spec = i;
                    inst = insts.(i);
                    pname;
                    policy;
                    cseed = derive seed (100 + k) ((i * 64) + pi);
                    reps = s.reps;
                  }
                  :: !cells
            | Some (Error _) ->
                Pb.fail (Printf.sprintf "policy %s rejected %s" pname s.label)
            | None -> ())
          s.policies)
      specs;
    let cells = Array.of_list (List.rev !cells) in
    Array.iter
      (fun c ->
        ignore
          (Pb.op ("cold replication " ^ c.pname) (fun () ->
               let r, dt =
                 Pb.time (fun () ->
                     Runner.makespans ~jobs:1 c.inst c.policy ~seed:c.cseed ~reps:1)
               in
               Pb.Samples.add st.cold_ms (1000.0 *. dt);
               Pb.Samples.add (snd (policy_samples st c.pname)) (1000.0 *. dt);
               r)))
      cells;
    Some { insts; cells }
  end

(* Set up [cfg.setups] grids, each from its own derived instance seeds
   (so every set-up is cold), and return their union — the grid the
   passes sweep — with the wall time of each set-up. *)
let setups cfg ~seed ~st =
  let times = Array.make cfg.setups 0.0 in
  let grids =
    List.init cfg.setups (fun k ->
        let g, dt = Pb.time (fun () -> setup cfg ~seed ~k ~st) in
        times.(k) <- dt;
        g)
  in
  if List.exists Option.is_none grids then (None, times)
  else begin
    let union, _ =
      List.fold_left
        (fun (acc, offset) g ->
          let g = Option.get g in
          let cells = Array.map (fun c -> { c with spec = c.spec + offset }) g.cells in
          ( { insts = Array.append acc.insts g.insts; cells = Array.append acc.cells cells },
            offset + Array.length g.insts ))
        ({ insts = [||]; cells = [||] }, 0)
        grids
    in
    (Some union, times)
  end

let lower_bounds cfg g =
  Array.map
    (fun inst ->
      match
        Pb.op "lower bound" (fun () ->
            Suu_core.Lower_bound.combined ~solver:cfg.solver inst)
      with
      | Some lb -> lb
      | None -> nan)
    g.insts

(* One pass over the grid at [jobs] domains; [None] entries failed. *)
let pass ?jobs ?on_call g =
  Array.mapi
    (fun i c ->
      let t0 = Pb.now_s () in
      let r =
        Pb.op ("Runner.makespans " ^ c.pname) (fun () ->
            Runner.makespans ?jobs c.inst c.policy ~seed:c.cseed ~reps:c.reps)
      in
      (match on_call with Some f -> f i (Pb.now_s () -. t0) | None -> ());
      r)
    g.cells

let check_pass ~what reference results =
  Array.iteri
    (fun i r ->
      match (reference.(i), r) with
      | Some a, Some b ->
          Pb.check
            (Printf.sprintf "%s: cell %d makespans differ from SUU_JOBS=1" what i)
            (Pb.same_floats a b)
      | _ -> ())
    results

let steps_of results =
  Array.fold_left
    (fun acc r -> match r with Some a -> acc +. Pb.sum a | None -> acc)
    0.0 results

let total_reps g = Array.fold_left (fun a c -> a + c.reps) 0 g.cells

let makespan_ratio g lbs reference =
  let ratios =
    Array.to_list
      (Array.mapi
         (fun i c ->
           match reference.(i) with
           | Some a -> Some (Pb.mean a /. lbs.(c.spec))
           | None -> None)
         g.cells)
    |> List.filter_map Fun.id |> Array.of_list
  in
  Pb.mean ratios

(* Re-run the first replication of every cell recorded and validate it
   independently of the engine. *)
let audit g reference =
  Array.iteri
    (fun i c ->
      let trace_rng, policy_rng = (Runner.rep_rngs ~seed:c.cseed ~reps:1).(0) in
      match
        Pb.op "audited execution" (fun () ->
            let trace = Trace.draw ~n:(I.n c.inst) trace_rng in
            let r, steps = Engine.run_recorded c.inst c.policy ~trace ~rng:policy_rng in
            (r, Suu_sim.Audit.check c.inst ~trace ~steps))
      with
      | Some (r, verdict) -> (
          (match verdict with
          | Ok () -> ()
          | Error v ->
              Pb.fail
                (Printf.sprintf "audit of cell %d: step %d: %s" i v.Suu_sim.Audit.step
                   v.Suu_sim.Audit.message));
          match reference.(i) with
          | Some a ->
              Pb.check
                (Printf.sprintf "recorded makespan of cell %d" i)
                (float_of_int r.Engine.makespan = a.(0))
          | None -> ())
      | None -> ())
    g.cells

let describe_grid name g =
  Pb.note "workload %s: %d cells, %d replications per pass" name
    (Array.length g.cells) (total_reps g);
  Array.iteri
    (fun i inst ->
      Pb.note "  instance %d: %s n=%d m=%d" i (I.name inst) (I.n inst) (I.m inst))
    g.insts

(* --- untraced --- *)

let run cfg ~name ~seed ~seconds =
  let st = new_setup_trace () in
  let g, setup_times = setups cfg ~seed ~st in
  Pb.emit "setup_s" "s" Pb.Lower (Pb.median setup_times);
  match g with
  | None -> Pb.mark_invalid "set-up failed"
  | Some g ->
      describe_grid name g;
      let lbs = lower_bounds cfg g in
      let reference = pass ~jobs:1 g in
      let jobs = Suu_sim.Parallel.default_jobs () in
      let reps_rate = Pb.Samples.create ()
      and steps_rate = Pb.Samples.create ()
      and call_rate = Pb.Samples.create () in
      let cell_calls = Array.map (fun _ -> Pb.Samples.create ()) g.cells in
      let t_start = Pb.now_s () in
      let passes = ref 0 in
      while !passes < 3 || Pb.now_s () -. t_start < seconds do
        let results, dt =
          Pb.time (fun () ->
              pass g ~on_call:(fun i dt -> Pb.Samples.add cell_calls.(i) (1000.0 *. dt)))
        in
        check_pass ~what:(Printf.sprintf "pass %d" !passes) reference results;
        Pb.Samples.add reps_rate (float_of_int (total_reps g) /. dt);
        Pb.Samples.add steps_rate (steps_of results /. dt);
        Pb.Samples.add call_rate (float_of_int (Array.length g.cells) /. dt);
        incr passes
      done;
      audit g reference;
      let q a p = Pb.quantile (Pb.Samples.to_array a) p in
      Pb.note "pass rate (reps/s): min %.1f  q1 %.1f  median %.1f  q3 %.1f  max %.1f"
        (q reps_rate 0.0) (q reps_rate 0.25) (q reps_rate 0.5) (q reps_rate 0.75)
        (q reps_rate 1.0);
      List.sort_uniq compare (Array.to_list (Array.map (fun c -> c.pname) g.cells))
      |> List.iter (fun name ->
             let calls =
               Array.concat
                 (List.filteri
                    (fun i _ -> g.cells.(i).pname = name)
                    (Array.to_list (Array.map Pb.Samples.to_array cell_calls)))
             in
             Pb.note "  %-12s %6d calls  p50 %9.3f ms  p99 %9.3f ms  max %9.3f ms" name
               (Array.length calls) (Pb.median calls) (Pb.quantile calls 0.99)
               (Pb.quantile calls 1.0));
      (* a cell's latency is the median of its calls over the passes, so
         a transient stall does not stand for the cell; p50 and p99 are
         taken across the grid's cells *)
      let cell_ms =
        Array.map (fun s -> Pb.median (Pb.Samples.to_array s)) cell_calls
      in
      Pb.note "timed passes: %d at %d domains over %.2f s" !passes jobs
        (Pb.now_s () -. t_start);
      Pb.emit "reps_per_s" "1/s" Pb.Higher
        (Pb.median (Pb.Samples.to_array reps_rate));
      Pb.emit "steps_per_s" "1/s" Pb.Higher
        (Pb.median (Pb.Samples.to_array steps_rate));
      Pb.emit "makespan_ratio" "ratio" Pb.Lower (makespan_ratio g lbs reference);
      Pb.emit "p50_ms" "ms" Pb.Lower (Pb.median cell_ms);
      Pb.emit "p99_ms" "ms" Pb.Lower (Pb.quantile cell_ms 0.99);
      Pb.emit "slo_rps" "1/s" Pb.Higher
        (Pb.median (Pb.Samples.to_array call_rate));
      Pb.emit "peak_rss_mb" "MB" Pb.Lower (Pb.peak_rss_mb_self ())

(* --- traced --- *)

(* The LP pipeline on every instance of the grid, timed call by call:
   LP1 at the round-1 target with each backend (exact backends on a
   [exact_jobs]-job prefix, which keeps them finite on large instances),
   Lemma-2 rounding of the exact solution, and the whole uncached plan
   pipeline with the policies' own solver. *)
let lp_layer cfg g =
  let simplex = Pb.Samples.create ()
  and revised = Pb.Samples.create ()
  and mwu = Pb.Samples.create ()
  and rounding = Pb.Samples.create ()
  and fresh = Pb.Samples.create () in
  Array.iter
    (fun inst ->
      let n = I.n inst in
      let all = Array.init n Fun.id in
      let prefix = Array.init (min n cfg.exact_jobs) Fun.id in
      let target = 0.5 in
      let solve solver jobs samples =
        Pb.op ("Lp1.solve " ^ SC.name solver) (fun () ->
            timed_into samples (fun () ->
                Suu_core.Lp1.solve ~solver inst ~jobs ~target))
      in
      let exact = solve SC.Simplex prefix simplex in
      ignore (solve SC.Revised prefix revised);
      ignore (solve SC.serve_default all mwu);
      (match exact with
      | Some frac ->
          ignore
            (Pb.op "Rounding.round" (fun () ->
                 timed_into rounding (fun () ->
                     Suu_core.Rounding.round inst ~jobs:prefix ~target
                       ~frac:frac.Suu_core.Lp1.x
                       ~frac_value:frac.Suu_core.Lp1.value)))
      | None -> ());
      ignore
        (Pb.op "Plan_cache.fresh_plan" (fun () ->
             timed_into fresh (fun () ->
                 Suu_core.Plan_cache.fresh_plan ~solver:cfg.solver inst
                   ~round:1 ~survivors:all))))
    g.insts;
  (simplex, revised, mwu, rounding, fresh)

(* A policy whose every stepper call (and stepper construction) is timed
   into [ns]; [calls] counts stepper calls. *)
let timed_policy p ~ns ~calls =
  Policy.make ~name:(Policy.name p) ~fresh:(fun rng ->
      let t0 = Suu_obs.Clock.now_ns () in
      let step = Policy.fresh p rng in
      ns := Int64.add !ns (Int64.sub (Suu_obs.Clock.now_ns ()) t0);
      fun ~time ~remaining ~eligible ->
        let t0 = Suu_obs.Clock.now_ns () in
        let a = step ~time ~remaining ~eligible in
        ns := Int64.add !ns (Int64.sub (Suu_obs.Clock.now_ns ()) t0);
        incr calls;
        a)

type replay = {
  draw_ms : Pb.Samples.t;
  run_ms : Pb.Samples.t;
  mutable lp_step_ns : int64;
  mutable lp_calls : int;
  mutable online_step_ns : int64;
  mutable online_calls : int;
  mutable steps : int;
  mutable execs : int;
  mutable by_policy : (string * (int64 * int)) list;
}

(* Sequential replay of every cell's replications through the wrapped
   policy; the makespans must equal [reference] (the one-domain pass). *)
let replay g reference =
  let r =
    {
      draw_ms = Pb.Samples.create ();
      run_ms = Pb.Samples.create ();
      lp_step_ns = 0L;
      lp_calls = 0;
      online_step_ns = 0L;
      online_calls = 0;
      steps = 0;
      execs = 0;
      by_policy = [];
    }
  in
  Array.iteri
    (fun i c ->
      let ns = ref 0L and calls = ref 0 in
      let wrapped = timed_policy c.policy ~ns ~calls in
      let rngs = Runner.rep_rngs ~seed:c.cseed ~reps:c.reps in
      let out = Array.make c.reps nan in
      let ok =
        Pb.op ("traced replay " ^ c.pname) (fun () ->
            Array.iteri
              (fun k (trace_rng, policy_rng) ->
                let trace =
                  timed_into r.draw_ms (fun () ->
                      Trace.draw ~n:(I.n c.inst) trace_rng)
                in
                let mk =
                  timed_into r.run_ms (fun () ->
                      Engine.makespan c.inst wrapped ~trace ~rng:policy_rng)
                in
                out.(k) <- float_of_int mk;
                r.steps <- r.steps + mk;
                r.execs <- r.execs + 1)
              rngs)
      in
      let ns0, calls0 =
        Option.value ~default:(0L, 0) (List.assoc_opt c.pname r.by_policy)
      in
      r.by_policy <-
        (c.pname, (Int64.add ns0 !ns, calls0 + !calls))
        :: List.remove_assoc c.pname r.by_policy;
      if Reg.lp_free c.pname then begin
        r.online_step_ns <- Int64.add r.online_step_ns !ns;
        r.online_calls <- r.online_calls + !calls
      end
      else begin
        r.lp_step_ns <- Int64.add r.lp_step_ns !ns;
        r.lp_calls <- r.lp_calls + !calls
      end;
      match (ok, reference.(i)) with
      | Some (), Some a ->
          Pb.check
            (Printf.sprintf "traced makespans of cell %d differ from untraced" i)
            (Pb.same_floats a out)
      | _ -> ())
    g.cells;
  r

let ms_of_ns ns = Int64.to_float ns *. 1e-6

let per_call ns calls = if calls = 0 then 0.0 else Int64.to_float ns /. float_of_int calls

(* The layers below the request path, timed on grid [g]: the LP
   pipeline, one [Runner.makespans] pass at the default and one at a
   single domain, and the traced sequential replay.  Emits their
   metrics (the plan-cache counters only with [~plan_cache:true]) and
   returns their table sections. *)
(* Plans in the process-wide store (any handle reports the whole store). *)
let store_size () =
  Suu_core.Plan_cache.size (Suu_core.Plan_cache.create (W.independent uniform ~n:2 ~m:1 ~seed:0))

let engine_layers ?(entries_base = 0) cfg g ~plan_cache =
  let simplex, revised, mwu, rounding, fresh = lp_layer cfg g in
  let pc0 = Suu_core.Plan_cache.global_stats () in
  let default_ms = Pb.Samples.create () in
  let by_default, t_default =
    Pb.time (fun () ->
        pass g ~on_call:(fun _ dt -> Pb.Samples.add default_ms (1000.0 *. dt)))
  in
  let reference, t_seq = Pb.time (fun () -> pass ~jobs:1 g) in
  check_pass ~what:"default-domain pass" reference by_default;
  let rp, t_replay = Pb.time (fun () -> replay g reference) in
  let pc1 = Suu_core.Plan_cache.global_stats () in
  let stepper_ns = Int64.add rp.lp_step_ns rp.online_step_ns in
  let run_total = Pb.Samples.total rp.run_ms in
  let engine_self_ms = run_total -. ms_of_ns stepper_ns in
  let p50 s = Pb.median (Pb.Samples.to_array s) in
  Pb.emit "lp.lp1_solve_ms.simplex" "ms" Pb.Lower (p50 simplex);
  Pb.emit "lp.lp1_solve_ms.revised" "ms" Pb.Lower (p50 revised);
  Pb.emit "lp.lp1_solve_ms.mwu" "ms" Pb.Lower (p50 mwu);
  Pb.emit "lp.rounding_ms" "ms" Pb.Lower (p50 rounding);
  Pb.emit "lp.fresh_plan_ms" "ms" Pb.Lower (p50 fresh);
  if plan_cache then begin
    let hits = pc1.hits - pc0.hits and misses = pc1.misses - pc0.misses in
    Pb.emit "plan_cache.hits" "count" Pb.Higher (float_of_int hits);
    Pb.emit "plan_cache.misses" "count" Pb.Lower (float_of_int misses);
    Pb.emit "plan_cache.hit_rate" "ratio" Pb.Higher
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    Pb.emit "plan_cache.bypass" "count" Pb.Lower
      (float_of_int (Suu_core.Plan_cache.bypasses ()))
  end;
  Pb.emit "plan_cache.entries" "count" Pb.Lower (float_of_int (store_size () - entries_base));
  Pb.emit "sim.trace_draw_ms" "ms" Pb.Lower (p50 rp.draw_ms);
  Pb.emit "sim.engine_run_ms" "ms" Pb.Lower (p50 rp.run_ms);
  Pb.emit "sim.engine_self_ns_per_step" "ns" Pb.Lower
    (1e6 *. engine_self_ms /. float_of_int (max 1 rp.steps));
  Pb.emit "policy.lp.step_ns" "ns" Pb.Lower (per_call rp.lp_step_ns rp.lp_calls);
  Pb.emit "policy.online.step_ns" "ns" Pb.Lower
    (per_call rp.online_step_ns rp.online_calls);
  Pb.emit "policy.calls_per_rep" "count" Pb.Lower
    (float_of_int (rp.lp_calls + rp.online_calls) /. float_of_int (max 1 rp.execs));
  let calls = Pb.Samples.to_array default_ms in
  let reps = float_of_int (total_reps g) in
  Pb.emit "sim.runner_call_ms.p50" "ms" Pb.Lower (Pb.median calls);
  Pb.emit "sim.runner_call_ms.p95" "ms" Pb.Lower (Pb.quantile calls 0.95);
  Pb.emit "sim.parallel_speedup" "ratio" Pb.Higher (reps /. t_default /. (reps /. t_seq));
  Pb.emit "trace.overhead_pct" "%" Pb.Lower (100.0 *. (t_replay -. t_seq) /. t_seq);
  [
    {
      Pb.parent = "lp layer (direct calls)";
      wall_ms =
        List.fold_left
          (fun a s -> a +. Pb.Samples.total s)
          0.0
          [ simplex; revised; mwu; rounding; fresh ];
      children =
        [
          Pb.row "lp.lp1_solve.simplex" (Pb.Samples.to_array simplex);
          Pb.row "lp.lp1_solve.revised" (Pb.Samples.to_array revised);
          Pb.row "lp.lp1_solve.mwu" (Pb.Samples.to_array mwu);
          Pb.row "lp.rounding" (Pb.Samples.to_array rounding);
          Pb.row "lp.fresh_plan" (Pb.Samples.to_array fresh);
        ];
      extra = [];
    };
    {
      Pb.parent = "Runner.makespans passes";
      wall_ms = 1000.0 *. (t_default +. t_seq);
      children =
        [
          Pb.row "sim.runner_call, default domains" calls;
          Pb.summed "sim.runner_call, one domain" ~count:(Array.length g.cells)
            (1000.0 *. t_seq);
        ];
      extra = [];
    };
    {
      Pb.parent = "traced sequential replay";
      wall_ms = 1000.0 *. t_replay;
      children =
        [
          Pb.row "sim.trace_draw" (Pb.Samples.to_array rp.draw_ms);
          Pb.summed "policy.lp.step" ~count:rp.lp_calls (ms_of_ns rp.lp_step_ns);
          Pb.summed "policy.online.step" ~count:rp.online_calls
            (ms_of_ns rp.online_step_ns);
          Pb.summed "sim.engine self" ~count:rp.execs engine_self_ms;
        ];
      extra =
        Pb.row "sim.engine_run" (Pb.Samples.to_array rp.run_ms)
        :: List.map
             (fun (name, (ns, calls)) ->
               Pb.summed ("policy " ^ name ^ " step") ~count:calls (ms_of_ns ns))
             rp.by_policy;
    };
  ]

let setup_section ~label times (st : setup_trace) =
  {
    Pb.parent = label;
    wall_ms = 1000.0 *. Pb.sum times;
    children =
      [
        Pb.row "workload.gen" (Pb.Samples.to_array st.gen_ms);
        Pb.row "core.policy_build" (Pb.Samples.to_array st.build_ms);
        Pb.row "cold Runner.makespans" (Pb.Samples.to_array st.cold_ms);
      ];
    extra =
      Hashtbl.fold (fun name s acc -> (name, s) :: acc) st.by_policy []
      |> List.sort compare
      |> List.concat_map (fun (name, (build, cold)) ->
             [
               Pb.row ("build " ^ name) (Pb.Samples.to_array build);
               Pb.row ("cold replication " ^ name) (Pb.Samples.to_array cold);
             ]);
  }

let run_traced cfg ~name ~seed =
  let entries_base = store_size () in
  let st = new_setup_trace () in
  let g, setup_times = setups cfg ~seed ~st in
  match g with
  | None -> Pb.mark_invalid "set-up failed"
  | Some g ->
      describe_grid name g;
      let p50 s = Pb.median (Pb.Samples.to_array s) in
      Pb.emit "workload.gen_ms" "ms" Pb.Lower (p50 st.gen_ms);
      Pb.emit "core.policy_build_ms" "ms" Pb.Lower (p50 st.build_ms);
      let sections = engine_layers ~entries_base cfg g ~plan_cache:true in
      Pb.table name
        (setup_section ~label:(Printf.sprintf "set-up x%d" cfg.setups) setup_times st
        :: sections)
