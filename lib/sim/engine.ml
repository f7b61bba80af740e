module Instance = Suu_core.Instance
module Policy = Suu_core.Policy

exception Invalid_schedule of string
exception Horizon_exceeded of int

type result = {
  makespan : int;
  busy_steps : int;
  wasted_steps : int;
  idle_steps : int;
}

(* Completion uses a tolerance *relative* to the threshold: the accrued
   mass is a sum of floats of the threshold's magnitude, so its roundoff
   scales with w_j — an absolute epsilon under-completes for large w_j.
   [1.0] floors the scale so tiny thresholds keep the old behaviour. *)
let completion_slack w = 1e-12 *. Float.max 1.0 w

(* Telemetry is recorded per *run*, never per step: two clock reads and a
   handful of batched counter adds bound the overhead regardless of the
   makespan. *)
let c_runs = Suu_obs.Registry.counter "engine.runs"
let c_steps = Suu_obs.Registry.counter "engine.steps"
let c_busy = Suu_obs.Registry.counter "engine.busy_steps"
let c_wasted = Suu_obs.Registry.counter "engine.wasted_steps"
let c_idle = Suu_obs.Registry.counter "engine.idle_steps"

(* The n-sized run state lives in a per-domain scratch reused across
   executions.  [busy] is claimed with a compare-and-set: a nested run
   (from [on_step]) or another systhread on the same domain finds it
   taken and works on fresh arrays instead. *)
type scratch = {
  busy : bool Atomic.t;
  remaining : bool array;
  mass : float array;
  w_lo : float array;
  npred : int array;
  eligible : bool array;
}

(* A claimed scratch of fresh arrays. *)
let make_scratch n =
  {
    busy = Atomic.make true;
    remaining = Array.make n true;
    mass = Array.make n 0.0;
    w_lo = Array.make n 0.0;
    npred = Array.make n 0;
    eligible = Array.make n false;
  }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let s = make_scratch 0 in
      Atomic.set s.busy false;
      s)

(* The runtime's [Max_young_wosize]: an array of at most this many words
   is allocated in the minor heap (a pointer bump, dead by the next
   minor collection); a larger one goes straight to the major heap,
   which is the cost the scratch saves.  Reusing small scratches as
   well saved no time and raised the peak heap of perfbench's sweep-lp
   workload (n <= 160) by about 9% on OCaml 5.1.1: fewer minor
   collections pace the major GC more slowly. *)
let max_young_wosize = 256

(* A claimed scratch of size [n]; the domain's slot is replaced when [n]
   changes. *)
let claim n =
  if n <= max_young_wosize then make_scratch n
  else
    let s = Domain.DLS.get scratch_key in
    if not (Atomic.compare_and_set s.busy false true) then make_scratch n
    else if Array.length s.remaining = n then s
    else begin
      let s = make_scratch n in
      Domain.DLS.set scratch_key s;
      s
    end

let release s = Atomic.set s.busy false

let run_on scratch ?(cap = 4_000_000) ?on_step inst policy ~trace ~rng =
  let obs = Suu_obs.Registry.enabled () in
  let t_start = if obs then Suu_obs.Clock.now_ns () else 0L in
  let n = Instance.n inst in
  let m = Instance.m inst in
  let g = Instance.dag inst in
  let { remaining; mass; w_lo; npred; eligible; _ } = scratch in
  Array.fill remaining 0 n true;
  Array.fill mass 0 n 0.0;
  let left = ref n in
  (* Zero thresholds (r_j = 1) complete with no work at all. *)
  for j = 0 to n - 1 do
    let w = Trace.threshold trace j in
    w_lo.(j) <- w -. completion_slack w;
    if w <= 0.0 then begin
      remaining.(j) <- false;
      decr left
    end
  done;
  (* Incremental eligibility: count each job's uncompleted predecessors
     once; decrement on completion and promote at zero.  No O(n) rescans
     after this point. *)
  let pred_off, pred_tgt = Suu_dag.Dag.pred_csr g in
  let succ_off, succ_tgt = Suu_dag.Dag.succ_csr g in
  for j = 0 to n - 1 do
    let c = ref 0 in
    for k = pred_off.(j) to pred_off.(j + 1) - 1 do
      if remaining.(pred_tgt.(k)) then incr c
    done;
    npred.(j) <- !c;
    eligible.(j) <- remaining.(j) && !c = 0
  done;
  let complete j =
    remaining.(j) <- false;
    eligible.(j) <- false;
    decr left;
    for k = succ_off.(j) to succ_off.(j + 1) - 1 do
      let s = succ_tgt.(k) in
      npred.(s) <- npred.(s) - 1;
      if npred.(s) = 0 && remaining.(s) then eligible.(s) <- true
    done
  in
  let stepper = Policy.fresh policy (Suu_prng.Rng.split rng) in
  let busy = ref 0 and wasted = ref 0 and idle = ref 0 in
  let time = ref 0 in
  (* Scratch for jobs that gained mass this step: at most one push per
     machine, reused across steps (no per-step list cells). *)
  let touched = Array.make (max m 1) 0 in
  let t_init = if obs then Suu_obs.Clock.now_ns () else 0L in
  while !left > 0 do
    if !time >= cap then raise (Horizon_exceeded cap);
    let a = stepper ~time:!time ~remaining ~eligible in
    (match on_step with
    | Some f -> f ~time:!time ~assignment:a
    | None -> ());
    if Array.length a <> m then
      raise
        (Invalid_schedule
           (Printf.sprintf "%s: assignment has %d entries for %d machines"
              (Policy.name policy) (Array.length a) m));
    let ntouched = ref 0 in
    for i = 0 to m - 1 do
      let j = a.(i) in
      if j = -1 then incr idle
      else if j < 0 || j >= n then
        raise
          (Invalid_schedule
             (Printf.sprintf "%s: machine %d assigned to bad job %d"
                (Policy.name policy) i j))
      else if not remaining.(j) then incr wasted
      else if not eligible.(j) then
        raise
          (Invalid_schedule
             (Printf.sprintf
                "%s: machine %d assigned to ineligible job %d at step %d"
                (Policy.name policy) i j !time))
      else begin
        incr busy;
        if mass.(j) < Trace.threshold trace j then begin
          mass.(j) <- mass.(j) +. Instance.log_failure inst i j;
          touched.(!ntouched) <- j;
          incr ntouched
        end
      end
    done;
    (* Completions take effect at the end of the unit step. *)
    for k = 0 to !ntouched - 1 do
      let j = touched.(k) in
      if remaining.(j) && mass.(j) >= w_lo.(j) then complete j
    done;
    incr time
  done;
  if obs then begin
    let t_done = Suu_obs.Clock.now_ns () in
    Suu_obs.Span.record ~name:"engine.init" ~start_ns:t_start ~stop_ns:t_init
      ();
    Suu_obs.Span.record ~name:"engine.exec" ~start_ns:t_init ~stop_ns:t_done
      ();
    Suu_obs.Counter.incr c_runs;
    Suu_obs.Counter.add c_steps !time;
    Suu_obs.Counter.add c_busy !busy;
    Suu_obs.Counter.add c_wasted !wasted;
    Suu_obs.Counter.add c_idle !idle
  end;
  { makespan = !time; busy_steps = !busy; wasted_steps = !wasted;
    idle_steps = !idle }

let run ?cap ?on_step inst policy ~trace ~rng =
  let n = Instance.n inst in
  if Trace.n trace <> n then invalid_arg "Engine.run: trace size mismatch";
  let s = claim n in
  Fun.protect
    ~finally:(fun () -> release s)
    (fun () -> run_on s ?cap ?on_step inst policy ~trace ~rng)

let makespan ?cap inst policy ~trace ~rng =
  (run ?cap inst policy ~trace ~rng).makespan

let run_recorded ?cap inst policy ~trace ~rng =
  let rows = ref [] in
  let on_step ~time:_ ~assignment = rows := Array.copy assignment :: !rows in
  let result = run ?cap ~on_step inst policy ~trace ~rng in
  (result, Array.of_list (List.rev !rows))
