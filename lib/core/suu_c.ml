type stats = {
  mutable supersteps : int;
  mutable max_congestion : int;
  mutable total_congestion : int;
  mutable sem_invocations : int;
  mutable sem_steps : int;
}

let new_stats () =
  {
    supersteps = 0;
    max_congestion = 0;
    total_congestion = 0;
    sem_invocations = 0;
    sem_steps = 0;
  }

type prepared = {
  assignment : Assignment.t;
  lp_value : float;
  gamma : int;
  load : int;
  long_jobs : int list;
  chains : Suu_dag.Chains.t;
}

let prepare ?top_machines ?solver inst ~chains =
  let frac = Lp2.solve ?top_machines ?solver inst ~chains in
  let assignment = Lp2.round inst frac in
  let m = Instance.m inst in
  let covered = Suu_dag.Chains.total_jobs chains in
  let gamma =
    max 1
      (Mathx.ceil_pos (frac.Lp2.value /. Mathx.log2 (float_of_int (covered + m))))
  in
  let long_jobs = ref [] in
  List.iter
    (fun chain ->
      Array.iter
        (fun j ->
          if Assignment.job_length assignment j > gamma then
            long_jobs := j :: !long_jobs)
        chain)
    chains;
  (* Load over short jobs only: long jobs never enter the pseudoschedule. *)
  let is_long = Array.make (Instance.n inst) false in
  List.iter (fun j -> is_long.(j) <- true) !long_jobs;
  let load = ref 1 in
  for i = 0 to m - 1 do
    let acc = ref 0 in
    for j = 0 to Instance.n inst - 1 do
      if not is_long.(j) then acc := !acc + Assignment.get assignment i j
    done;
    if !acc > !load then load := !acc
  done;
  {
    assignment;
    lp_value = frac.Lp2.value;
    gamma;
    load = !load;
    long_jobs = List.rev !long_jobs;
    chains;
  }

(* Stepper modes: constant constructors, so a switch allocates nothing. *)
type mode =
  | Need_superstep
  | Flatten  (** serving the current superstep's queues, one slot a step *)
  | Sem  (** a SUU-I-SEM run over the pending long jobs *)

(* Per-execution state.  Chain [c] is at job [chains.(c).(item.(c))],
   [offset.(c)] supersteps into it; [offset = gamma] on a pause means
   the pause has elapsed and the chain is waiting for its long job. *)
type exec = {
  item : int array;
  offset : int array;
  delays : int array;
  started : int array;
      (* positions in [long_jobs] of the pauses begun so far, less some
         whose long job has been seen complete; [nstarted] are live *)
  mutable nstarted : int;
  queue : int array;
      (* m x nchains: machine i's requests this superstep, in chain
         order, at [i * nchains ..]; a chain makes at most one per
         machine *)
  qlen : int array;
  row : int array; (* the machine -> job row returned every step *)
  mutable superstep : int;
  mutable mode : mode;
  mutable duration : int; (* flattened length of the current superstep *)
  mutable tstep : int;
  mutable sem : Policy.stepper;
  mutable targets : int array; (* the SEM run's scope *)
  mutable tcur : int; (* every targets.(< tcur) is complete *)
}

let no_sem ~time:_ ~remaining:_ ~eligible:_ =
  invalid_arg "Suu_c: no SEM run in progress"

(* The jobs of [long_jobs], in that order, that are remaining and whose
   pause has begun.  The order is part of the SEM plans' cache key.
   Only begun pauses are visited: completed ones are dropped for good
   (jobs never turn remaining again), and the survivors are sorted by
   position, which is [long_jobs] order. *)
let pending_long long_jobs ex remaining =
  let k = ref 0 in
  for t = 0 to ex.nstarted - 1 do
    let p = ex.started.(t) in
    if remaining.(long_jobs.(p)) then begin
      ex.started.(!k) <- p;
      incr k
    end
  done;
  ex.nstarted <- !k;
  if !k = 0 then [||]
  else begin
    (* Insertion sort: the live pauses are few, and already sorted but
       for those begun since the last boundary. *)
    for t = 1 to !k - 1 do
      let p = ex.started.(t) in
      let u = ref (t - 1) in
      while !u >= 0 && ex.started.(!u) > p do
        ex.started.(!u + 1) <- ex.started.(!u);
        decr u
      done;
      ex.started.(!u + 1) <- p
    done;
    let ts = Array.make !k 0 in
    for t = 0 to !k - 1 do
      ts.(t) <- long_jobs.(ex.started.(t))
    done;
    ts
  end

let policy_of_prepared ?solver ?stats ?(random_delays = true)
    ?(delay_granularity = 1) inst prep =
  if delay_granularity < 1 then
    invalid_arg "Suu_c: delay_granularity must be >= 1";
  let m = Instance.m inst in
  let n = Instance.n inst in
  let chains = Array.of_list prep.chains in
  let nchains = Array.length chains in
  let long_jobs = Array.of_list prep.long_jobs in
  (* Per job: its position in [long_jobs], or -1 for a short job. *)
  let long_pos = Array.make n (-1) in
  Array.iteri (fun p j -> long_pos.(j) <- p) long_jobs;
  (* Per job: d_j, and its machines with their x_ij (ascending by
     machine). *)
  let d = Array.make n 1 in
  let machines = Array.make n [||] in
  let xs = Array.make n [||] in
  Array.iter
    (Array.iter (fun j ->
         d.(j) <- max 1 (Assignment.job_length prep.assignment j);
         let ms = Assignment.machines_of_job prep.assignment j in
         machines.(j) <- Array.of_list (List.map fst ms);
         xs.(j) <- Array.of_list (List.map snd ms)))
    chains;
  (* One plan-cache handle serves every SEM run of every execution. *)
  let cache =
    if Array.length long_jobs = 0 then None
    else Some (Plan_cache.create ?solver inst)
  in
  (* The stats sink is shared by every stepper of this policy value, and
     steppers may run concurrently (parallel runner) — serialize updates. *)
  let stats_lock = Mutex.create () in
  let record_superstep duration =
    match stats with
    | None -> ()
    | Some s ->
        Mutex.lock stats_lock;
        s.supersteps <- s.supersteps + 1;
        s.total_congestion <- s.total_congestion + duration;
        if duration > s.max_congestion then s.max_congestion <- duration;
        Mutex.unlock stats_lock
  in
  let record_sem ~invocation =
    match stats with
    | None -> ()
    | Some s ->
        Mutex.lock stats_lock;
        if invocation then s.sem_invocations <- s.sem_invocations + 1
        else s.sem_steps <- s.sem_steps + 1;
        Mutex.unlock stats_lock
  in
  let fresh rng =
    (* Delays are drawn on a lattice of [delay_granularity] supersteps —
       the paper's coarsening device for nonpolynomial t_LP2 reduces the
       number of distinct delay values the same way. *)
    let delays =
      let g = delay_granularity in
      let slots = (prep.load / g) + 1 in
      Array.init nchains (fun _ ->
          if random_delays then g * Suu_prng.Rng.int rng slots else 0)
    in
    let ex =
      {
        item = Array.make nchains 0;
        offset = Array.make nchains 0;
        delays;
        started = Array.make (Array.length long_jobs) 0;
        nstarted = 0;
        queue = Array.make (m * nchains) (-1);
        qlen = Array.make m 0;
        row = Array.make m (-1);
        superstep = 0;
        mode = Need_superstep;
        duration = 0;
        tstep = 0;
        sem = no_sem;
        targets = [||];
        tcur = 0;
      }
    in
    (* Queue every active chain's request for the coming superstep: its
       short job [j] on each machine still serving it at this offset
       (x_ij > offset).  A chain at the start of a pause records it in
       [started]. *)
    let build_superstep remaining =
      Array.fill ex.qlen 0 m 0;
      let congestion = ref 0 in
      for c = 0 to nchains - 1 do
        let chain = chains.(c) in
        let k = ex.item.(c) in
        if ex.superstep >= ex.delays.(c) && k < Array.length chain then begin
          let j = chain.(k) in
          let off = ex.offset.(c) in
          if long_pos.(j) >= 0 then begin
            (* A pause sits at offset 0 in one superstep only (the
               next advance moves it on or raises the offset), so each
               long job is recorded at most once. *)
            if off = 0 && remaining.(j) then begin
              ex.started.(ex.nstarted) <- long_pos.(j);
              ex.nstarted <- ex.nstarted + 1
            end
          end
          else if remaining.(j) then begin
            let ms = machines.(j) and x = xs.(j) in
            for t = 0 to Array.length ms - 1 do
              if x.(t) > off then begin
                let i = ms.(t) in
                let len = ex.qlen.(i) + 1 in
                ex.queue.((i * nchains) + len - 1) <- j;
                ex.qlen.(i) <- len;
                if len > !congestion then congestion := len
              end
            done
          end
        end
      done;
      let duration = if !congestion < 1 then 1 else !congestion in
      record_superstep duration;
      ex.duration <- duration;
      ex.tstep <- 0;
      ex.mode <- Flatten
    in
    (* Advance every chain by one superstep (called after the superstep's
       flattened timesteps have run). *)
    let advance_chains remaining =
      for c = 0 to nchains - 1 do
        let chain = chains.(c) in
        let k = ex.item.(c) in
        if ex.superstep >= ex.delays.(c) && k < Array.length chain then begin
          let j = chain.(k) in
          let off = ex.offset.(c) in
          if long_pos.(j) >= 0 then begin
            if not remaining.(j) then begin
              ex.item.(c) <- k + 1;
              ex.offset.(c) <- 0
            end
            else if off < prep.gamma then ex.offset.(c) <- off + 1
            (* offset = gamma: pause elapsed, wait for the SEM runs. *)
          end
          else if off + 1 >= d.(j) then begin
            if not remaining.(j) then ex.item.(c) <- k + 1;
            (* else failed: repeat the block *)
            ex.offset.(c) <- 0
          end
          else ex.offset.(c) <- off + 1
        end
      done;
      ex.superstep <- ex.superstep + 1
    in
    let rec step ~time ~remaining ~eligible =
      match ex.mode with
      | Sem ->
          let ts = ex.targets in
          while ex.tcur < Array.length ts && not remaining.(ts.(ex.tcur)) do
            ex.tcur <- ex.tcur + 1
          done;
          if ex.tcur < Array.length ts then begin
            record_sem ~invocation:false;
            ex.sem ~time ~remaining ~eligible
          end
          else begin
            ex.sem <- no_sem;
            ex.mode <- Need_superstep;
            step ~time ~remaining ~eligible
          end
      | Need_superstep ->
          (* Segment boundary: run SUU-I-SEM on pending long jobs. *)
          let targets =
            if ex.superstep > 0 && ex.superstep mod prep.gamma = 0 then
              pending_long long_jobs ex remaining
            else [||]
          in
          (match cache with
          | Some cache when Array.length targets > 0 ->
              record_sem ~invocation:true;
              ex.sem <- Suu_i_sem.scoped cache ~m targets;
              ex.targets <- targets;
              ex.tcur <- 0;
              ex.mode <- Sem
          | _ -> build_superstep remaining);
          step ~time ~remaining ~eligible
      | Flatten ->
          if ex.tstep < ex.duration then begin
            let t = ex.tstep in
            for i = 0 to m - 1 do
              ex.row.(i) <-
                (if t < ex.qlen.(i) then ex.queue.((i * nchains) + t) else -1)
            done;
            ex.tstep <- t + 1;
            ex.row
          end
          else begin
            advance_chains remaining;
            ex.mode <- Need_superstep;
            step ~time ~remaining ~eligible
          end
    in
    step
  in
  Policy.make ~name:"suu-c" ~fresh

let policy ?solver ?top_machines ?stats ?random_delays ?delay_granularity
    inst =
  match Suu_dag.Chains.of_dag (Instance.dag inst) with
  | None -> invalid_arg "Suu_c.policy: precedence dag is not disjoint chains"
  | Some chains ->
      let prep = prepare ?top_machines ?solver inst ~chains in
      policy_of_prepared ?solver ?stats ?random_delays ?delay_granularity
        inst prep
