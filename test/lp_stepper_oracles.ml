(* The LP steppers as they were before they became allocation-free
   state machines: SUU-I-SEM filtering its scope through lists and
   [Array.make]-ing a row per serial step, SUU-C rebuilding its
   superstep queues as lists and a fresh SUU-I-SEM policy value (cache
   handle included) at every segment boundary, and SUU-T rescanning the
   whole current block at every step.  They are the specification the
   steppers in [Suu_core.Suu_i_sem], [Suu_core.Suu_c] and
   [Suu_core.Suu_t] must match bit for bit (same result, same
   assignment matrix, same [Suu_c.stats]) — see the "LP stepper
   oracles" property in test_policies.  The code is verbatim apart from
   module paths. *)

open Suu_core

module Sem = struct
  let rounds inst =
    Mathx.rounds_k ~n:(Instance.n inst) ~m:(Instance.m inst)

  type mode =
    | Rounds  (** executing the current round's oblivious plan *)
    | Repeat_last  (** m < n tail: cycle the round-K plan *)
    | Serial  (** n <= m tail: all machines on one job at a time *)

  type state = {
    mutable mode : mode;
    mutable round : int;
    mutable plan : Oblivious.t option;
    mutable pos : int;
  }

  let policy ?solver ?jobs inst =
    let m = Instance.m inst in
    let scope =
      match jobs with
      | Some js -> Array.copy js
      | None -> Array.init (Instance.n inst) (fun j -> j)
    in
    let nscope = Array.length scope in
    if nscope = 0 then invalid_arg "Suu_i_sem.policy: empty job subset";
    let k_max = Mathx.rounds_k ~n:nscope ~m in
    let idle = Array.make m (-1) in
    (* Round plans depend only on (round, survivor set) — not the trace —
       so one cache in the policy value serves every replication (and
       every domain driving this policy concurrently). *)
    let cache = Plan_cache.create ?solver inst in
    let fresh _rng =
      let st = { mode = Rounds; round = 1; plan = None; pos = 0 } in
      let survivors remaining =
        Array.of_list (List.filter (fun j -> remaining.(j)) (Array.to_list scope))
      in
      let start_round remaining =
        let js = survivors remaining in
        if Array.length js = 0 then None
        else Some (Plan_cache.plan cache ~round:st.round ~survivors:js)
      in
      let rec step ~time ~remaining ~eligible =
        match st.mode with
        | Serial -> (
            (* One remaining scoped job at a time, all machines on it. *)
            let job = Array.find_opt (fun j -> remaining.(j)) scope in
            match job with
            | None -> idle
            | Some j -> Array.make m j)
        | Repeat_last -> (
            match st.plan with
            | None -> idle
            | Some plan ->
                let h = Oblivious.horizon plan in
                let a = Oblivious.assignment_at plan (st.pos mod h) in
                st.pos <- st.pos + 1;
                a)
        | Rounds -> (
            (match st.plan with
            | Some _ -> ()
            | None ->
                st.plan <- start_round remaining;
                st.pos <- 0);
            match st.plan with
            | None -> idle
            | Some plan ->
                if st.pos < Oblivious.horizon plan then begin
                  let a = Oblivious.assignment_at plan st.pos in
                  st.pos <- st.pos + 1;
                  a
                end
                else if st.round < k_max then begin
                  st.round <- st.round + 1;
                  st.plan <- None;
                  step ~time ~remaining ~eligible
                end
                else begin
                  (* Tail phase after round K. *)
                  if nscope <= m then st.mode <- Serial
                  else begin
                    st.mode <- Repeat_last;
                    st.pos <- 0
                  end;
                  step ~time ~remaining ~eligible
                end)
      in
      step
    in
    Policy.make ~name:"suu-i-sem" ~fresh
end

module Suu_c = struct
  type stats = Suu_core.Suu_c.stats = {
    mutable supersteps : int;
    mutable max_congestion : int;
    mutable total_congestion : int;
    mutable sem_invocations : int;
    mutable sem_steps : int;
  }

  type prepared = Suu_core.Suu_c.prepared = {
    assignment : Assignment.t;
    lp_value : float;
    gamma : int;
    load : int;
    long_jobs : int list;
    chains : Suu_dag.Chains.t;
  }

  (* Per-chain program item. *)
  type item = Short of int | Pause of int

  (* Per-execution chain cursor.  [offset = gamma] on a pause means the
     pause has elapsed and the chain is waiting for its long job. *)
  type cursor = { mutable item : int; mutable offset : int }

  type mode =
    | Flatten of {
        queues : int array array; (* per machine: jobs this superstep *)
        duration : int;
        mutable tstep : int;
      }
    | Need_superstep
    | Sem of { step : Policy.stepper; targets : int list }

  type exec = {
    cursors : cursor array;
    delays : int array;
    mutable superstep : int;
    mutable mode : mode;
    pause_started : bool array; (* per job: its pause has begun *)
  }

  let policy_of_prepared ?solver ?stats ?(random_delays = true)
      ?(delay_granularity = 1) inst prep =
    if delay_granularity < 1 then
      invalid_arg "Suu_c: delay_granularity must be >= 1";
    let m = Instance.m inst in
    let n = Instance.n inst in
    let chain_arr = Array.of_list prep.chains in
    let nchains = Array.length chain_arr in
    let is_long = Array.make n false in
    List.iter (fun j -> is_long.(j) <- true) prep.long_jobs;
    let d = Array.make n 1 in
    let machines_of = Array.make n [] in
    Array.iter
      (fun chain ->
        Array.iter
          (fun j ->
            d.(j) <- max 1 (Assignment.job_length prep.assignment j);
            machines_of.(j) <- Assignment.machines_of_job prep.assignment j)
          chain)
      chain_arr;
    let items =
      Array.map
        (fun chain ->
          Array.map (fun j -> if is_long.(j) then Pause j else Short j) chain)
        chain_arr
    in
    (* The stats sink is shared by every stepper of this policy value, and
       steppers may run concurrently (parallel runner) — serialize updates. *)
    let stats_lock = Mutex.create () in
    let with_stats f =
      match stats with
      | None -> ()
      | Some s ->
          Mutex.lock stats_lock;
          f s;
          Mutex.unlock stats_lock
    in
    let record_superstep duration =
      with_stats (fun s ->
          s.supersteps <- s.supersteps + 1;
          s.total_congestion <- s.total_congestion + duration;
          if duration > s.max_congestion then s.max_congestion <- duration)
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
          cursors = Array.init nchains (fun _ -> { item = 0; offset = 0 });
          delays;
          superstep = 0;
          mode = Need_superstep;
          pause_started = Array.make n false;
        }
      in
      (* Requests of chain c for the coming superstep; also marks pause
         starts.  Returns (job, machines) or None. *)
      let chain_requests c ~remaining =
        let cur = ex.cursors.(c) in
        let prog = items.(c) in
        if ex.superstep < ex.delays.(c) || cur.item >= Array.length prog then
          None
        else
          match prog.(cur.item) with
          | Short j ->
              if remaining.(j) then begin
                let ms =
                  List.filter_map
                    (fun (i, xij) -> if xij > cur.offset then Some i else None)
                    machines_of.(j)
                in
                Some (j, ms)
              end
              else None
          | Pause j ->
              if cur.offset = 0 && remaining.(j) then ex.pause_started.(j) <- true;
              None
      in
      (* Advance every chain by one superstep (called after the superstep's
         flattened timesteps have run). *)
      let advance_chains ~remaining =
        for c = 0 to nchains - 1 do
          let cur = ex.cursors.(c) in
          let prog = items.(c) in
          if ex.superstep >= ex.delays.(c) && cur.item < Array.length prog then begin
            match prog.(cur.item) with
            | Short j ->
                if cur.offset + 1 >= d.(j) then begin
                  if remaining.(j) then cur.offset <- 0 (* failed: repeat *)
                  else begin
                    cur.item <- cur.item + 1;
                    cur.offset <- 0
                  end
                end
                else cur.offset <- cur.offset + 1
            | Pause j ->
                if not remaining.(j) then begin
                  cur.item <- cur.item + 1;
                  cur.offset <- 0
                end
                else if cur.offset < prep.gamma then cur.offset <- cur.offset + 1
                (* offset = gamma: pause elapsed, wait for the SEM runs. *)
          end
        done;
        ex.superstep <- ex.superstep + 1
      in
      let pending_long ~remaining =
        List.filter (fun j -> ex.pause_started.(j) && remaining.(j))
          prep.long_jobs
      in
      let rec step ~time ~remaining ~eligible =
        match ex.mode with
        | Sem { step = inner; targets } ->
            if List.exists (fun j -> remaining.(j)) targets then begin
              with_stats (fun s -> s.sem_steps <- s.sem_steps + 1);
              inner ~time ~remaining ~eligible
            end
            else begin
              ex.mode <- Need_superstep;
              step ~time ~remaining ~eligible
            end
        | Need_superstep ->
            (* Segment boundary: run SUU-I-SEM on pending long jobs. *)
            if ex.superstep > 0 && ex.superstep mod prep.gamma = 0 then begin
              match pending_long ~remaining with
              | [] -> build_superstep ~time ~remaining ~eligible
              | targets ->
                  with_stats (fun s ->
                      s.sem_invocations <- s.sem_invocations + 1);
                  let inner_policy =
                    Sem.policy ?solver ~jobs:(Array.of_list targets) inst
                  in
                  (* Mark handled: these pauses will have completed. *)
                  ex.mode <-
                    Sem { step = Policy.fresh inner_policy rng; targets };
                  step ~time ~remaining ~eligible
            end
            else build_superstep ~time ~remaining ~eligible
        | Flatten f ->
            if f.tstep < f.duration then begin
              let buf = Array.make m (-1) in
              for i = 0 to m - 1 do
                let q = f.queues.(i) in
                if f.tstep < Array.length q then buf.(i) <- q.(f.tstep)
              done;
              f.tstep <- f.tstep + 1;
              buf
            end
            else begin
              advance_chains ~remaining;
              ex.mode <- Need_superstep;
              step ~time ~remaining ~eligible
            end
      and build_superstep ~time ~remaining ~eligible =
        let queues = Array.make m [] in
        let congestion = ref 0 in
        for c = 0 to nchains - 1 do
          match chain_requests c ~remaining with
          | None -> ()
          | Some (j, ms) ->
              List.iter
                (fun i ->
                  queues.(i) <- j :: queues.(i);
                  let len = List.length queues.(i) in
                  if len > !congestion then congestion := len)
                ms
        done;
        let duration = max 1 !congestion in
        record_superstep duration;
        ex.mode <-
          Flatten
            {
              queues = Array.map (fun l -> Array.of_list (List.rev l)) queues;
              duration;
              tstep = 0;
            };
        step ~time ~remaining ~eligible
      in
      fun ~time ~remaining ~eligible -> step ~time ~remaining ~eligible
    in
    Policy.make ~name:"suu-c" ~fresh
end

module Suu_t = struct
  let blocks inst =
    match Suu_dag.Forest.decompose (Instance.dag inst) with
    | Some blocks -> blocks
    | None -> invalid_arg "Suu_t.policy: precedence dag is not a forest"

  let policy ?solver ?top_machines inst =
    let stage_chains = blocks inst in
    let stages =
      Array.map
        (fun chains ->
          let prep = Suu_core.Suu_c.prepare ?top_machines ?solver inst ~chains in
          (chains, Suu_c.policy_of_prepared ?solver inst prep))
        stage_chains
    in
    let m = Instance.m inst in
    let idle = Array.make m (-1) in
    let fresh rng =
      let stage = ref 0 in
      let stepper = ref None in
      let block_done remaining chains =
        List.for_all
          (fun chain -> Array.for_all (fun j -> not remaining.(j)) chain)
          chains
      in
      let rec step ~time ~remaining ~eligible =
        if !stage >= Array.length stages then idle
        else begin
          let chains, pol = stages.(!stage) in
          if block_done remaining chains then begin
            stage := !stage + 1;
            stepper := None;
            step ~time ~remaining ~eligible
          end
          else begin
            let s =
              match !stepper with
              | Some s -> s
              | None ->
                  let s = Policy.fresh pol rng in
                  stepper := Some s;
                  s
            in
            s ~time ~remaining ~eligible
          end
        end
      in
      step
    in
    Policy.make ~name:"suu-t" ~fresh
end
