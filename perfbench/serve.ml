(* The serve-open workload: open-loop Poisson arrivals against a
   [suu serve --port 0] daemon spawned with its default configuration.

   Requests are describe / plan / simulate with the [auto] and [lzf]
   policies.  Most go to a fixed pool of instances, so the plan cache
   hits; a fixed fraction carry never-seen instances, which puts MWU LP
   solves and instance-cache eviction on the request path.  Each
   request is timed from its scheduled send time to its complete
   response.  Load comes from this one process over at most [nproc]
   connections.

   Untraced run: spawn the daemon several times ([setup_s] is the
   median spawn-to-ready time) and warm it with every repeated request
   body.  Then, for the given seconds, alternate fixed-rate windows
   ([p50_ms], [p99_ms]) with the steps of a rate staircase ([slo_rps]:
   the highest rate whose p99 meets the latency limit with no growing
   backlog).  Every ok response must equal [Service.handle] of the same
   body in this process, and two replays of the same stream must give
   identical (id, frame) multisets.

   Traced run: fixed-rate windows between two [stats] replies, whose
   phase histograms give the daemon's own view, then the same requests
   replayed in-process on one thread through [Protocol] and [Service],
   plus the LP, runner and engine layers on the stream's simulate
   cells. *)

module P = Suu_server.Protocol
module Service = Suu_server.Service
module W = Suu_workload.Workload
module SC = Suu_core.Solver_choice

(* Fixed offered rate of the latency windows — about half the SLO rate
   a 2-core host sustains on this mix (480/s measured) — and the latency
   limit of the SLO. *)
let fixed_rps = 240.0
let limit_ms = 25.0
let sim_reps = 16

type req = {
  id : string;
  body : P.body;
  bytes : string;
  cold : bool;  (** carries a never-seen instance *)
  at : float;  (** scheduled send time, seconds from the phase start *)
  mutable sent : float;  (** first byte written; -1 until then *)
  mutable recv : float;  (** response complete; -1 until then *)
  mutable resp : string;
}

(* --- the request stream --- *)

let pool_size ~tiny = if tiny then 4 else 24

let gen_instance ~seed k =
  let u = W.Uniform { lo = 0.2; hi = 0.95 } in
  let s = Sweep.derive seed 7 k in
  match k mod 3 with
  | 0 -> W.independent u ~n:(24 + (8 * (k mod 4))) ~m:(4 + (k mod 5)) ~seed:s
  | 1 -> W.random_chains u ~n:32 ~z:4 ~m:6 ~seed:s
  | _ -> W.forest u ~n:30 ~trees:3 ~orientation:`Mixed ~m:5 ~seed:s

let pool ~tiny ~seed = Array.init (pool_size ~tiny) (gen_instance ~seed)

let policies = [| "auto"; "lzf" |]
let req_seeds = 4

(* Every distinct body that targets the pool: what warm-up sends. *)
let pool_bodies pool =
  Array.to_list pool
  |> List.concat_map (fun inst ->
         P.Describe inst
         :: List.concat_map
              (fun policy ->
                List.concat_map
                  (fun seed ->
                    [
                      P.Plan { inst; policy; seed };
                      P.Simulate { inst; policy; reps = sim_reps; seed };
                    ])
                  (List.init req_seeds Fun.id))
              (Array.to_list policies))

let frame ~id body = P.request_to_string { P.id = Some id; deadline_ms = None; body }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [count] arrivals of a Poisson process at [rate] starting at [t0].
   The mix is exact, in shuffled order: of every 20 requests 5 are
   describe, 8 plan and 7 simulate, half use each policy, and one
   carries a never-seen instance (numbered from [cold_base]); the rest
   draw uniformly from the pool. *)
let stream ~seed ~tag ~pool ~rate ~t0 ~count ~cold_base =
  let st = Random.State.make [| seed; Hashtbl.hash tag |] in
  let kinds = shuffle st (Array.init count (fun i -> i mod 20)) in
  let cold = shuffle st (Array.init count (fun i -> i mod 20 = 0)) in
  let pol = shuffle st (Array.init count (fun i -> i mod 2)) in
  let t = ref t0 and cold_n = ref cold_base in
  let reqs =
    Array.init count (fun k ->
        t := !t -. (log (1.0 -. Random.State.float st 1.0) /. rate);
        let inst =
          if cold.(k) then begin
            incr cold_n;
            gen_instance ~seed (1000 + !cold_n)
          end
          else pool.(Random.State.int st (Array.length pool))
        in
        let policy = policies.(pol.(k)) in
        let rseed = Random.State.int st req_seeds in
        let body =
          if kinds.(k) < 5 then P.Describe inst
          else if kinds.(k) < 13 then P.Plan { inst; policy; seed = rseed }
          else P.Simulate { inst; policy; reps = sim_reps; seed = rseed }
        in
        let id = Printf.sprintf "%s%d" tag k in
        {
          id;
          body;
          bytes = frame ~id body;
          cold = cold.(k);
          at = !t;
          sent = -1.0;
          recv = -1.0;
          resp = "";
        })
  in
  (reqs, !cold_n)

(* --- the daemon --- *)

type daemon = { pid : int; port : int; out : Unix.file_descr }

let daemon_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         (* the default configuration: no solver, fault, journal or
            trace overrides from the caller's environment *)
         not
           (List.exists
              (fun p -> String.length kv >= String.length p && String.sub kv 0 (String.length p) = p)
              [ "SUU_SOLVER="; "SUU_FAULTS="; "SUU_JOURNAL="; "SUU_TRACE=" ]))
  |> Array.of_list

let read_line_fd fd ~timeout =
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let deadline = Pb.now_s () +. timeout in
  let rec loop () =
    let left = deadline -. Pb.now_s () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ ->
              if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
              else begin
                Buffer.add_char buf (Bytes.get b 0);
                loop ()
              end)
  in
  loop ()

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Pb.now_s () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Pb.now_s () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close d.out

(* Spawn and wait for the "listening on HOST:PORT" line. *)
let spawn ~suu =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env suu [| suu; "serve"; "--port"; "0" |] (daemon_env ())
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  match read_line_fd r ~timeout:30.0 with
  | Some line -> (
      match Scanf.sscanf line "suu-serve listening on %[^:]:%d" (fun _ p -> p) with
      | port -> Some { pid; port; out = r }
      | exception _ ->
          Pb.fail ("unexpected daemon banner: " ^ line);
          stop_daemon { pid; port = 0; out = r };
          None)
  | None ->
      Pb.fail "daemon did not report ready";
      stop_daemon { pid; port = 0; out = r };
      None

(* --- the open-loop generator --- *)

type conn = {
  fd : Unix.file_descr;
  pending : req Queue.t;  (** released, not yet fully written *)
  mutable written : int;
  inbuf : Buffer.t;
  mutable dead : bool;
}

let frame_id frame =
  List.find_map
    (fun l ->
      if String.length l > 3 && String.sub l 0 3 = "id " then
        Some (String.sub l 3 (String.length l - 3))
      else None)
    (String.split_on_char '\n' frame)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    pending = Queue.create ();
    written = 0;
    inbuf = Buffer.create 65536;
    dead = false;
  }

type outcome = {
  released : int;
  answered : int;
  aborted : bool;
  wall : float;
}

(* Release every request at its scheduled time (relative to [origin])
   regardless of progress, over [conns] round-robin, and collect
   responses by id.  With [abort_outstanding], stop releasing once that
   many requests are outstanding or the oldest has waited [abort_ms]
   (a staircase step that clearly misses the limit stops early instead
   of overflowing the daemon's queue).  Waits at most [drain_s] after
   the last release for outstanding answers. *)
let drain_s = 10.0

let run_open_loop ?abort_outstanding ?(abort_ms = infinity)
    ~conns ~origin (reqs : req array) =
  let total = Array.length reqs in
  let by_id = Hashtbl.create (2 * total) in
  Array.iter (fun q -> Hashtbl.replace by_id q.id q) reqs;
  let now () = Pb.now_s () -. origin in
  let next = ref 0 and answered = ref 0 and aborted = ref false in
  let outstanding = Queue.create () in
  let chunk = Bytes.create 65536 in
  let kill c =
    if not c.dead then begin
      c.dead <- true;
      Pb.fail "generator connection closed by the daemon"
    end
  in
  let rec flush c =
    match Queue.peek_opt c.pending with
    | None -> ()
    | Some q -> (
        let len = String.length q.bytes in
        match Unix.write_substring c.fd q.bytes c.written (len - c.written) with
        | n ->
            if q.sent < 0.0 then q.sent <- now ();
            c.written <- c.written + n;
            if c.written >= len then begin
              ignore (Queue.pop c.pending);
              c.written <- 0;
              flush c
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> kill c)
  in
  let scan c =
    (* complete frames end with a "done" line *)
    let s = Buffer.contents c.inbuf in
    let start = ref 0 in
    let rec go i =
      match String.index_from_opt s i '\n' with
      | None -> ()
      | Some j ->
          if j - i = 4 && String.sub s i 4 = "done" then begin
            let fr = String.sub s !start (j + 1 - !start) in
            start := j + 1;
            match frame_id fr with
            | Some id -> (
                match Hashtbl.find_opt by_id id with
                | Some q when q.recv < 0.0 ->
                    q.recv <- now ();
                    q.resp <- fr;
                    incr answered
                | _ -> Pb.fail ("unexpected response id " ^ id))
            | None -> Pb.fail "response without id"
          end;
          go (j + 1)
    in
    go 0;
    if !start > 0 then begin
      let rest = String.sub s !start (String.length s - !start) in
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf rest
    end
  in
  let rec read_all c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> kill c
    | n ->
        Buffer.add_subbytes c.inbuf chunk 0 n;
        read_all c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        scan c
    | exception Unix.Unix_error _ -> kill c
  in
  let last_release = ref 0.0 in
  let finished () =
    let all_released = !next >= total || !aborted in
    all_released
    && (!answered >= !next || now () > !last_release +. drain_s
       || Array.for_all (fun c -> c.dead) conns)
  in
  while not (finished ()) do
    let t = now () in
    (* drop answered requests from the head of the outstanding queue *)
    while
      (not (Queue.is_empty outstanding)) && (Queue.peek outstanding).recv >= 0.0
    do
      ignore (Queue.pop outstanding)
    done;
    (match abort_outstanding with
    | Some lim when not !aborted ->
        let oldest_wait =
          match Queue.peek_opt outstanding with
          | Some q -> 1000.0 *. (t -. q.at)
          | None -> 0.0
        in
        if !next - !answered > lim || oldest_wait > abort_ms then aborted := true
    | _ -> ());
    if not !aborted then
      while !next < total && reqs.(!next).at <= t do
        let q = reqs.(!next) in
        let c = conns.(!next mod Array.length conns) in
        Queue.push q c.pending;
        Queue.push q outstanding;
        last_release := t;
        incr next
      done;
    Array.iter (fun c -> if not c.dead then flush c) conns;
    let wait =
      if !next < total && not !aborted then
        Float.max 0.0 (Float.min 0.002 (reqs.(!next).at -. now ()))
      else 0.002
    in
    let live = List.filter (fun c -> not c.dead) (Array.to_list conns) in
    let rd = List.map (fun c -> c.fd) live in
    let wr =
      List.filter_map
        (fun c -> if Queue.is_empty c.pending then None else Some c.fd)
        live
    in
    match Unix.select rd wr [] wait with
    | r, _, _ ->
        List.iter (fun c -> if List.memq c.fd r then read_all c) live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  { released = !next; answered = !answered; aborted = !aborted; wall = now () }

(* Count released requests: error replies and missing replies fail. *)
let account ~what (reqs : req array) n =
  for i = 0 to n - 1 do
    let q = reqs.(i) in
    incr Pb.attempted;
    if q.recv < 0.0 then Pb.fail (Printf.sprintf "%s: no response to %s" what q.id)
    else
      match P.response_of_string q.resp with
      | Some (P.Ok _) -> ()
      | Some (P.Err { code; message; _ }) ->
          Pb.fail
            (Printf.sprintf "%s: %s answered %s: %s" what q.id
               (P.error_code_to_string code) message)
      | None -> Pb.fail (Printf.sprintf "%s: unparsable response to %s" what q.id)
  done

let latencies_ms (reqs : req array) n =
  Array.init n (fun i -> reqs.(i))
  |> Array.to_list
  |> List.filter (fun q -> q.recv >= 0.0)
  |> List.map (fun q -> 1000.0 *. (q.recv -. q.at))
  |> Array.of_list

let lags_ms (reqs : req array) n =
  Array.init n (fun i -> reqs.(i))
  |> Array.to_list
  |> List.filter (fun q -> q.sent >= 0.0)
  |> List.map (fun q -> 1000.0 *. (q.sent -. q.at))
  |> Array.of_list

let reset (reqs : req array) =
  Array.map (fun q -> { q with sent = -1.0; recv = -1.0; resp = "" }) reqs

(* Simulated replications and steps in the ok simulate replies. *)
let sim_work (reqs : req array) n =
  let reps = ref 0 and steps = ref 0.0 in
  for i = 0 to n - 1 do
    match (reqs.(i).body, P.response_of_string reqs.(i).resp) with
    | P.Simulate { reps = r; _ }, Some (P.Ok { fields; _ }) -> (
        match List.assoc_opt "mean" fields with
        | Some m ->
            reps := !reps + r;
            steps := !steps +. (float_of_string m *. float_of_int r)
        | None -> ())
    | _ -> ()
  done;
  (!reps, !steps)

(* --- checks --- *)

let stats_fields port =
  match
    Pb.op "stats request" (fun () ->
        let c = Suu_server.Client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Suu_server.Client.close c)
          (fun () -> Suu_server.Client.call c P.Stats))
  with
  | Some (P.Ok { fields; _ }) -> fields
  | Some (P.Err { message; _ }) ->
      Pb.fail ("stats refused: " ^ message);
      []
  | None -> []

let local_service () =
  Service.create ~solver:SC.serve_default ~metrics:(Suu_server.Metrics.create ()) ()

let render id body result =
  match result with
  | Ok fields -> P.response_to_string (P.Ok { id = Some id; rtype = P.body_type body; fields })
  | Error (code, message) -> P.response_to_string (P.Err { id = Some id; code; message })

(* Every ok response must equal [Service.handle] of the same body in
   this process; bodies are handled once each. *)
let verify_against_service svc (batches : (req array * int) list) =
  let memo = Hashtbl.create 1024 in
  List.iter
    (fun ((reqs : req array), n) ->
      for i = 0 to n - 1 do
        let q = reqs.(i) in
        match P.response_of_string q.resp with
        | Some (P.Ok _) ->
            let key = frame ~id:"" q.body in
            let expected =
              match Hashtbl.find_opt memo key with
              | Some r -> r
              | None ->
                  let r = try Service.handle svc q.body with e ->
                    Error (P.Internal, Printexc.to_string e) in
                  Hashtbl.replace memo key r;
                  r
            in
            Pb.check
              (Printf.sprintf "response to %s differs from Service.handle" q.id)
              (String.equal (render q.id q.body expected) q.resp)
        | _ -> ()
      done)
    batches

let multiset (reqs : req array) n =
  List.sort compare (List.init n (fun i -> (reqs.(i).id, reqs.(i).resp)))

(* --- phases --- *)

type phase = { reqs : req array; out : outcome; lat : float array; lag : float array }

let run_phase ?abort_outstanding ?abort_ms ~conns ~what reqs =
  let origin = Pb.now_s () in
  let out = run_open_loop ?abort_outstanding ?abort_ms ~conns ~origin reqs in
  account ~what reqs out.released;
  { reqs; out; lat = latencies_ms reqs out.released; lag = lags_ms reqs out.released }

let warm_up ~port bodies =
  match Pb.op "warm-up connect" (fun () -> Suu_server.Client.connect ~port ()) with
  | None -> []
  | Some c ->
      let reqs =
        List.mapi
          (fun k body ->
            let id = Printf.sprintf "w%d" k in
            let q =
              {
                id;
                body;
                bytes = frame ~id body;
                cold = false;
                at = 0.0;
                sent = 0.0;
                recv = -1.0;
                resp = "";
              }
            in
            (match Pb.op "warm-up request" (fun () -> Suu_server.Client.call c ~id body) with
            | Some r ->
                q.recv <- 0.0;
                q.resp <- P.response_to_string r
            | None -> ());
            q)
          bodies
      in
      Suu_server.Client.close c;
      let arr = Array.of_list reqs in
      Array.iter
        (fun q ->
          match P.response_of_string q.resp with
          | Some (P.Ok _) -> ()
          | _ -> Pb.fail ("warm-up request " ^ q.id ^ " failed"))
        arr;
      [ (arr, Array.length arr) ]

(* The SLO rate by a one-up/one-down staircase: a step passes when
   every released request was answered, none was held back and
   p99 <= limit; the next step's rate is the last one times [factor]
   after a pass and divided by it after a failure, and [factor] shrinks
   at each reversal.  The staircase settles around the rate at which
   half the steps pass; the estimate is the geometric mean of the step
   rates from the first reversal on (with no reversal, of the highest
   passing and lowest failing rates). *)
type stair = {
  mutable rate : float;
  mutable factor : float;
  mutable prev : bool option;
  mutable k : int;
  mutable settled : float list;  (** step rates from the first reversal on *)
  mutable best_pass : float;
  mutable worst_fail : float;
  mutable batches : (req array * int) list;
}

let new_stair () =
  {
    rate = 2.0 *. fixed_rps;
    factor = 1.1;
    prev = None;
    k = 0;
    settled = [];
    best_pass = 0.0;
    worst_fail = infinity;
    batches = [];
  }

let stair_step st ~conns ~seed ~pool ~step_s ~cold_base =
  let rate = st.rate in
  let count = max 1 (int_of_float (rate *. step_s)) in
  let reqs, cold_base =
    stream ~seed ~tag:(Printf.sprintf "l%d-" st.k) ~pool ~rate ~t0:0.02 ~count ~cold_base
  in
  st.k <- st.k + 1;
  let ph =
    run_phase ~abort_outstanding:32 ~abort_ms:(8.0 *. limit_ms) ~conns
      ~what:(Printf.sprintf "staircase %.0f rps" rate) reqs
  in
  st.batches <- (ph.reqs, ph.out.released) :: st.batches;
  let p99 = Pb.quantile ph.lat 0.99 in
  let pass =
    (not ph.out.aborted) && ph.out.answered = ph.out.released && p99 <= limit_ms
  in
  Pb.note "  staircase %8.1f rps: %5d sent, p50 %7.3f ms, p99 %8.3f ms  %s" rate
    ph.out.released (Pb.median ph.lat) p99
    (if pass then "pass" else if ph.out.aborted then "FAIL (held back)" else "FAIL");
  if pass then st.best_pass <- Float.max st.best_pass rate
  else st.worst_fail <- Float.min st.worst_fail rate;
  (match st.prev with
  | Some p when p <> pass -> st.factor <- Float.max 1.03 (sqrt st.factor)
  | _ -> ());
  if st.settled <> [] || (match st.prev with Some p -> p <> pass | None -> false)
  then st.settled <- rate :: st.settled;
  st.prev <- Some pass;
  st.rate <- (if pass then rate *. st.factor else rate /. st.factor);
  cold_base

let stair_estimate st =
  match st.settled with
  | _ :: _ as rs -> exp (Pb.mean (Array.of_list (List.map log rs)))
  | [] ->
      if st.best_pass = 0.0 then fixed_rps /. 2.0
      else if Float.is_finite st.worst_fail then sqrt (st.best_pass *. st.worst_fail)
      else st.best_pass

(* --- daemon phase histograms, from two stats snapshots --- *)

let hist_diff fields0 fields1 name =
  let key = "obs.phase." ^ name ^ ".raw" in
  let snap f =
    match List.assoc_opt key f with
    | Some raw -> Suu_obs.Histogram.snapshot_of_raw raw
    | None -> None
  in
  match (snap fields0, snap fields1) with
  | Some a, Some b when Array.length a.buckets = Array.length b.buckets ->
      Some
        {
          b with
          Suu_obs.Histogram.count = b.count - a.count;
          sum = b.sum -. a.sum;
          buckets = Array.mapi (fun i x -> x - a.buckets.(i)) b.buckets;
        }
  | _, Some b -> Some b
  | _ -> None

let ref_hist = Suu_obs.Histogram.create "perfbench"

let hist_q snap p =
  match snap with
  | Some s -> 1000.0 *. Suu_obs.Histogram.quantile ref_hist s p
  | None -> 0.0

let int_field fields k =
  match List.assoc_opt k fields with Some v -> int_of_string_opt v | None -> None

let field_delta f0 f1 k =
  match (int_field f0 k, int_field f1 k) with
  | Some a, Some b -> b - a
  | None, Some b -> b
  | _ -> 0

let serve_cfg ~tiny = { (Sweep.lp_config ~tiny) with Sweep.solver = SC.serve_default }

(* Mean over the ok simulate replies of E[T] / lower bound, with each
   instance's certified MWU lower bound computed once. *)
let makespan_ratio (ph : phase) =
  let lbs = Hashtbl.create 64 in
  let ratios = ref [] in
  for i = 0 to ph.out.released - 1 do
    let q = ph.reqs.(i) in
    match (q.body, P.response_of_string q.resp) with
    | (P.Simulate { inst; _ } as b), Some (P.Ok { fields; _ }) -> (
        let key = Option.value ~default:"" (P.instance_digest b) in
        let lb =
          match Hashtbl.find_opt lbs key with
          | Some lb -> lb
          | None ->
              let lb =
                Option.value ~default:nan
                  (Pb.op "lower bound" (fun () ->
                       Suu_core.Lower_bound.combined ~solver:SC.serve_default inst))
              in
              Hashtbl.replace lbs key lb;
              lb
        in
        match List.assoc_opt "mean" fields with
        | Some m -> ratios := (float_of_string m /. lb) :: !ratios
        | None -> ())
    | _ -> ()
  done;
  Pb.mean (Array.of_list !ratios)

(* The request path replayed in-process on one thread: parse, handle
   and render every request of the fixed-rate stream, each timed, and
   each response compared with the daemon's. *)
let direct_replay ~warm (ph : phase) =
  let svc = local_service () in
  List.iter
    (fun ((reqs : req array), n) ->
      for i = 0 to n - 1 do
        ignore (Service.handle svc reqs.(i).body)
      done)
    warm;
  let parse_us = Pb.Samples.create () and render_us = Pb.Samples.create () in
  let handle = Hashtbl.create 4 in
  let handle_all = Pb.Samples.create () in
  let (), wall =
    Pb.time (fun () ->
        for i = 0 to ph.out.released - 1 do
          let q = ph.reqs.(i) in
          let t0 = Pb.now_s () in
          let parsed = P.request_of_string q.bytes in
          let t1 = Pb.now_s () in
          Pb.Samples.add parse_us (1e6 *. (t1 -. t0));
          match parsed with
          | None -> Pb.fail ("request_of_string rejected " ^ q.id)
          | Some r ->
              let t1 = Pb.now_s () in
              let result =
                try Service.handle svc r.P.body
                with e -> Error (P.Internal, Printexc.to_string e)
              in
              let t2 = Pb.now_s () in
              let kind = P.body_type r.P.body in
              let s =
                match Hashtbl.find_opt handle kind with
                | Some s -> s
                | None ->
                    let s = Pb.Samples.create () in
                    Hashtbl.replace handle kind s;
                    s
              in
              Pb.Samples.add s (1000.0 *. (t2 -. t1));
              Pb.Samples.add handle_all (1000.0 *. (t2 -. t1));
              let text = render q.id r.P.body result in
              let t3 = Pb.now_s () in
              Pb.Samples.add render_us (1e6 *. (t3 -. t2));
              if q.recv >= 0.0 then
                Pb.check
                  (Printf.sprintf "direct replay of %s differs from the daemon" q.id)
                  (String.equal text q.resp)
        done)
  in
  let kind k =
    match Hashtbl.find_opt handle k with
    | Some s -> Pb.Samples.to_array s
    | None -> [||]
  in
  (wall, Pb.Samples.to_array parse_us, kind, Pb.Samples.to_array handle_all,
   Pb.Samples.to_array render_us)

(* Grid of the distinct simulate cells of the stream, for the runner and
   engine layers. *)
let simulate_grid (ph : phase) ~st =
  let seen = Hashtbl.create 64 in
  let insts = ref [] and cells = ref [] in
  for i = 0 to ph.out.released - 1 do
    match ph.reqs.(i).body with
    | P.Simulate { inst; policy; reps; seed } as b ->
        let key = frame ~id:"" b in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          match
            Pb.op ("build " ^ policy) (fun () ->
                Sweep.timed_into st.Sweep.build_ms (fun () ->
                    Suu_core.Policy_registry.build ~solver:SC.serve_default policy inst))
          with
          | Some (Ok p) ->
              if not (List.memq inst !insts) then insts := inst :: !insts;
              cells :=
                { Sweep.spec = 0; inst; pname = policy; policy = p; cseed = seed; reps }
                :: !cells
          | Some (Error _) -> Pb.fail ("policy rejected " ^ policy)
          | None -> ()
        end
    | _ -> ()
  done;
  { Sweep.insts = Array.of_list (List.rev !insts); cells = Array.of_list (List.rev !cells) }

(* The per-layer metrics and table of a traced run.  With [~full:false]
   only the server-side layers (protocol, service, daemon, generator):
   the traced sweep-lp run measures those on the serve-open stream, the
   rest of its layers coming from its own grid. *)
let traced_layers ~full ~tiny ~seed ~spawn_s ~(ph : phase) ~stats0 ~stats1 ~warm ~nconns =
  let wall, parse, kind, handle_all, render_ = direct_replay ~warm ph in
  let engine =
    if not full then []
    else begin
      let st = Sweep.new_setup_trace () in
      ignore
        (Array.init (pool_size ~tiny) (fun k ->
             Sweep.timed_into st.Sweep.gen_ms (fun () -> gen_instance ~seed k)));
      let g = simulate_grid ph ~st in
      let p50 s = Pb.median (Pb.Samples.to_array s) in
      Pb.emit "workload.gen_ms" "ms" Pb.Lower (p50 st.Sweep.gen_ms);
      Pb.emit "core.policy_build_ms" "ms" Pb.Lower (p50 st.Sweep.build_ms);
      let hits = field_delta stats0 stats1 "plan_cache_hits"
      and misses = field_delta stats0 stats1 "plan_cache_misses" in
      Pb.emit "plan_cache.hits" "count" Pb.Higher (float_of_int hits);
      Pb.emit "plan_cache.misses" "count" Pb.Lower (float_of_int misses);
      Pb.emit "plan_cache.hit_rate" "ratio" Pb.Higher
        (if hits + misses = 0 then 0.0
         else float_of_int hits /. float_of_int (hits + misses));
      Pb.emit "plan_cache.bypass" "count" Pb.Lower
        (float_of_int (field_delta stats0 stats1 "plan_cache_bypass"));
      if Array.length g.Sweep.cells = 0 then begin
        Pb.fail "no simulate requests in the stream";
        []
      end
      else Sweep.engine_layers (serve_cfg ~tiny) g ~plan_cache:false
    end
  in
  (* the daemon's own view of the same phase *)
  let h name = hist_diff stats0 stats1 name in
  let parse_d = h "server.parse" and queue = h "server.queue_wait"
  and exec = h "server.execute" and respond = h "server.respond"
  and write = h "server.write" in
  let p50_e2e = Pb.median ph.lat in
  let med = Pb.median in
  let q95 a = Pb.quantile a 0.95 in
  Pb.emit "protocol.parse_us" "us" Pb.Lower (med parse);
  List.iter
    (fun k ->
      Pb.emit (Printf.sprintf "service.handle_ms.%s.p50" k) "ms" Pb.Lower (med (kind k));
      Pb.emit (Printf.sprintf "service.handle_ms.%s.p95" k) "ms" Pb.Lower (q95 (kind k)))
    [ "describe"; "plan"; "simulate" ];
  Pb.emit "protocol.render_us" "us" Pb.Lower (med render_);
  Pb.emit "server.queue_wait_ms.p95" "ms" Pb.Lower (hist_q queue 0.95);
  Pb.emit "server.execute_ms.p95" "ms" Pb.Lower (hist_q exec 0.95);
  Pb.emit "server.write_ms.p95" "ms" Pb.Lower (hist_q write 0.95);
  Pb.emit "server.rejected" "count" Pb.Lower (float_of_int (field_delta stats0 stats1 "rejects"));
  let direct_p50 = (med parse /. 1000.0) +. med handle_all +. (med render_ /. 1000.0) in
  Pb.emit "server.unattributed_ms" "ms" Pb.Lower (p50_e2e -. direct_p50);
  Pb.emit "loadgen.lag_ms.p99" "ms" Pb.Lower (Pb.quantile ph.lag 0.99);
  Pb.emit "loadgen.sent" "count" Pb.Higher (float_of_int ph.out.released);
  Pb.emit "loadgen.conns" "count" Pb.Lower (float_of_int nconns);
  let hrow name snap =
    let count = match snap with Some s -> s.Suu_obs.Histogram.count | None -> 0 in
    { Pb.layer = name; count; p50_ms = hist_q snap 0.5; p95_ms = hist_q snap 0.95;
      total_ms = hist_q snap 0.5 }
  in
  let lag = ph.lag in
  Pb.table (if full then "serve-open" else "serve-open stream, server layers")
    ({
       Pb.parent = "set-up: spawn to ready";
       wall_ms = 1000.0 *. Pb.sum spawn_s;
       children = [ Pb.row "suu serve --port 0" (Array.map (fun s -> 1000.0 *. s) spawn_s) ];
       extra = [];
     }
    :: {
         (* p50 of each phase against the p50 request: the children are
            medians of their own distributions, so the remainder is the
            gap the phases do not explain at the median *)
         Pb.parent = "request, scheduled to answered (p50; total = p50)";
         wall_ms = p50_e2e;
         children =
           [
             { (Pb.row "loadgen.lag" lag) with total_ms = med lag };
             hrow "server.parse" parse_d;
             hrow "server.queue_wait" queue;
             hrow "server.execute" exec;
             hrow "server.respond" respond;
             hrow "server.write" write;
           ];
         extra = [];
       }
    :: {
         Pb.parent = "direct replay, one thread";
         wall_ms = 1000.0 *. wall;
         children =
           [
             { (Pb.row "protocol.parse" (Array.map (fun u -> u /. 1000.0) parse)) with
               layer = "protocol.parse" };
             Pb.row "service.handle describe" (kind "describe");
             Pb.row "service.handle plan" (kind "plan");
             Pb.row "service.handle simulate" (kind "simulate");
             Pb.row "protocol.render" (Array.map (fun u -> u /. 1000.0) render_);
           ];
         extra = [];
       }
    :: engine)

(* --- the workload --- *)

let nconns () = max 1 (min 4 (Domain.recommended_domain_count ()))

(* Several phases as one: requests, latencies and lags concatenated,
   wall times summed. *)
let concat_phases (phs : phase list) =
  let reqs =
    Array.concat (List.map (fun p -> Array.sub p.reqs 0 p.out.released) phs)
  in
  let n = Array.length reqs in
  {
    reqs;
    out =
      {
        released = n;
        answered = List.fold_left (fun a p -> a + p.out.answered) 0 phs;
        aborted = List.exists (fun p -> p.out.aborted) phs;
        wall = List.fold_left (fun a p -> a +. p.out.wall) 0.0 phs;
      };
    lat = Array.concat (List.map (fun p -> p.lat) phs);
    lag = Array.concat (List.map (fun p -> p.lag) phs);
  }

(* Median over windows of each window's latency quantile [q]: a burst of
   CPU steal that spoils a minority of the windows does not move it. *)
let windowed (phs : phase list) q =
  let per = List.map (fun p -> Pb.quantile p.lat q) phs in
  Pb.note "  latency q%.2f by window (ms): %s" q
    (String.concat " " (List.map (Printf.sprintf "%.2f") per));
  Pb.median (Array.of_list per)

let spawn_daemons ~suu ~setups =
  let spawn_s = Array.make setups 0.0 in
  let daemon = ref None in
  for k = 0 to setups - 1 do
    incr Pb.attempted;
    let d, dt = Pb.time (fun () -> spawn ~suu) in
    spawn_s.(k) <- dt;
    match d with
    | Some d when k = setups - 1 -> daemon := Some d
    | Some d -> stop_daemon d
    | None -> ()
  done;
  (!daemon, spawn_s)

(* Two replays of the first requests of [first]: identical (id, frame)
   multisets, equal to what [first] received. *)
let replay_check ~conns ~tiny (first : phase) =
  let n = min first.out.released (if tiny then 20 else 100) in
  let check = Array.sub first.reqs 0 n in
  let r1 = run_phase ~conns ~what:"replay 1" (reset check) in
  let r2 = run_phase ~conns ~what:"replay 2" (reset check) in
  Pb.check "two replays of one stream differ"
    (multiset r1.reqs r1.out.released = multiset r2.reqs r2.out.released);
  Pb.check "replay differs from the first pass over the stream"
    (multiset r1.reqs r1.out.released = multiset first.reqs n)

(* Latency by request class, for reading the tail. *)
let by_class (ph : phase) =
  let classes = Hashtbl.create 8 in
  for i = 0 to ph.out.released - 1 do
    let q = ph.reqs.(i) in
    if q.recv >= 0.0 then begin
      let key = P.body_type q.body ^ if q.cold then " (new instance)" else "" in
      let s =
        match Hashtbl.find_opt classes key with
        | Some s -> s
        | None ->
            let s = Pb.Samples.create () in
            Hashtbl.replace classes key s;
            s
      in
      Pb.Samples.add s (1000.0 *. (q.recv -. q.at))
    end
  done;
  Hashtbl.fold (fun k s acc -> (k, Pb.Samples.to_array s) :: acc) classes []
  |> List.sort compare
  |> List.iter (fun (k, a) ->
         Pb.note "  %-26s %6d requests  p50 %8.3f ms  p99 %8.3f ms" k (Array.length a)
           (Pb.median a) (Pb.quantile a 0.99))

let check_lag (ph : phase) =
  let lag = Pb.quantile ph.lag 0.99 in
  if lag > limit_ms then
    Pb.mark_invalid
      (Printf.sprintf "generator p99 lag %.1f ms behind schedule (limit %.0f ms)" lag
         limit_ms)

let run ?(full = true) ~suu ~tiny ~traced ~seed ~seconds () =
  if suu = "" || not (Sys.file_exists suu) then begin
    Pb.mark_invalid "serve-open needs --suu PATH of the suu executable";
    exit 2
  end;
  let pool = pool ~tiny ~seed in
  match spawn_daemons ~suu ~setups:5 with
  | None, _ -> Pb.mark_invalid "daemon did not start"
  | Some d, spawn_s ->
      Fun.protect
        ~finally:(fun () -> stop_daemon d)
        (fun () ->
          let warm = warm_up ~port:d.port (pool_bodies pool) in
          let conns = Array.init (nconns ()) (fun _ -> connect d.port) in
          let window_s = if tiny then 0.5 else 1.0 and step_s = if tiny then 0.5 else 1.5 in
          let fixed_window r ~cold_base =
            let reqs, cold_base =
              stream ~seed ~tag:(Printf.sprintf "f%d-" r) ~pool ~rate:fixed_rps ~t0:0.02
                ~count:(int_of_float (fixed_rps *. window_s)) ~cold_base
            in
            (run_phase ~conns ~what:"fixed rate" reqs, cold_base)
          in
          if traced then begin
            (* one contiguous fixed-rate phase between two stats replies *)
            let stats0 = stats_fields d.port in
            let windows, _ =
              List.fold_left
                (fun (acc, cold_base) r ->
                  let ph, cold_base = fixed_window r ~cold_base in
                  (ph :: acc, cold_base))
                ([], 0)
                (List.init (int_of_float (Float.min seconds 8.0 /. window_s)) Fun.id)
            in
            let stats1 = stats_fields d.port in
            let ph = concat_phases (List.rev windows) in
            check_lag ph;
            Array.iter (fun c -> Unix.close c.fd) conns;
            traced_layers ~full ~tiny ~seed ~spawn_s ~ph ~stats0 ~stats1 ~warm
              ~nconns:(Array.length conns)
          end
          else begin
            (* fixed-rate windows interleaved with staircase steps, so
               both span the whole run and a slow drift of the host
               affects them alike *)
            let stair = new_stair () in
            let t_end = Pb.now_s () +. seconds in
            let rec loop r ~cold_base windows =
              if r < 2 || Pb.now_s () +. (2.0 *. window_s) +. step_s <= t_end then begin
                let a, cold_base = fixed_window (2 * r) ~cold_base in
                let b, cold_base = fixed_window ((2 * r) + 1) ~cold_base in
                let cold_base = stair_step stair ~conns ~seed ~pool ~step_s ~cold_base in
                loop (r + 1) ~cold_base (b :: a :: windows)
              end
              else List.rev windows
            in
            let windows = loop 0 ~cold_base:0 [] in
            let ph = concat_phases windows in
            check_lag ph;
            let p50 = windowed windows 0.5 and p99 = windowed windows 0.99 in
            let slo = stair_estimate stair in
            Pb.note
              "fixed rate %.0f rps: %d windows of %.1f s, %d sent over %d connections, \
               p50 %.3f ms, p99 %.3f ms; slo %.1f rps"
              fixed_rps (List.length windows) window_s ph.out.released
              (Array.length conns) p50 p99 slo;
            by_class ph;
            replay_check ~conns ~tiny (List.hd windows);
            Array.iter (fun c -> Unix.close c.fd) conns;
            let rss = Pb.peak_rss_mb_of d.pid in
            verify_against_service (local_service ())
              (((ph.reqs, ph.out.released) :: warm) @ stair.batches);
            let reps, steps = sim_work ph.reqs ph.out.released in
            Pb.emit "setup_s" "s" Pb.Lower (Pb.median spawn_s);
            Pb.emit "reps_per_s" "1/s" Pb.Higher (float_of_int reps /. ph.out.wall);
            Pb.emit "steps_per_s" "1/s" Pb.Higher (steps /. ph.out.wall);
            Pb.emit "makespan_ratio" "ratio" Pb.Lower (makespan_ratio ph);
            Pb.emit "p50_ms" "ms" Pb.Lower p50;
            Pb.emit "p99_ms" "ms" Pb.Lower p99;
            Pb.emit "slo_rps" "1/s" Pb.Higher slo;
            Pb.emit "peak_rss_mb" "MB" Pb.Lower rss
          end)
