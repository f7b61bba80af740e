let default_jobs () =
  match Sys.getenv_opt "SUU_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          invalid_arg
            (Printf.sprintf "SUU_JOBS must be a positive integer, got %S" s))

let c_items = Suu_obs.Registry.counter "parallel.items"
let c_domains = Suu_obs.Registry.counter "parallel.pool.domains"

(* The process-wide pool.  Callers post helper closures to [helpers];
   each pool domain pops one, runs it (the helper claims chunks of its
   call until none are left) and goes back for the next.  A helper
   popped after its call has returned finds no chunk left and is a
   no-op, so callers never need to withdraw what they posted. *)
let lock = Mutex.create ()
let posted = Condition.create ()
let helpers : (unit -> unit) Queue.t = Queue.create ()
let size = ref None

let rec pool_domain () =
  let helper =
    Mutex.protect lock (fun () ->
        while Queue.is_empty helpers do
          Condition.wait posted lock
        done;
        Queue.pop helpers)
  in
  helper ();
  pool_domain ()

(* Spawned on the first call that wants a second worker — never at
   module initialisation, so processes that only route or dial (the
   router, clients) stay single-domain. *)
let pool_size () =
  Mutex.protect lock (fun () ->
      match !size with
      | Some k -> k
      | None ->
          let k = default_jobs () - 1 in
          for _ = 1 to k do
            ignore (Domain.spawn pool_domain : unit Domain.t);
            Suu_obs.Counter.incr c_domains
          done;
          size := Some k;
          k)

(* One worker's share of a call — the caller's own, or a pool helper's
   re-rooted under the caller's span.  [run] returns how many items it
   executed; a worker that executed none records no span. *)
let as_worker ~obs ~parent run =
  let t0 = if obs then Suu_obs.Clock.now_ns () else 0L in
  let items = run () in
  if obs && items > 0 then begin
    Suu_obs.Counter.add c_items items;
    Suu_obs.Span.record ~name:"parallel.worker" ?parent
      ~attrs:[ ("items", string_of_int items) ]
      ~start_ns:t0
      ~stop_ns:(Suu_obs.Clock.now_ns ())
      ()
  end

let parallel_for ?jobs ~n f =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Parallel.parallel_for: jobs must be positive"
    | None -> default_jobs ()
  in
  let obs = Suu_obs.Registry.enabled () in
  let parent = Suu_obs.Span.current () in
  let extra =
    if jobs > 1 && n > 1 then min (min jobs n - 1) (pool_size ()) else 0
  in
  if extra = 0 then
    as_worker ~obs ~parent (fun () ->
        for i = 0 to n - 1 do
          f i
        done;
        max n 0)
  else begin
    (* Several chunks per worker so the tail balances, without grinding
       the atomic counter on tiny items. *)
    let chunk = max 1 (n / (4 * (extra + 1))) in
    let nchunks = (n + chunk - 1) / chunk in
    let next = Atomic.make 0 in
    let unfinished = Atomic.make nchunks in
    let failure = Atomic.make None in
    let done_lock = Mutex.create () and all_done = Condition.create () in
    (* Claim chunks until none is left.  After a failure the remaining
       chunks are still claimed but skipped, so every chunk is
       accounted for before the call returns. *)
    let rec drain items =
      let c = Atomic.fetch_and_add next 1 in
      if c >= nchunks then items
      else begin
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        let ran =
          if Option.is_some (Atomic.get failure) then 0
          else
            try
              for i = lo to hi - 1 do
                f i
              done;
              hi - lo
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)));
              0
        in
        if Atomic.fetch_and_add unfinished (-1) = 1 then
          Mutex.protect done_lock (fun () -> Condition.broadcast all_done);
        drain (items + ran)
      end
    in
    let helper () =
      Suu_obs.Span.with_ambient parent (fun () ->
          as_worker ~obs ~parent (fun () -> drain 0))
    in
    Mutex.protect lock (fun () ->
        for _ = 1 to extra do
          Queue.push helper helpers
        done;
        Condition.broadcast posted);
    (* The caller always drains its own call, so it never waits on a
       pool domain that is busy elsewhere: concurrent and nested calls
       cannot deadlock, they only run with fewer helpers. *)
    as_worker ~obs ~parent (fun () -> drain 0);
    Mutex.protect done_lock (fun () ->
        while Atomic.get unfinished > 0 do
          Condition.wait all_done done_lock
        done);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
