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
  mutable cursor : int; (* Serial: every scope.(< cursor) is complete *)
}

(* The survivors of [scope], in scope order, or [||]: counted first so
   the one array is allocated at its final size (the plan cache borrows
   it as its lookup key). *)
let survivors scope remaining =
  let k = ref 0 in
  for t = 0 to Array.length scope - 1 do
    if remaining.(scope.(t)) then incr k
  done;
  if !k = 0 then [||]
  else begin
    let js = Array.make !k 0 in
    k := 0;
    for t = 0 to Array.length scope - 1 do
      let j = scope.(t) in
      if remaining.(j) then begin
        js.(!k) <- j;
        incr k
      end
    done;
    js
  end

let scoped cache ~m scope =
  let nscope = Array.length scope in
  let k_max = Mathx.rounds_k ~n:nscope ~m in
  let idle = Array.make m (-1) in
  let row = Array.make m (-1) in
  let st = { mode = Rounds; round = 1; plan = None; pos = 0; cursor = 0 } in
  let start_round remaining =
    let js = survivors scope remaining in
    if Array.length js = 0 then None
    else Some (Plan_cache.plan cache ~round:st.round ~survivors:js)
  in
  let rec step ~time ~remaining ~eligible =
    match st.mode with
    | Serial ->
        (* One remaining scoped job at a time, all machines on it.  The
           cursor only moves forward: [remaining] never turns back on. *)
        while st.cursor < nscope && not remaining.(scope.(st.cursor)) do
          st.cursor <- st.cursor + 1
        done;
        if st.cursor >= nscope then idle
        else begin
          Array.fill row 0 m scope.(st.cursor);
          row
        end
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

let policy ?solver ?jobs inst =
  let m = Instance.m inst in
  let scope =
    match jobs with
    | Some js -> Array.copy js
    | None -> Array.init (Instance.n inst) (fun j -> j)
  in
  if Array.length scope = 0 then
    invalid_arg "Suu_i_sem.policy: empty job subset";
  (* Round plans depend only on (round, survivor set) — not the trace —
     so one cache in the policy value serves every replication (and
     every domain driving this policy concurrently). *)
  let cache = Plan_cache.create ?solver inst in
  Policy.make ~name:"suu-i-sem" ~fresh:(fun _rng -> scoped cache ~m scope)
