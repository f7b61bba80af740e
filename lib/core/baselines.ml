(* The remaining jobs in index order, compacted as they complete, so a
   pass costs O(remaining) rather than O(n) and allocates nothing.
   Relies on the stepper contract: within one execution [remaining]
   only goes from true to false. *)
type live = { jobs : int array; mutable len : int }

let live n = { jobs = Array.init n Fun.id; len = n }

(* Drop completed jobs from [l] and write the active (remaining and
   eligible) ones to [out] in index order; returns their count. *)
let collect_active l ~remaining ~eligible out =
  let w = ref 0 and e = ref 0 in
  for r = 0 to l.len - 1 do
    let j = l.jobs.(r) in
    if remaining.(j) then begin
      l.jobs.(!w) <- j;
      incr w;
      if eligible.(j) then begin
        out.(!e) <- j;
        incr e
      end
    end
  done;
  l.len <- !w;
  !e

(* The first [k] jobs of machine [i]'s ranking by untouched gain
   [1 - q_ij] descending, index ascending, selected in O(n log k) with a
   heap whose root is the worst job kept so far. *)
let top_k inst i k =
  let n = Instance.n inst in
  let key j = 1.0 -. Instance.q inst i j in
  let before a b =
    let ka = key a and kb = key b in
    ka > kb || (ka = kb && a < b)
  in
  let heap = Array.make k 0 in
  let rec sift_down p size =
    let l = (2 * p) + 1 in
    if l < size then begin
      let c = if l + 1 < size && before heap.(l) heap.(l + 1) then l + 1 else l in
      if before heap.(p) heap.(c) then begin
        let t = heap.(p) in
        heap.(p) <- heap.(c);
        heap.(c) <- t;
        sift_down c size
      end
    end
  in
  let rec sift_up c =
    let p = (c - 1) / 2 in
    if c > 0 && before heap.(p) heap.(c) then begin
      let t = heap.(p) in
      heap.(p) <- heap.(c);
      heap.(c) <- t;
      sift_up p
    end
  in
  for j = 0 to n - 1 do
    if j < k then begin
      heap.(j) <- j;
      sift_up j
    end
    else if before j heap.(0) then begin
      heap.(0) <- j;
      sift_down 0 k
    end
  done;
  Array.sort (fun a b -> if before a b then -1 else 1) heap;
  heap

let c_fallbacks = Suu_obs.Registry.counter "greedy.fallbacks"

let greedy_completion inst =
  let m = Instance.m inst in
  let n = Instance.n inst in
  let k = min n (max 64 (4 * m)) in
  let rank = Array.init m (fun i -> top_k inst i k) in
  (* Scratch lives in the stepper, not the policy value: steppers from
     one policy may run concurrently on different domains. *)
  Policy.make ~name:"greedy" ~fresh:(fun _rng ->
      let survival = Array.make n 1.0 in
      let is_touched = Array.make n false in
      let touched = Array.make m 0 in
      (* [start.(i)]: every entry of [rank.(i)] before it has completed. *)
      let start = Array.make m 0 in
      let jobs = live n and active = Array.make n 0 in
      let buf = Array.make m (-1) in
      (* Machine [i]'s pick so far: highest gain [s_j * (1 - q_ij)],
         ties to the lowest index.  A gain of 0 never wins, so a machine
         idles when no active job has q_ij < 1.  Untouched jobs have
         [s_j = 1.0] and [1.0 *. x = x], so their gain is exactly the
         ranking key.  [best_gain] is a one-cell float array so that
         updates do not box. *)
      let best = ref (-1) and best_gain = Array.make 1 0.0 in
      let consider i j =
        let gain = survival.(j) *. (1.0 -. Instance.q inst i j) in
        if gain > best_gain.(0) || (gain = best_gain.(0) && !best >= 0 && j < !best)
        then begin
          best_gain.(0) <- gain;
          best := j
        end
      in
      fun ~time:_ ~remaining ~eligible ->
        let ntouched = ref 0 and nactive = ref (-1) and fallbacks = ref 0 in
        for i = 0 to m - 1 do
          best := -1;
          best_gain.(0) <- 0.0;
          let r = rank.(i) in
          let p = ref start.(i) in
          while !p < k && not remaining.(r.(!p)) do
            incr p
          done;
          start.(i) <- !p;
          while
            !p < k
            && (let j = r.(!p) in
                (not remaining.(j)) || (not eligible.(j)) || is_touched.(j))
          do
            incr p
          done;
          (* The first active untouched entry of the ranking beats every
             other untouched job; past the prefix, scan them all. *)
          if !p < k then consider i r.(!p)
          else if k < n then begin
            incr fallbacks;
            if !nactive < 0 then
              nactive := collect_active jobs ~remaining ~eligible active;
            for a = 0 to !nactive - 1 do
              let j = active.(a) in
              if not is_touched.(j) then consider i j
            done
          end;
          for t = 0 to !ntouched - 1 do
            consider i touched.(t)
          done;
          let j = !best in
          buf.(i) <- j;
          if j >= 0 then begin
            if not is_touched.(j) then begin
              is_touched.(j) <- true;
              touched.(!ntouched) <- j;
              incr ntouched
            end;
            survival.(j) <- survival.(j) *. Instance.q inst i j
          end
        done;
        for t = 0 to !ntouched - 1 do
          let j = touched.(t) in
          is_touched.(j) <- false;
          survival.(j) <- 1.0
        done;
        if !fallbacks > 0 then Suu_obs.Counter.add c_fallbacks !fallbacks;
        buf)

let round_robin inst =
  let m = Instance.m inst in
  let n = Instance.n inst in
  Policy.make ~name:"round-robin" ~fresh:(fun _rng ->
      let jobs = live n and active = Array.make n 0 in
      let buf = Array.make m (-1) in
      fun ~time ~remaining ~eligible ->
        let e = collect_active jobs ~remaining ~eligible active in
        for i = 0 to m - 1 do
          buf.(i) <- (if e = 0 then -1 else active.((time + i) mod e))
        done;
        buf)

let serial inst =
  let m = Instance.m inst in
  let n = Instance.n inst in
  Policy.make ~name:"serial" ~fresh:(fun _rng ->
      (* Every job before [first] has completed. *)
      let first = ref 0 in
      let buf = Array.make m (-1) in
      fun ~time:_ ~remaining ~eligible ->
        while !first < n && not remaining.(!first) do
          incr first
        done;
        let j = ref !first in
        while !j < n && not (remaining.(!j) && eligible.(!j)) do
          incr j
        done;
        Array.fill buf 0 m (if !j < n then !j else -1);
        buf)

(* Greedy coverage with a per-machine budget of [t] steps: feed the
   neediest job with the strongest remaining machine step until every job
   reaches [target] clipped mass, or budgets run dry. *)
let greedy_fill inst ~target ~t =
  let m = Instance.m inst and n = Instance.n inst in
  let x = Array.make_matrix m n 0 in
  let mass = Array.make n 0.0 in
  let budget = Array.make m t in
  let ell i j = Instance.clipped_log_failure inst ~target i j in
  let exhausted = ref false in
  let all_covered () =
    Array.for_all (fun v -> v >= target -. 1e-12) mass
  in
  while (not (all_covered ())) && not !exhausted do
    (* neediest uncovered job *)
    let j = ref (-1) in
    for j' = n - 1 downto 0 do
      if mass.(j') < target -. 1e-12
         && (!j = -1 || mass.(j') < mass.(!j))
      then j := j'
    done;
    let i = ref (-1) in
    for i' = 0 to m - 1 do
      if budget.(i') > 0 && ell i' !j > 0.0
         && (!i = -1 || ell i' !j > ell !i !j)
      then i := i'
    done;
    if !i = -1 then exhausted := true
    else begin
      x.(!i).(!j) <- x.(!i).(!j) + 1;
      budget.(!i) <- budget.(!i) - 1;
      mass.(!j) <- mass.(!j) +. ell !i !j
    end
  done;
  if !exhausted then None else Some (Assignment.make x)

let greedy_oblivious_assignment ?(target = 0.5) inst =
  let rec search t =
    match greedy_fill inst ~target ~t with
    | Some a -> a
    | None -> search (2 * t)
  in
  search 1

let greedy_oblivious ?target inst =
  let plan =
    Oblivious.of_assignment (greedy_oblivious_assignment ?target inst)
  in
  let h = Oblivious.horizon plan in
  Policy.make ~name:"greedy-oblivious" ~fresh:(fun _rng ->
      fun ~time ~remaining:_ ~eligible:_ ->
        Oblivious.assignment_at plan (time mod h))
