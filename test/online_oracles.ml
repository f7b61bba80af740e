(* List-based reference steppers for the LP-free baselines: a fresh list
   of the active jobs every step, O(m * active) work for greedy.  They
   are the specification the allocation-free steppers in
   [Suu_core.Baselines] must match bit for bit (same result, same
   assignment matrix) — see the "online oracles" property in
   test_policies. *)

module Instance = Suu_core.Instance
module Policy = Suu_core.Policy

let active_jobs ~remaining ~eligible =
  let acc = ref [] in
  for j = Array.length remaining - 1 downto 0 do
    if remaining.(j) && eligible.(j) then acc := j :: !acc
  done;
  !acc

let greedy_completion inst =
  let m = Instance.m inst in
  let n = Instance.n inst in
  Policy.make ~name:"greedy" ~fresh:(fun _rng ->
      let survival = Array.make n 1.0 in
      let buf = Array.make m (-1) in
      fun ~time:_ ~remaining ~eligible ->
        let active = active_jobs ~remaining ~eligible in
        List.iter (fun j -> survival.(j) <- 1.0) active;
        for i = 0 to m - 1 do
          let best = ref (-1) and best_gain = ref 0.0 in
          List.iter
            (fun j ->
              let gain = survival.(j) *. (1.0 -. Instance.q inst i j) in
              if gain > !best_gain then begin
                best_gain := gain;
                best := j
              end)
            active;
          buf.(i) <- !best;
          if !best >= 0 then
            survival.(!best) <- survival.(!best) *. Instance.q inst i !best
        done;
        buf)

let round_robin inst =
  let m = Instance.m inst in
  Policy.make ~name:"round-robin" ~fresh:(fun _rng ->
      let buf = Array.make m (-1) in
      fun ~time ~remaining ~eligible ->
        let active = Array.of_list (active_jobs ~remaining ~eligible) in
        let e = Array.length active in
        for i = 0 to m - 1 do
          buf.(i) <- (if e = 0 then -1 else active.((time + i) mod e))
        done;
        buf)

let serial inst =
  let m = Instance.m inst in
  let idle = Array.make m (-1) in
  Policy.make ~name:"serial" ~fresh:(fun _rng ->
      fun ~time:_ ~remaining ~eligible ->
        match active_jobs ~remaining ~eligible with
        | [] -> idle
        | j :: _ -> Array.make m j)
