let blocks inst =
  match Suu_dag.Forest.decompose (Instance.dag inst) with
  | Some blocks -> blocks
  | None -> invalid_arg "Suu_t.policy: precedence dag is not a forest"

let policy ?solver ?top_machines inst =
  let stage_chains = blocks inst in
  (* Per block: its jobs, concatenated, and its SUU-C policy. *)
  let stages =
    Array.map
      (fun chains ->
        let prep = Suu_c.prepare ?top_machines ?solver inst ~chains in
        (Array.concat chains, Suu_c.policy_of_prepared ?solver inst prep))
      stage_chains
  in
  let m = Instance.m inst in
  let idle = Array.make m (-1) in
  let fresh rng =
    let stage = ref 0 in
    (* Every jobs.(< !live) of the current block is complete: jobs never
       turn remaining again, so the cursor only moves forward. *)
    let live = ref 0 in
    let stepper = ref None in
    let rec step ~time ~remaining ~eligible =
      if !stage >= Array.length stages then idle
      else begin
        let jobs, pol = stages.(!stage) in
        while !live < Array.length jobs && not remaining.(jobs.(!live)) do
          incr live
        done;
        if !live >= Array.length jobs then begin
          stage := !stage + 1;
          live := 0;
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
