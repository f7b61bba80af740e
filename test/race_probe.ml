(* Fresh-process probe for first use of the library's shared state from
   several domains at once: one multi-domain replication run.  Exits 0
   on success; an exception (e.g. [CamlinternalLazy.Undefined]) exits
   non-zero.  Driven by test_sim's "first use from many domains" case. *)

let () =
  let module W = Suu_workload.Workload in
  let inst =
    W.independent (W.Uniform { lo = 0.2; hi = 0.95 }) ~n:8 ~m:3 ~seed:1
  in
  ignore
    (Suu_sim.Runner.makespans ~jobs:8 inst (Suu_core.Auto.policy inst)
       ~seed:1 ~reps:8)
