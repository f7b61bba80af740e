(* gate.exe regression over small generated artifacts.  Each case writes
   a BENCH-style artifact (through Record.fields, the bench's own
   writer) and a baseline, runs the gate, and asserts its exit status. *)

open Record

let checks =
  [
    check "lt" 1.0 Lt 5.0;
    check "le" 5.0 Le 5.0;
    check "eq" 0.0 Eq 0.0;
    check "ge" 3.0 Ge 3.0;
    check "gt" 1.0 Gt 0.0;
  ]

let metrics =
  [
    metric "rps" ~unit:"1/s" Higher [ 90.0; 100.0; 110.0 ];
    metric "lat" ~unit:"ms" Lower [ 1.0 ];
    metric ~noise_floor:0.1 "phase" ~unit:"ms" Lower [ 50.0 ];
  ]

let baseline = [ ("rps", "100"); ("lat", "1"); ("phase", "0.05") ]

let write_temp contents =
  let path = Filename.temp_file "gate_fixture" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let gate_status ?(experiment = "fx") ?(checks = checks) ?(metrics = metrics)
    ?(baseline = baseline) () =
  let artifact =
    write_temp
      (Printf.sprintf "{\n  \"experiment\": %S,\n%s\n}\n" experiment
         (fields checks metrics))
  in
  let base =
    write_temp
      (Printf.sprintf "{\"fx\": {%s}}"
         (String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) baseline)))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "./gate.exe"
      [| "gate.exe"; "regression"; artifact; base |]
      Unix.stdin devnull devnull
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close devnull;
  Sys.remove artifact;
  Sys.remove base;
  match status with Unix.WEXITED n -> n | _ -> -1

let expect name code f =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check int) "gate exit status" code (f ()))

(* Move one check's value just past its bound. *)
let perturb c =
  let value =
    match c.op with
    | Lt -> c.bound
    | Le -> c.bound +. 0.1
    | Eq -> c.bound +. 1.0
    | Ge -> c.bound -. 0.1
    | Gt -> c.bound
  in
  { c with value }

let replace name f = List.map (fun (c : check) -> if c.name = name then f c else c)

let set_baseline name v = List.map (fun (k, x) -> (k, if k = name then v else x))

let drop_metric name = List.filter (fun (m : metric) -> m.name <> name)

let with_samples name samples =
  List.map (fun (m : metric) -> if m.name = name then { m with samples } else m)

let check_cases =
  expect "all checks and metrics hold" 0 (fun () -> gate_status ())
  :: List.map
       (fun (c : check) ->
         expect
           (Printf.sprintf "check %s perturbed past its bound" c.name)
           1
           (fun () -> gate_status ~checks:(replace c.name perturb checks) ()))
       checks
  @ [
      expect "non-finite check value" 1 (fun () ->
          gate_status
            ~checks:(replace "ge" (fun c -> { c with value = Float.nan }) checks)
            ());
      expect "zero checks" 1 (fun () -> gate_status ~checks:[] ());
    ]

let metric_cases =
  [
    expect "metric missing from current" 1 (fun () ->
        gate_status ~metrics:(drop_metric "lat" metrics) ());
    expect "metric missing from baseline" 1 (fun () ->
        gate_status ~baseline:(List.remove_assoc "lat" baseline) ());
    expect "zero baseline" 1 (fun () ->
        gate_status ~baseline:(set_baseline "rps" "0" baseline) ());
    expect "negative baseline" 1 (fun () ->
        gate_status ~baseline:(set_baseline "lat" "-1" baseline) ());
    expect "baseline has no entry for the experiment" 1 (fun () ->
        gate_status ~experiment:"other" ());
    expect "zero metrics" 1 (fun () -> gate_status ~metrics:[] ~baseline:[] ());
    expect "metric without samples" 1 (fun () ->
        gate_status ~metrics:(with_samples "rps" [] metrics) ());
    expect "higher-is-better median below baseline / 2.5" 1 (fun () ->
        gate_status ~metrics:(with_samples "rps" [ 39.0 ] metrics) ());
    expect "lower-is-better median above baseline * 2.5" 1 (fun () ->
        gate_status ~metrics:(with_samples "lat" [ 2.6 ] metrics) ());
    expect "median, not the worst sample, is gated" 0 (fun () ->
        gate_status ~metrics:(with_samples "rps" [ 1.0; 100.0; 100.0 ] metrics) ());
    expect "a low median fails despite a good sample" 1 (fun () ->
        gate_status ~metrics:(with_samples "rps" [ 1.0; 1.0; 100.0 ] metrics) ());
    expect "noise floor gates a baseline above it" 1 (fun () ->
        gate_status ~baseline:(set_baseline "phase" "0.2" baseline) ());
  ]

let () =
  Alcotest.run "gate"
    [ ("checks", check_cases); ("metrics", metric_cases) ]
