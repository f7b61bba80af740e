(* Bench result records.  Every experiment declares its results beside
   the code that measures them, in one of two kinds:

   - a check is a within-run invariant [value op bound] (byte identity,
     100% completion, a speedup floor).  Its bound is a constant of the
     experiment, which also picks any scale-dependent floor;
   - a metric is a cross-run figure (throughput, latency) with its
     samples.  gate.exe regression compares the median against the
     committed bench/baseline.json entry of the same name.

   [emit] writes both lists into BENCH_<experiment>.json and exits
   non-zero if a check fails; gate.exe re-reads them from the artifact
   with [checks_of_json] / [metrics_of_json] and judges them with the
   same [failed_checks] and [compare_metric]. *)

module J = Suu_util.Json

type op = Lt | Le | Eq | Ge | Gt

type check = { name : string; value : float; op : op; bound : float }

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  samples : float list;
  noise_floor : float option;
      (* a baseline below this is timer noise: the comparison is skipped *)
}

let check name value op bound = { name; value; op; bound }
let holds name b = check name (if b then 1.0 else 0.0) Eq 1.0
let count name n op bound = check name (float_of_int n) op (float_of_int bound)

let metric ?noise_floor name ~unit better samples =
  { name; unit; better; samples; noise_floor }

let op_to_string = function
  | Lt -> "<" | Le -> "<=" | Eq -> "==" | Ge -> ">=" | Gt -> ">"

let op_of_string = function
  | "<" -> Lt | "<=" -> Le | "==" -> Eq | ">=" -> Ge | ">" -> Gt
  | s -> failwith ("unknown check op " ^ s)

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let better_of_string = function
  | "higher" -> Higher
  | "lower" -> Lower
  | s -> failwith ("unknown metric direction " ^ s)

(* --- evaluation --- *)

let passes c =
  Float.is_finite c.value
  &&
  match c.op with
  | Lt -> c.value < c.bound
  | Le -> c.value <= c.bound
  | Eq -> c.value = c.bound
  | Ge -> c.value >= c.bound
  | Gt -> c.value > c.bound

let describe (c : check) =
  Printf.sprintf "%s = %.6g (%s %.6g)" c.name c.value (op_to_string c.op)
    c.bound

(* Failure messages for [checks].  An empty list fails too: an artifact
   that declares nothing must not pass vacuously. *)
let failed_checks = function
  | [] -> [ "no checks declared" ]
  | checks ->
      List.filter_map
        (fun c -> if passes c then None else Some ("check " ^ describe c))
        checks

(* Cross-run metrics: the generous band catches order-of-magnitude
   regressions (an accidentally quadratic loop, a lock on the hot path)
   on jittery shared runners, not 10% drifts. *)
let tolerance = 2.5

let median = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* [compare_metric m baseline]: [Ok] with a report line, or [Error].  A
   metric missing or non-finite on either side, or a non-positive
   baseline, is an error: the gate must not pass because a key was
   renamed or a baseline zeroed. *)
let compare_metric m baseline =
  let c = median m.samples in
  match baseline with
  | _ when not (Float.is_finite c) ->
      Error (Printf.sprintf "%s has no finite samples in current results" m.name)
  | None -> Error (Printf.sprintf "%s missing from baseline" m.name)
  | Some b when not (Float.is_finite b && b > 0.0) ->
      Error (Printf.sprintf "%s baseline %g is not a positive number" m.name b)
  | Some b -> (
      match m.noise_floor with
      | Some floor when b < floor ->
          Ok
            (Printf.sprintf "%s: baseline %.4g %s below noise floor %g, skipped"
               m.name b m.unit floor)
      | _ ->
          let bad =
            match m.better with
            | Higher -> c < b /. tolerance
            | Lower -> c > b *. tolerance
          in
          let line =
            Printf.sprintf "%s: median %.6g %s of %d vs baseline %.6g" m.name c
              m.unit (List.length m.samples) b
          in
          if bad then Error (Printf.sprintf "%s (beyond %gx)" line tolerance)
          else Ok line)

(* --- artifact I/O --- *)

(* Shortest of %.15g / %.17g that reads back as [x]; null if non-finite. *)
let json_float x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* The ["checks"] and ["metrics"] members, as the tail of a JSON object. *)
let fields checks metrics =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.bprintf buf fmt in
  let list items f =
    List.iteri (fun i x -> bpf "%s\n    %s" (if i = 0 then "" else ",") (f x)) items;
    bpf "\n  ]"
  in
  bpf "  \"checks\": [";
  list checks (fun (c : check) ->
      Printf.sprintf "{\"name\": %S, \"value\": %s, \"op\": %S, \"bound\": %s}"
        c.name (json_float c.value) (op_to_string c.op) (json_float c.bound));
  bpf ",\n  \"metrics\": [";
  list metrics (fun m ->
      Printf.sprintf
        "{\"name\": %S, \"unit\": %S, \"better\": %S, \"samples\": [%s]%s}"
        m.name m.unit (better_to_string m.better)
        (String.concat ", " (List.map json_float m.samples))
        (match m.noise_floor with
        | Some f -> Printf.sprintf ", \"noise_floor\": %s" (json_float f)
        | None -> ""));
  Buffer.contents buf

let num k j = Option.value (J.to_float (J.member k j)) ~default:Float.nan
let str k j = Option.value (J.to_string (J.member k j)) ~default:""
let items k j = Option.value (J.to_list (J.member k j)) ~default:[]

let checks_of_json j =
  List.map
    (fun c ->
      check (str "name" c) (num "value" c) (op_of_string (str "op" c))
        (num "bound" c))
    (items "checks" j)

let metrics_of_json j =
  List.map
    (fun m ->
      let samples =
        List.map (fun s -> Option.value (J.to_float (Some s)) ~default:Float.nan)
          (items "samples" m)
      in
      let noise_floor = J.to_float (J.member "noise_floor" m) in
      metric ?noise_floor (str "name" m) ~unit:(str "unit" m)
        (better_of_string (str "better" m))
        samples)
    (items "metrics" j)

(* Print an ok line per passing check; return the failure messages. *)
let report checks =
  List.iter
    (fun c -> if passes c then Printf.printf "ok: check %s\n" (describe c))
    checks;
  failed_checks checks

(* Close [body] (an open JSON object whose last member ends in ",\n")
   with the declared records, write BENCH_<experiment>.json, and exit 1
   if any check fails. *)
let emit ~experiment body checks metrics =
  let file = Printf.sprintf "BENCH_%s.json" experiment in
  let oc = open_out file in
  output_string oc (Buffer.contents body);
  output_string oc (fields checks metrics);
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n%!" file;
  let failed = report checks in
  flush stdout;
  if failed <> [] then begin
    List.iter (Printf.eprintf "FAIL: %s\n") failed;
    Printf.eprintf "%s: %d check(s) failed\n%!" experiment (List.length failed);
    exit 1
  end
