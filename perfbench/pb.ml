(* Measurement helpers shared by the sweep and serve workloads: the
   monotonic clock, sample buffers and quantiles, the result record
   (metrics, attempted and failed operations), per-layer tables, the
   host calibration loop and peak resident memory. *)

let now_s () = Int64.to_float (Suu_obs.Clock.now_ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Linear interpolation between closest ranks; 0 for no samples. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let count t = t.n
  let total t = sum (to_array t)
end

(* --- the result record --- *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

type metric = { name : string; unit_ : string; better : better; value : float }

let metrics : metric list ref = ref []

let emit name unit_ better value =
  metrics := { name; unit_; better; value } :: !metrics

let attempted = ref 0
let failed = ref 0
let invalid : string list ref = ref []
let failure_notes : string list ref = ref []

let note fmt = Printf.printf (fmt ^^ "\n%!")

let fail reason =
  incr failed;
  if List.length !failure_notes < 20 then
    failure_notes := reason :: !failure_notes;
  note "FAILED: %s" reason

(* One operation of the workload: counted as attempted, and as failed
   when it raises (any exception, including the runtime's own). *)
let op what f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
      fail (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

(* A check on work already counted: a mismatch is one more failure. *)
let check what ok = if not ok then fail what

let mark_invalid reason =
  invalid := reason :: !invalid;
  note "INVALID RUN: %s" reason

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* --- host calibration --- *)

(* A fixed integer-mixing loop: its ns per iteration tracks how much CPU
   this process actually gets, so a busy neighbour shows in the record.
   The median of five timings. *)
let calib_ns_per_iter () =
  let iters = 4_000_000 in
  let once () =
    let x = ref 0x2545F491 in
    let t0 = now_s () in
    for i = 1 to iters do
      x := (!x * 0x5851F42D + i) lxor (!x lsr 13)
    done;
    let dt = now_s () -. t0 in
    ignore (Sys.opaque_identity !x);
    dt *. 1e9 /. float_of_int iters
  in
  median (Array.init 5 (fun _ -> once ()))

(* --- peak resident memory --- *)

let vm_hwm_mb path =
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else loop ()
      in
      let r = loop () in
      close_in ic;
      r

let peak_rss_mb_self () = vm_hwm_mb "/proc/self/status"
let peak_rss_mb_of pid = vm_hwm_mb (Printf.sprintf "/proc/%d/status" pid)

(* --- per-layer tables --- *)

type row = {
  layer : string;
  count : int;
  p50_ms : float;
  p95_ms : float;
  total_ms : float;
}

let row layer samples_ms =
  {
    layer;
    count = Array.length samples_ms;
    p50_ms = median samples_ms;
    p95_ms = quantile samples_ms 0.95;
    total_ms = sum samples_ms;
  }

let summed layer ~count total_ms =
  let per = if count > 0 then total_ms /. float_of_int count else 0.0 in
  { layer; count; p50_ms = per; p95_ms = per; total_ms }

(* One parent span and its children's self times.  [table] prints count,
   p50, p95, total and share of the parent for each child, then the
   parent's remainder as "(unattributed)", so the children plus the
   remainder add up to the parent's wall time by construction.  [extra]
   rows are printed for reference below the section (times that overlap
   the children, e.g. a call whose inner parts are listed above). *)
type section = {
  parent : string;
  wall_ms : float;
  children : row list;
  extra : row list;
}

let table title sections =
  note "";
  note "== layers: %s  (mean ms per call where p50 = p95)" title;
  note "%-34s %9s %11s %11s %12s %8s" "layer" "count" "p50 ms" "p95 ms"
    "total ms" "share";
  let line ~indent (r : row) ~parent =
    let share =
      if parent > 0.0 then Printf.sprintf "%7.1f%%" (100.0 *. r.total_ms /. parent)
      else "       -"
    in
    note "%-34s %9d %11.4f %11.4f %12.3f %s"
      (String.make indent ' ' ^ r.layer)
      r.count r.p50_ms r.p95_ms r.total_ms share
  in
  List.iter
    (fun s ->
      note "%-34s %9d %11s %11s %12.3f %8s" s.parent 1 "" "" s.wall_ms "100.0%";
      List.iter (fun r -> line ~indent:2 r ~parent:s.wall_ms) s.children;
      let covered = List.fold_left (fun a r -> a +. r.total_ms) 0.0 s.children in
      line ~indent:2
        (summed "(unattributed)" ~count:0 (s.wall_ms -. covered))
        ~parent:s.wall_ms;
      List.iter (fun r -> line ~indent:4 { r with layer = r.layer ^ " (incl.)" }
                    ~parent:s.wall_ms) s.extra)
    sections

(* --- output --- *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else begin
    fail (Printf.sprintf "non-finite metric value %g" x);
    "0"
  end

(* The last stdout line: the record run.py turns into the result. *)
let print_result ~info =
  let ms = List.rev !metrics in
  note "";
  note "== metrics";
  List.iter
    (fun m ->
      note "%-40s %16.6f %-6s (%s is better)" m.name m.value m.unit_
        (better_name m.better))
    ms;
  note "%-40s %16.6f %-6s (%s is better)" "fail_ratio"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    "ratio" "lower";
  note "attempted %d  failed %d%s" !attempted !failed
    (match !invalid with
    | [] -> ""
    | l -> "  invalid: " ^ String.concat "; " (List.rev l));
  let buf = Buffer.create 4096 in
  let metric_json m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"better\": %S}" m.name
      (json_float m.value) m.unit_ (better_name m.better)
  in
  let metrics_json = String.concat ", " (List.map metric_json ms) in
  let info_json =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) info)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
        \"info\": {%s}}"
       (!failed = 0 && !invalid = [])
       (max 1 !attempted) !failed metrics_json info_json);
  print_endline (Buffer.contents buf)
