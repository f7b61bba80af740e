(** Monotonic-clock spans with parent/child nesting.

    A span measures one phase of work.  Every finished span records its
    duration into the registry histogram of the same name (so [stats]
    and the bench harness see p50/p95/p99 per phase), and — when
    [SUU_TRACE] is on — emits a JSONL line with its parent span id, so a
    request's trace reconstructs as a tree.

    Nesting is ambient per thread: {!with_span} inside {!with_span}
    parents automatically.  The ambient context does not cross
    [Thread.create] or [Domain.spawn]; capture {!current} on the
    spawning side and re-anchor with {!with_ambient} in the worker
    (see [Suu_sim.Parallel]'s pool domains and the server worker pool).

    Cost when [SUU_TRACE] is off: two monotonic clock reads plus one
    mutex-guarded histogram record per span — nanoseconds, paid per
    phase (never per simulator step).  {!Registry.set_enabled}[ false]
    reduces a span to just calling its body, which is how the bench
    harness measures instrumentation overhead. *)

type id = int

val fresh_id : unit -> id
(** A process-unique span id, for manual spans assembled with
    {!record}. *)

val current : unit -> id option
(** The innermost live span of this thread ([None] when tracing is off
    — ids are only tracked for trace emission). *)

val with_ambient : id option -> (unit -> 'a) -> 'a
(** Run [f] with the ambient parent forced to [id] — the bridge for
    crossing threads and domains. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Time [f] as a span named [name]: histogram-record the duration and
    trace-emit under the ambient parent.  Exceptions propagate; the
    span still records. *)

val record :
  ?attrs:(string * string) list ->
  ?id:id ->
  ?parent:id ->
  name:string ->
  start_ns:int64 ->
  stop_ns:int64 ->
  unit ->
  unit
(** Manual span from explicit clock readings, for phases whose start
    and end live in different functions (queue wait) or threads.  When
    [parent] is omitted the ambient parent applies; [id] defaults to a
    fresh id. *)
