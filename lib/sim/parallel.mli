(** Multicore execution substrate: one process-wide domain pool (OCaml 5
    stdlib only).

    The pool spawns [default_jobs () - 1] domains once, on the first
    call that wants more than one worker, and keeps them for the life of
    the process; no call spawns or joins a domain.  Processes that never
    ask for a second worker (the router, clients, [SUU_JOBS=1] runs)
    stay single-domain.  The spawned count is the [parallel.pool.domains]
    counter.

    A call partitions its index space into chunks, posts up to
    [jobs - 1] helpers to the pool's task queue and drains its own
    chunks on the calling thread; idle pool domains pick up the helpers
    and claim chunks from the same atomic counter (dynamic scheduling,
    so items with uneven costs still balance).  Because the caller
    always works its own call, concurrent callers — the server's worker
    threads share the one pool — and nested calls never deadlock; they
    only get fewer helpers.

    Each participating worker records one [parallel.worker] span,
    parented under the caller's ambient span, and adds its item count to
    the [parallel.items] counter. *)

val default_jobs : unit -> int
(** [SUU_JOBS] when set (raises [Invalid_argument] if it is not a
    positive integer), else [Domain.recommended_domain_count ()]. *)

val parallel_for : ?jobs:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f 0 .. f (n - 1)] on at most [jobs]
    workers (default {!default_jobs}; never more than the pool size plus
    the caller).  [f] must be safe to run concurrently on distinct
    indices.  The call returns only once every chunk it handed out has
    finished.  If [f] raises, the remaining chunks are skipped, and the
    first exception is re-raised with its backtrace once the call has
    finished; the pool domains stay alive for later calls.  Raises
    [Invalid_argument] on non-positive [jobs]. *)
