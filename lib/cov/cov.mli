(** Coverage points for gray-box fuzzing.

    The original Chipmunk collects kernel coverage through Syzkaller's KCOV
    integration and user-space coverage through GCC's sanitizer-coverage
    instrumentation (paper section 3.4.2). In this reproduction, file systems
    mark interesting code paths explicitly with {!mark}; the fuzzer records
    the hit set around each execution to decide whether a workload
    exercised new behaviour.

    Marking is safe from any OCaml 5 domain. The cumulative hit set is a
    fixed array of buckets each holding an immutable list behind an
    [Atomic] (lock-free CAS append), so cross-domain counting is race-free;
    in addition every domain keeps a private table of the points it has
    hit since its last {!local_reset}, which is how the sharded fuzzer
    attributes coverage to a single execution without racing its siblings.

    Marking is a no-op unless collection is {!enable}d, so the marks cost
    nothing outside fuzzing runs. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Forget all recorded hits — the global set and the calling domain's
    local table (other domains' local tables are untouched; worker domains
    are short-lived and start empty). Not safe concurrently with {!mark};
    callers reset between campaigns, not during them. The enabled/disabled
    state is unchanged. *)

val mark : string -> unit
(** Record that the named coverage point was reached, in the global set
    and in the calling domain's local table. *)

val hits : unit -> string list
(** All points recorded globally since the last [reset], sorted. *)

val count : unit -> int
(** [List.length (hits ())], without building the list. *)

val local_reset : unit -> unit
(** Clear the calling domain's local hit table (the global set is
    unchanged). The fuzzer calls this before each execution. *)

val local_hits : unit -> string list
(** The points the calling domain has hit since its last {!local_reset},
    sorted — the per-execution coverage attribution. *)

val record : (unit -> 'a) -> 'a * string list
(** [record f] runs [f] and also returns, sorted and without duplicates,
    every point the calling domain marked during it — including points its
    local table already held, which {!local_hits} cannot tell apart. The
    verdict cache stores these with a verdict so that a cache hit can
    {!mark} what the skipped mount and check would have marked. Not
    reentrant: [f] must not call [record]. When collection is disabled it
    only runs [f] and returns [[]]. *)
