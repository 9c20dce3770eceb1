(** Campaign-wide verdict cache.

    Memoizes {!Checker.check} verdicts (the list of {!Report.kind}s, possibly
    empty) under a key that captures everything the verdict can depend on:
    the file system name, a digest of the crash phase's oracle slice (rendered
    syscall + the pre/post trees it is judged against + the fsync target for
    weak systems) and the crash image's content {!Pmem.Image.digest}. The
    syscall {e index} is deliberately absent, so equivalent crash states
    reached at different positions — or in different workloads sharing an ACE
    family prefix — hit the same cache line and skip the mount+check round
    entirely. Reports are still emitted per occurrence with their own crash
    point, so finding sets are byte-identical with the cache on or off.

    Each entry also holds the coverage points marked while its verdict was
    computed ({!Cov.record}); the harness re-marks them on a hit, so
    per-execution coverage does not depend on which execution filled the
    entry. They are empty when coverage collection is off.

    Thread-safe via a snapshot/merge pattern: lookups and inserts run
    against a lock-free per-domain view ({!Domain.DLS}); {!sync} exchanges
    fresh entries with a mutex-protected shared table at epoch boundaries
    (the harness syncs before and after each workload's replay loop). Hit
    counts therefore depend on scheduling, but findings never do. *)

type t

type entry = { kinds : Report.kind list; cov : string list }
(** A memoized verdict: the checker's kinds ([[]] = consistent) and the
    coverage points the mount, check and usability probe marked. *)

val create : unit -> t
(** A fresh, empty cache. Create one per campaign/fuzz run: entries are only
    valid for a single driver instance (e.g. buggy and clean NOVA share the
    ["nova"] name but mount differently). *)

type ckey
(** A cache key: structurally the phase prefix plus the raw image digest, so
    building one per crash state allocates a tuple, not a rendered string. *)

val prefix : fs:string -> phase_digest:string -> string
(** The per-phase half of the key; memoize one per (workload, phase) and
    feed it to {!key_of} for every crash state of that phase. *)

val key_of : prefix:string -> image_digest:int -> ckey
(** Cache key for one crash state, from a memoized {!prefix}. O(1). *)

val phase_digest : Oracle.t -> calls:string array -> Checker.phase -> string
(** The oracle slice for [phase]: the [During]/[After] syscall
    text and fsync target plus the pre/post boundary digests — no tree is
    walked or serialized. [calls] is the pre-rendered workload
    ([Vfs.Syscall.to_string] per call). *)

val find : t -> ckey -> entry option
(** Lookup in this domain's view only (lock-free). [None] means not cached
    here yet. *)

val add : t -> ckey -> kinds:Report.kind list -> cov:string list -> unit
(** Record a verdict and the coverage points marked while computing it in
    this domain's view; published to other domains at the next {!sync}. *)

val sync : t -> unit
(** Publish locally-added entries to the shared table and pull entries other
    domains published since this domain's last sync. *)

val entries : t -> int
(** Number of entries published to the shared table so far. *)
