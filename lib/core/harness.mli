(** The record-and-replay pipeline (paper Figure 2): run a workload on an
    instrumented file system, log its PM writes, construct crash states by
    replaying subsets of in-flight writes at every crash point, mount the
    file system on each crash state and check it for consistency.

    Crash points are placed at every store fence ({e during} system calls —
    the paper's key departure from disk-era tools) and at every system-call
    boundary (checking synchrony). For weak (fsync-based) file systems,
    checks run only at fsync/fdatasync/sync boundaries. *)

type opts = {
  cap : int option;
      (** Maximum number of in-flight writes replayed per crash state
          ([None] = exhaustive). The paper finds a cap of 2 exposes every
          bug in its corpus (Observation 7). *)
  coalesce : bool;  (** Fuse logically-related stores (section 3.2). *)
  data_threshold : int;  (** Minimum bytes for the bulk-data heuristic. *)
  check_usability : bool;
      (** After the oracle checks, probe the recovered file system: create a
          file in every directory, then delete everything. *)
  max_states_per_point : int;  (** Safety valve on subset explosion. *)
  stop_on_first : bool;  (** Stop at the first unique report (campaigns). *)
  granularity : Persist.Pm.granularity;
      (** Function-level (Chipmunk, the default) or instruction-level
          (Yat/Vinter-style) write interception — the ablation behind the
          paper's tractability argument in section 3.2. *)
  read_set_heuristic : bool;
      (** Vinter's state-space reduction, which the paper notes Chipmunk
          could adopt by recording PM read functions (section 6.2): at each
          crash point, probe-mount the prefix state while recording PM
          loads, and enumerate subsets only over the in-flight writes that
          recovery actually reads. Each hot subset is checked on two bases:
          the bare prefix, and the prefix with every cold (never-read) unit
          applied — cold writes are invisible to recovery but not to the
          checker, so hot-subset states must also be constructed on the
          base the next crash point builds on. Off by default. *)
}

val default_opts : opts

type stats = {
  mutable crash_points : int;
  mutable crash_states : int;
  mutable failed_mounts : int;
      (** Failed {e actual} mount attempts: states served from a cache do
          not re-mount, so a cached [Unmountable] verdict is not re-counted
          here. *)
  mutable max_in_flight : int;  (** Largest coalesced in-flight vector seen. *)
  mutable fences : int;
  mutable in_flight_sizes : int list;  (** One sample per crash point. *)
  mutable dedup_hits : int;
      (** Crash states skipped by the per-crash-point dedup table:
          enumerated subsets whose post-apply image {!Pmem.Image.digest}
          matched an already-checked state at the same crash point.
          Byte-identical images check identically, so reports are
          unchanged. [crash_states] still counts every enumerated state, so
          the mount+check work actually done is
          [crash_states - dedup_hits - vcache_hits]. *)
  mutable vcache_hits : int;
      (** Crash states whose verdict was served by the campaign-wide
          {!Vcache} instead of a mount+check. Unlike [dedup_hits] (per
          crash point, deterministic per workload), vcache hit counts
          depend on what other workloads — possibly on other domains —
          populated the cache first; findings are unaffected either way. *)
}

type result = {
  reports : Report.t list;  (** Deduplicated by fingerprint, oldest first. *)
  stats : stats;
  trace : Persist.Trace.t;
  outcomes : Vfs.Workload.outcome list;
}

type recording = {
  rec_calls : Vfs.Syscall.t list;
  rec_trace : Persist.Trace.t;  (** Full PM write log of the run. *)
  rec_base : Pmem.Image.t;  (** Post-mkfs device image. *)
  rec_outcomes : Vfs.Workload.outcome list;
}
(** A completed phase-1 run (instrumented workload execution), self-contained:
    crash states can be rebuilt from [rec_base] + [rec_trace] any number of
    times without re-running the workload. *)

val record : ?opts:opts -> Vfs.Driver.t -> Vfs.Syscall.t list -> recording
(** Phase 1 only: run [calls] on a fresh instrumented file system and log
    its PM writes. [opts] matters only for [granularity]. *)

val replay_recorded :
  ?opts:opts ->
  ?vcache:Vcache.t ->
  ?minimize:(Report.t -> Report.t) ->
  Vfs.Driver.t ->
  recording ->
  result
(** Phases 2–3 on an existing recording: oracle + crash-state replay, on a
    snapshot of [rec_base] (the recording stays reusable). Equivalent to
    {!test_workload} on the recording's calls, minus the re-recording —
    the probe primitive behind [Shrink.Minimize]'s trace-replay cache. *)

val test_workload :
  ?opts:opts ->
  ?vcache:Vcache.t ->
  ?minimize:(Report.t -> Report.t) ->
  Vfs.Driver.t ->
  Vfs.Syscall.t list ->
  result
(** Run the full pipeline ({!record} then replay) for one workload on one
    file system.

    [vcache], when given, memoizes checker verdicts campaign-wide (see
    {!Vcache}); the harness syncs it at the start and end of the replay
    loop. Findings are identical with or without it.

    [minimize] is applied to each report after per-workload fingerprint
    dedup (so it runs once per unique finding, not once per crash state) —
    the hook behind [Shrink.Minimize.rewrite]. It must preserve the
    report's fingerprint; the harness does not re-dedup its output. *)

val usability_probe : Vfs.Handle.t -> Vfs.Walker.tree -> string option
(** The post-recovery usability probe (create a file in every directory,
    write to it, remove it, then delete every file and directory bottom-up);
    [Some msg] describes the first operation that failed. Exposed so
    {!Reproduce} re-checks crash states exactly as the harness did. *)
