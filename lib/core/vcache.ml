(* Campaign-wide verdict cache.

   The checker's verdict for a crash state depends only on (a) the crash
   image bytes — which determine the mounted tree, (b) the crash phase's
   oracle slice (the rendered syscall plus the pre/post trees it is compared
   against, or the fsync target for weak systems), and (c) the file system's
   contract (atomic_data / consistency — fixed per driver). It does NOT
   depend on which workload or crash point produced the state, so verdicts
   memoized under the key (fs, oracle-slice digest, image digest) are shared
   across crash points and across workloads: ACE workload families share long
   syscall prefixes, so whole mount+check rounds repeat campaign-wide.

   An entry also carries the coverage points ([Cov.record]) marked while
   its verdict was computed, so a hit can re-mark what the skipped mount,
   check and usability probe would have marked: per-execution coverage is
   then the same whichever slot or domain filled the entry.

   Concurrency follows the pattern of lib/cov: each domain works against
   a private view (lock-free hot path) and periodically [sync]s with a
   mutex-protected shared table. The shared side keeps a newest-first log so
   a sync pulls only entries published since the domain's last visit. Caches
   are transparent for findings — a hit replays the exact kinds the checker
   would compute — so jobs=1 vs jobs=N stay finding-for-finding identical
   even though hit *counts* depend on scheduling. *)

type entry = { kinds : Report.kind list; cov : string list }

type ckey = string * int
(* (fs ^ "|" ^ phase-digest, image digest): structural key, so the hot path
   never renders the image digest to hex or concatenates per state — the
   string half is shared across every state of a phase via {!prefix}. *)

type shared = {
  mutex : Mutex.t;
  table : (ckey, entry) Hashtbl.t;
  mutable log : (ckey * entry) list;  (* newest first *)
  mutable published : int;  (* List.length log *)
}

type local = {
  view : (ckey, entry) Hashtbl.t;
  mutable fresh : (ckey * entry) list;  (* added locally since last sync *)
  mutable pulled : int;  (* shared.published at last sync *)
}

type t = { shared : shared; dls : local Domain.DLS.key }

let create () =
  {
    shared =
      { mutex = Mutex.create (); table = Hashtbl.create 1024; log = []; published = 0 };
    dls =
      Domain.DLS.new_key (fun () ->
          { view = Hashtbl.create 1024; fresh = []; pulled = 0 });
  }

let local t = Domain.DLS.get t.dls
let find t key = Hashtbl.find_opt (local t).view key

(* Shared by every consistent verdict that marked no coverage — all of
   them when coverage collection is off — so those entries cost no
   allocation beyond the table's own. *)
let consistent = { kinds = []; cov = [] }

let add t key ~kinds ~cov =
  let l = local t in
  if not (Hashtbl.mem l.view key) then begin
    let e = if kinds = [] && cov = [] then consistent else { kinds; cov } in
    Hashtbl.replace l.view key e;
    l.fresh <- (key, e) :: l.fresh
  end

let sync t =
  let l = local t in
  let s = t.shared in
  Mutex.lock s.mutex;
  List.iter
    (fun (k, v) ->
      if not (Hashtbl.mem s.table k) then begin
        Hashtbl.replace s.table k v;
        s.log <- (k, v) :: s.log;
        s.published <- s.published + 1
      end)
    l.fresh;
  let missing = s.published - l.pulled in
  let to_pull =
    let rec take n lst acc =
      if n <= 0 then acc
      else match lst with [] -> acc | x :: rest -> take (n - 1) rest (x :: acc)
    in
    take missing s.log []
  in
  l.pulled <- s.published;
  Mutex.unlock s.mutex;
  l.fresh <- [];
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem l.view k) then Hashtbl.replace l.view k v)
    to_pull

let entries t =
  let s = t.shared in
  Mutex.lock s.mutex;
  let n = s.published in
  Mutex.unlock s.mutex;
  n

(* --- keys --- *)

let call_text calls i = if i < Array.length calls then calls.(i) else "?"

(* Everything the checker reads from the oracle/workload at this phase, and
   nothing more: notably NOT the syscall index itself, so equivalent phases
   of different workloads (shared ACE-family prefixes) share cache lines.
   The tree component is the oracle's incrementally maintained boundary
   digest — O(1) here, O(changed nodes) amortized over the oracle run; its
   from-scratch reference is [Oracle.redigest]. Call texts are
   length-prefixed so a pathological syscall rendering cannot straddle a
   separator. *)
let phase_digest oracle ~calls (phase : Checker.phase) =
  let call i =
    let c = call_text calls i in
    Printf.sprintf "%d\002%s" (String.length c) c
  in
  match phase with
  | Checker.Initial -> Printf.sprintf "I\001%x" (Oracle.pre_digest oracle 0)
  | Checker.During i ->
    Printf.sprintf "D\001%s\001%x\001%x" (call i)
      (Oracle.pre_digest oracle i)
      (Oracle.post_digest oracle i)
  | Checker.After i ->
    let tgt =
      match Oracle.target oracle i with
      | None -> "-"
      | Some p -> Printf.sprintf "%d\002%s" (String.length p) p
    in
    Printf.sprintf "A\001%s\001%s\001%x" (call i) tgt (Oracle.post_digest oracle i)

let prefix ~fs ~phase_digest = fs ^ "|" ^ phase_digest
let key_of ~prefix ~image_digest : ckey = (prefix, image_digest)
