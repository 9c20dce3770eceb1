(* The oracle's incrementally maintained tree digests (the [Pmem.Image]
   digest==rehash pattern applied to the oracle tree): after every syscall of
   every workload — including error-returning calls and fd-based calls on
   renamed/unlinked/hard-linked paths — the digest patched from Memfs's
   dirty-path set must equal a from-scratch [Oracle.redigest] of the
   boundary tree. Plus collision regressions for every [equal_node] field. *)

module Types = Vfs.Types
module Syscall = Vfs.Syscall
module Walker = Vfs.Walker
module Oracle = Chipmunk.Oracle
module Checker = Chipmunk.Checker
module Vcache = Chipmunk.Vcache

let d i = { Syscall.seed = i; len = 8 + (i mod 50) }

let check_incremental name calls =
  let o = Oracle.run calls in
  for i = 0 to Oracle.n_calls o do
    let inc = Oracle.digest o i and scratch = Oracle.redigest o i in
    if inc <> scratch then
      Alcotest.failf "%s: boundary %d: incremental %x <> redigest %x" name i inc
        scratch
  done

(* Hand-built workloads covering the cases where deriving changed paths from
   syscall arguments would go wrong — the dirty set must come from inode
   back-links instead. *)
let fixed : (string * Syscall.t list) list =
  [
    ( "fd-write-after-rename",
      [
        Creat { path = "/f"; fd_var = 0 };
        Write { fd_var = 0; data = d 1 };
        Rename { src = "/f"; dst = "/g" };
        Write { fd_var = 0; data = d 2 };
        Fsync { fd_var = 0 };
        Close { fd_var = 0 };
      ] );
    ( "fd-write-after-unlink-orphan",
      [
        Creat { path = "/f"; fd_var = 0 };
        Write { fd_var = 0; data = d 3 };
        Unlink { path = "/f" };
        Write { fd_var = 0; data = d 4 };
        Close { fd_var = 0 };
      ] );
    ( "hardlink-alias-write",
      [
        Creat { path = "/f"; fd_var = 0 };
        Link { src = "/f"; dst = "/g" };
        Write { fd_var = 0; data = d 5 };
        Unlink { path = "/f" };
        Write { fd_var = 0; data = d 6 };
        Close { fd_var = 0 };
      ] );
    ( "rename-overwrite-hardlinked-target",
      [
        Creat { path = "/a"; fd_var = 0 };
        Write { fd_var = 0; data = d 7 };
        Close { fd_var = 0 };
        Creat { path = "/b"; fd_var = 1 };
        Write { fd_var = 1; data = d 8 };
        Close { fd_var = 1 };
        Link { src = "/b"; dst = "/c" };
        Rename { src = "/a"; dst = "/b" };
      ] );
    ( "dir-rename-subtree",
      [
        Mkdir { path = "/d" };
        Mkdir { path = "/d/sub" };
        Creat { path = "/d/sub/f"; fd_var = 0 };
        Write { fd_var = 0; data = d 9 };
        Close { fd_var = 0 };
        Mkdir { path = "/e" };
        Rename { src = "/d"; dst = "/e/d2" };
        Truncate { path = "/e/d2/sub/f"; size = 3 };
      ] );
    ( "error-returning-calls",
      [
        Mkdir { path = "/d" };
        Mkdir { path = "/d" };
        Unlink { path = "/missing" };
        Rename { src = "/missing"; dst = "/x" };
        Open { path = "/missing"; flags = [ Types.O_WRONLY ]; fd_var = 0 };
        Truncate { path = "/d"; size = 0 };
        Rmdir { path = "/missing" };
        Removexattr { path = "/d"; name = "nope" };
        Mkdir { path = "/d2" };
      ] );
    ( "xattrs-and-allocation",
      [
        Creat { path = "/f"; fd_var = 0 };
        Setxattr { path = "/f"; name = "user.a"; value = "1" };
        Setxattr { path = "/f"; name = "user.b"; value = "2" };
        Removexattr { path = "/f"; name = "user.a" };
        Truncate { path = "/f"; size = 100 };
        Fallocate { fd_var = 0; off = 10; len = 200; keep_size = false };
        Fallocate { fd_var = 0; off = 10; len = 900; keep_size = true };
        Close { fd_var = 0 };
      ] );
    ( "open-trunc-then-remove",
      [
        Creat { path = "/f"; fd_var = 0 };
        Write { fd_var = 0; data = d 10 };
        Close { fd_var = 0 };
        Open { path = "/f"; flags = [ Types.O_WRONLY; Types.O_TRUNC ]; fd_var = 1 };
        Pwrite { fd_var = 1; off = 5; data = d 11 };
        Close { fd_var = 1 };
        Remove { path = "/f" };
      ] );
  ]

let test_fixed () =
  List.iter (fun (name, calls) -> check_incremental name calls) fixed

let test_random_helpers () =
  for seed = 1 to 40 do
    let rng = Random.State.make [| 0xd16e57; seed |] in
    let calls = Helpers.random_workload ~rng ~len:30 in
    check_incremental (Printf.sprintf "helpers-seed-%d" seed) calls
  done

let test_random_fuzzer () =
  for seed = 1 to 25 do
    let rng = Random.State.make [| 0xf022; seed |] in
    let calls = Fuzz.Prog.generate rng ~max_len:20 in
    check_incremental (Printf.sprintf "fuzz-seed-%d" seed) calls
  done

let test_ace () =
  let slice s = List.of_seq (Seq.take 30 s) in
  List.iter
    (fun (name, calls) -> check_incremental ("ace-" ^ name) calls)
    (slice (Ace.seq1 Ace.Strong) @ slice (Ace.seq2 Ace.Strong))

(* --- collision regressions: every [equal_node] field must reach the
   digest, so phase trees differing only in that field key differently --- *)

let reg path content =
  {
    Walker.path;
    kind = Some Types.Reg;
    size = String.length content;
    nlink = 1;
    content = Some content;
    entries = None;
    xattrs = [];
    error = None;
  }

let test_collision_nodes () =
  let base = reg "/f" "abc" in
  let differs what n =
    if Walker.hash_node base = Walker.hash_node n then
      Alcotest.failf "node hash ignores %s" what;
    if Walker.digest [ base ] = Walker.digest [ n ] then
      Alcotest.failf "tree digest ignores %s" what
  in
  differs "xattrs" { base with xattrs = [ ("user.a", "1") ] };
  differs "nlink" { base with nlink = 2 };
  differs "error" { base with error = Some "stat: EIO" };
  differs "path" { base with path = "/g" };
  differs "content" { base with content = Some "abd" }

(* End-to-end: two workloads whose final trees differ only in xattr values
   (identical call text at the compared phase) digest differently. *)
let test_collision_xattr_phase () =
  let w v =
    [
      Syscall.Creat { path = "/f"; fd_var = 0 };
      Syscall.Close { fd_var = 0 };
      Syscall.Setxattr { path = "/f"; name = "user.k"; value = v };
      Syscall.Mkdir { path = "/d" };
    ]
  in
  let wa = w "1" and wb = w "2" in
  let oa = Oracle.run wa and ob = Oracle.run wb in
  let texts w = Array.of_list (List.map Syscall.to_string w) in
  (* The phase After 3 keys on the identical "mkdir /d" text plus the post
     tree, which differs only in the xattr value. *)
  Alcotest.(check string)
    "compared call text identical" (texts wa).(3) (texts wb).(3);
  if
    Vcache.phase_digest oa ~calls:(texts wa) (Checker.After 3)
    = Vcache.phase_digest ob ~calls:(texts wb) (Checker.After 3)
  then Alcotest.fail "phase digest ignores xattr-only tree difference"

(* Two workloads converging on trees identical except for nlink: one file
   hard-linked twice vs two files with the same content. *)
let test_collision_nlink_phase () =
  let wa =
    [
      Syscall.Creat { path = "/f"; fd_var = 0 };
      Syscall.Write { fd_var = 0; data = d 20 };
      Syscall.Close { fd_var = 0 };
      Syscall.Link { src = "/f"; dst = "/g" };
    ]
  and wb =
    [
      Syscall.Creat { path = "/f"; fd_var = 0 };
      Syscall.Write { fd_var = 0; data = d 20 };
      Syscall.Close { fd_var = 0 };
      Syscall.Creat { path = "/g"; fd_var = 1 };
      Syscall.Write { fd_var = 1; data = d 20 };
      Syscall.Close { fd_var = 1 };
    ]
  in
  let oa = Oracle.run wa and ob = Oracle.run wb in
  let fa = Oracle.final oa and fb = Oracle.final ob in
  let content t p = Option.bind (Walker.find t p) (fun n -> n.Walker.content) in
  Alcotest.(check bool)
    "same content at /f and /g" true
    (content fa "/f" = content fb "/f" && content fa "/g" = content fb "/g");
  if Oracle.digest oa (Oracle.n_calls oa) = Oracle.digest ob (Oracle.n_calls ob)
  then Alcotest.fail "tree digest ignores nlink-only difference"

let suite =
  [
    Alcotest.test_case "incremental==redigest: aliasing fixtures" `Quick test_fixed;
    Alcotest.test_case "incremental==redigest: random workloads" `Quick
      test_random_helpers;
    Alcotest.test_case "incremental==redigest: fuzzer programs" `Quick
      test_random_fuzzer;
    Alcotest.test_case "incremental==redigest: ace slices" `Quick test_ace;
    Alcotest.test_case "collisions: every equal_node field hashed" `Quick
      test_collision_nodes;
    Alcotest.test_case "collisions: xattr-only phase trees" `Quick
      test_collision_xattr_phase;
    Alcotest.test_case "collisions: nlink-only trees" `Quick
      test_collision_nlink_phase;
  ]
