(* Cross-FS crash-consistency battery: a fixed set of workloads exercising
   every tested operation, run through the full Chipmunk pipeline against
   every file system with all bugs fixed. Any report is a false positive —
   either a real bug in the file system model or an unsound check. This is
   the repository-sized version of the multi-hour soundness sweeps. *)

module S = Vfs.Syscall

let battery =
  [
    ( "create-write-read",
      [
        S.Mkdir { path = "/d" };
        S.Creat { path = "/d/f"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 1; len = 350 } };
        S.Close { fd_var = 0 };
      ] );
    ( "rename-chain",
      [
        S.Creat { path = "/a"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 2; len = 120 } };
        S.Close { fd_var = 0 };
        S.Rename { src = "/a"; dst = "/b" };
        S.Mkdir { path = "/d" };
        S.Rename { src = "/b"; dst = "/d/c" };
      ] );
    ( "rename-overwrite",
      [
        S.Creat { path = "/x"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 3; len = 90 } };
        S.Close { fd_var = 0 };
        S.Creat { path = "/y"; fd_var = 1 };
        S.Write { fd_var = 1; data = { seed = 4; len = 77 } };
        S.Close { fd_var = 1 };
        S.Rename { src = "/x"; dst = "/y" };
      ] );
    ( "hardlink-churn",
      [
        S.Creat { path = "/f"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 5; len = 200 } };
        S.Close { fd_var = 0 };
        S.Link { src = "/f"; dst = "/g" };
        S.Link { src = "/g"; dst = "/h" };
        S.Unlink { path = "/f" };
        S.Unlink { path = "/g" };
      ] );
    ( "truncate-cycle",
      [
        S.Creat { path = "/f"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 6; len = 400 } };
        S.Truncate { path = "/f"; size = 111 };
        S.Truncate { path = "/f"; size = 350 };
        S.Truncate { path = "/f"; size = 0 };
        S.Close { fd_var = 0 };
      ] );
    ( "fallocate-modes",
      [
        S.Creat { path = "/f"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 7; len = 100 } };
        S.Fallocate { fd_var = 0; off = 50; len = 200; keep_size = true };
        S.Fallocate { fd_var = 0; off = 200; len = 150; keep_size = false };
        S.Close { fd_var = 0 };
      ] );
    ( "deep-tree",
      [
        S.Mkdir { path = "/a" };
        S.Mkdir { path = "/a/b" };
        S.Mkdir { path = "/a/b/c" };
        S.Creat { path = "/a/b/c/leaf"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 8; len = 64 } };
        S.Close { fd_var = 0 };
        S.Rmdir { path = "/a/b/c" } (* fails: not empty -- benign *);
        S.Unlink { path = "/a/b/c/leaf" };
        S.Rmdir { path = "/a/b/c" };
      ] );
    ( "unlink-while-open",
      [
        S.Creat { path = "/doomed"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 9; len = 150 } };
        S.Unlink { path = "/doomed" };
        S.Write { fd_var = 0; data = { seed = 10; len = 50 } };
        S.Close { fd_var = 0 };
      ] );
    ( "sparse-write",
      [
        S.Creat { path = "/s"; fd_var = 0 };
        S.Pwrite { fd_var = 0; off = 500; data = { seed = 11; len = 40 } };
        S.Pwrite { fd_var = 0; off = 13; data = { seed = 12; len = 99 } };
        S.Close { fd_var = 0 };
      ] );
    ( "unaligned-overwrites",
      [
        S.Creat { path = "/u"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 13; len = 300 } };
        S.Pwrite { fd_var = 0; off = 3; data = { seed = 14; len = 7 } };
        S.Pwrite { fd_var = 0; off = 131; data = { seed = 15; len = 61 } };
        S.Pwrite { fd_var = 0; off = 255; data = { seed = 16; len = 2 } };
        S.Close { fd_var = 0 };
      ] );
    ( "fsync-mixed",
      [
        S.Creat { path = "/f"; fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 17; len = 180 } };
        S.Fsync { fd_var = 0 };
        S.Write { fd_var = 0; data = { seed = 18; len = 90 } };
        S.Fdatasync { fd_var = 0 };
        S.Close { fd_var = 0 };
        S.Sync;
      ] );
    ( "remove-everything",
      [
        S.Mkdir { path = "/d" };
        S.Creat { path = "/d/f"; fd_var = 0 };
        S.Close { fd_var = 0 };
        S.Remove { path = "/d/f" };
        S.Remove { path = "/d" };
      ] );
  ]

let run_battery (name, mk) =
  Alcotest.test_case name `Quick (fun () ->
      let driver = mk () in
      List.iter
        (fun (wname, workload) ->
          let r = Chipmunk.Harness.test_workload driver workload in
          match r.Chipmunk.Harness.reports with
          | [] -> ()
          | rep :: _ ->
            Alcotest.failf "%s/%s false positive:\n%s" name wname
              (Format.asprintf "%a" Chipmunk.Report.pp rep))
        battery)

(* --- digest transparency: the verdict cache must not affect findings ---

   For every driver (the buggy catalog variant when one exists, so the
   comparison also covers non-empty finding sets), run a battery slice with
   the verdict cache on and off at jobs=1 and jobs=4, and require
   byte-identical finding fingerprints. *)

module Campaign = Chipmunk.Campaign

let digest_transparency (name, mk_clean) =
  Alcotest.test_case (name ^ " digest transparency") `Quick (fun () ->
      let mk =
        match Catalog.buggy_driver name with Some mk -> mk | None -> mk_clean
      in
      let slice () = List.to_seq (List.filteri (fun i _ -> i < 6) battery) in
      let run ~jobs use_vcache =
        let c =
          Campaign.run ~exec:(Chipmunk.Run.exec ~jobs ~use_vcache ()) (mk ()) (slice ())
        in
        List.map
          (fun (e : Campaign.event) ->
            (e.Campaign.fingerprint, e.Campaign.workload_index))
          c.Campaign.events
      in
      List.iter
        (fun jobs ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "digest keys vs no vcache (jobs=%d)" jobs)
            (run ~jobs false) (run ~jobs true))
        [ 1; 4 ])

let suite =
  List.map (fun (name, mk) -> run_battery (name ^ " battery", mk)) Catalog.clean_drivers
  @ List.map digest_transparency Catalog.clean_drivers
