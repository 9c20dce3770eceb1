(* Tests for the benchmark's own code: seeded inputs are stable, the traced
   driver is transparent (byte-identical findings and counters on a small
   slice of each workload, at jobs 1 and 2), span accounting nests, and
   expectation files round-trip. *)

open Perfbench
module C = Chipmunk

let names a = Array.to_list (Array.map fst a)

let test_inputs_stable () =
  List.iter
    (fun w ->
      let a = Inputs.ace_inputs w ~seed:7 and b = Inputs.ace_inputs w ~seed:7 in
      Alcotest.(check (list string)) "same seed, same order" (names a) (names b);
      Alcotest.(check bool) "same seed, same workloads" true (a = b);
      let c = Inputs.ace_inputs w ~seed:8 in
      Alcotest.(check bool) "other seed, other order" false (names a = names c);
      Alcotest.(check (list string))
        "every seed orders the same suite"
        (List.sort compare (names a))
        (List.sort compare (names c)))
    [ Inputs.Ace_nova; Inputs.Ace_pmfs_seq3 ];
  let s = Inputs.fuzz_seeds ~seed:7 ~rounds:12 in
  Alcotest.(check (array int)) "fuzz: same seed, same order" s (Inputs.fuzz_seeds ~seed:7 ~rounds:12);
  Alcotest.(check bool) "fuzz: other seed, other order" false
    (s = Inputs.fuzz_seeds ~seed:8 ~rounds:12);
  Alcotest.(check (list int)) "fuzz: a fixed seed pool" (List.init 12 (fun i -> i + 1))
    (List.sort compare (Array.to_list s))

let reports (r : C.Campaign.result) =
  List.map (fun (e : C.Campaign.event) -> (e.workload_index, C.Report.to_json e.report)) r.events

let counters ~vcache (r : C.Campaign.result) =
  [ r.workloads_run; r.crash_states; r.crash_points; r.dedup_hits ]
  @ if vcache then [ r.vcache_hits ] else []

let ace_transparent w ~n () =
  let inputs = Array.sub (Inputs.ace_inputs w ~seed:3) 0 n in
  let plain = Runner.campaign (Inputs.driver w) inputs in
  List.iter
    (fun jobs ->
      Spans.reset ();
      let traced = Spans.driver ~exec_spans:true (Inputs.driver w) in
      let r = Runner.campaign ~jobs traced inputs in
      Spans.end_exec ();
      let what = Printf.sprintf "jobs %d" jobs in
      Alcotest.(check (list (pair int string))) (what ^ ": findings") (reports plain) (reports r);
      Alcotest.(check (list int))
        (what ^ ": counters")
        (counters ~vcache:(jobs = 1) plain)
        (counters ~vcache:(jobs = 1) r);
      let t = Spans.collect () in
      Alcotest.(check int) (what ^ ": one exec span per workload") n (Spans.calls t Spans.Exec);
      Alcotest.(check int) (what ^ ": one mkfs per workload") n (Spans.calls t Spans.Mkfs))
    [ 1; 2 ];
  (* The traced path (record + replay_recorded) finds what the campaign
     does, with the same counters. *)
  Spans.reset ();
  let o, _ = Runner.record_replay (Spans.driver (Inputs.driver w)) inputs in
  Alcotest.(check bool) "record + replay = campaign" true (o = Outcome.of_campaign plain);
  let t = Spans.collect () in
  Alcotest.(check int) "one record span per workload" n (Spans.calls t Spans.Record);
  Alcotest.(check int) "one replay span per workload" n (Spans.calls t Spans.Replay)

let fuzz_findings (r : Fuzz.Fuzzer.result) =
  List.map (fun (e : Fuzz.Fuzzer.event) -> (e.at_exec, C.Report.to_json e.report)) r.events

let fuzz_transparent () =
  let execs = 96 and rng_seed = 5 in
  let driver () = Inputs.driver Inputs.Fuzz_nova_j2 in
  let plain = Runner.fuzz ~jobs:1 ~rng_seed ~execs (driver ()) in
  Alcotest.(check bool) "the slice finds something" true (plain.events <> []);
  List.iter
    (fun jobs ->
      Spans.reset ();
      let r = Runner.fuzz ~jobs ~rng_seed ~execs (Spans.driver ~exec_spans:true (driver ())) in
      Spans.end_exec ();
      let what = Printf.sprintf "jobs %d" jobs in
      Alcotest.(check (list (pair int string))) (what ^ ": findings") (fuzz_findings plain)
        (fuzz_findings r);
      Alcotest.(check bool) (what ^ ": outcome") true
        (Outcome.of_fuzz ~rng_seed plain = Outcome.of_fuzz ~rng_seed r);
      Alcotest.(check int) (what ^ ": one exec span per exec") execs
        (Spans.calls (Spans.collect ()) Spans.Exec))
    [ 1; 2 ]

let test_span_nesting () =
  Spans.reset ();
  let spin d =
    let t = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t < d do
      ()
    done
  in
  Spans.span Spans.Record (fun () ->
      spin 0.01;
      Spans.span Spans.Mkfs (fun () -> spin 0.02));
  let t = Spans.collect () in
  let close what a b = Alcotest.(check bool) what true (Float.abs (a -. b) < 0.005) in
  close "child time is the child's span" (Spans.time t Spans.Mkfs) 0.02;
  close "self time excludes the child" (Spans.self t Spans.Record) 0.01;
  close "inclusive time" (Spans.time t Spans.Record) 0.03;
  close "covered time is the sum of self times" (Spans.covered t) 0.03

let test_expect_roundtrip () =
  let ace =
    Outcome.Ace
      {
        workloads = 3;
        crash_states = 10;
        crash_points = 4;
        dedup_hits = 1;
        vcache_hits = 2;
        fingerprints = [ "a\"b"; "c" ];
      }
  in
  let fuzz =
    Outcome.Fuzz
      [
        {
          rng_seed = 1;
          execs = 32;
          f_crash_states = 9;
          f_dedup_hits = 0;
          coverage = 5;
          corpus = 2;
          findings = [ ("x", 3); ("y", 1) ];
        };
      ]
  in
  List.iter
    (fun e ->
      match C.Json.parse (Outcome.expect_to_json e) with
      | Error m -> Alcotest.fail m
      | Ok j -> Alcotest.(check bool) "round trip" true (Outcome.expect_of_json j = e))
    [ ace; fuzz ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "seeded inputs are stable" `Quick test_inputs_stable;
          Alcotest.test_case "span self time excludes children" `Quick test_span_nesting;
          Alcotest.test_case "expectations round-trip" `Quick test_expect_roundtrip;
          Alcotest.test_case "traced driver transparent on ace-nova" `Quick
            (ace_transparent Inputs.Ace_nova ~n:64);
          Alcotest.test_case "traced driver transparent on ace-pmfs-seq3" `Quick
            (ace_transparent Inputs.Ace_pmfs_seq3 ~n:16);
          Alcotest.test_case "traced driver transparent on fuzz-nova-j2" `Quick fuzz_transparent;
        ] );
    ]
