(* The benchmark program. See ../README.md for the workloads, the metrics
   and how the run is split into rounds.

     main.exe --workload W --seed N --seconds S --trace 0|1
       One run; prints progress lines, then the result as one JSON line.
     main.exe expect --workload W
       Rewrite expect/W.json from jobs = 1 runs (run from the checkout root);
       the fuzzing workload covers every fuzzer seed a run of up to 60
       seconds uses. *)

open Perfbench
module C = Chipmunk

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- Run shape ---- *)

(* Set-up is repeated this many times per run and reported as a median.
   A timed run makes the first repetition before round 0 and spreads the
   others over the run, after the rounds: the host's speed drifts over a
   run's seconds, and repetitions made only at the start sampled a few
   seconds of it (ten-run spread of set-up 21-31%, against 10-15% for the
   rounds' rates). Only the first runs in a fresh heap, so every run's
   median is taken over the same mix of cold and warm repetitions. *)
let setup_reps = 9

(* The set-up repetitions a timed run makes after round [i] of [n]:
   repetition [j >= 1] goes after round [(j - 1) * n / (setup_reps - 1)]. *)
let reps_after ~n i =
  List.length
    (List.filter (fun j -> (j - 1) * n / (setup_reps - 1) = i) (List.init (setup_reps - 1) succ))

(* Nominal length of one round on the reference host (2-core x86-64
   container); the round count is [seconds / nominal], at least 3, so a
   given --seconds always does the same work. *)
let nominal_round_s = function
  | Inputs.Ace_nova -> 7.5
  | Inputs.Ace_pmfs_seq3 -> 3.6
  | Inputs.Fuzz_nova_j2 -> 1.3

let rounds w ~seconds = max 3 (int_of_float (float_of_int seconds /. nominal_round_s w))

(* Traced runs time fewer rounds of each kind. *)
let traced_rounds w ~seconds = max 1 ((rounds w ~seconds + 2) / 3)

let fuzz_jobs = 2

(* Workloads (ACE) or execs (fuzz) run once in every set-up, untimed by
   the rounds: the first campaign in a process grows the heap. On the ACE
   workloads the warm-up also makes each set-up repetition long enough
   (0.6-1 s) to span the host's sub-second slow spells: repetitions of
   0.2-0.4 s took either the fast or a 1.45x slower time, and the median
   jumped between the two. The fuzzing set-up stays short: with 64 execs
   its ten-run spread was 9-15%, and a 256-exec warm-up gave 12% over five
   seeds but raised the spread of peak_heap_mb, which worker domains make
   noisy, to 15%. *)
let warmup_ops = function
  | Inputs.Ace_nova -> 768
  | Inputs.Ace_pmfs_seq3 -> 160
  | Inputs.Fuzz_nova_j2 -> 64

let expect_path w = Filename.concat "perfbench/expect" (Inputs.name w ^ ".json")

(* ---- Set-up ---- *)

type inputs = Ace_in of (string * Vfs.Syscall.t list) array | Fuzz_in of int array

type setup = { driver : Vfs.Driver.t; inputs : inputs; gen_s : float; setup_s : float }

(* One set-up from a compacted heap (untimed), as every round starts. *)
let setup_once w ~seed ~rounds =
  Gc.compact ();
  let t0 = now () in
  let driver = Inputs.driver w in
  let tg = now () in
  let inputs =
    match w with
    | Inputs.Fuzz_nova_j2 -> Fuzz_in (Inputs.fuzz_seeds ~seed ~rounds)
    | _ -> Ace_in (Inputs.ace_inputs w ~seed)
  in
  let gen_s = now () -. tg in
  (match inputs with
  | Ace_in a ->
    ignore (Runner.campaign driver (Array.sub a 0 (min (warmup_ops w) (Array.length a))))
  | Fuzz_in _ ->
    ignore (Runner.fuzz ~jobs:fuzz_jobs ~rng_seed:0 ~execs:(warmup_ops w) driver));
  { driver; inputs; gen_s; setup_s = now () -. t0 }

let log_setups times =
  log "set-up: %s" (String.concat " " (List.map (Printf.sprintf "%.4fs") times))

(* All repetitions up front, for a traced run: the set-up to run from and
   the median input-generation time. Only the times of the others are
   kept, so their inputs do not stay live during the rounds. *)
let setup_upfront w ~seed ~rounds =
  let st = setup_once w ~seed ~rounds in
  let rest = List.init (setup_reps - 1) (fun _ -> setup_once w ~seed ~rounds) in
  let rest = List.map (fun s -> (s.setup_s, s.gen_s)) rest in
  log_setups (st.setup_s :: List.map fst rest);
  (st, median (st.gen_s :: List.map snd rest))

(* ---- Checks ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally = { attempted = 0; failed = 0; errors = [] }

let error fmt = Printf.ksprintf (fun s -> tally.errors <- s :: tally.errors; log "ERROR %s" s) fmt

let load_expect w =
  let fail m =
    prerr_endline ("perfbench: cannot load expectations: " ^ m);
    exit 2
  in
  match Outcome.load (expect_path w) with Ok e -> e | Error m -> fail m

let expect_ace w =
  match load_expect w with
  | Outcome.Ace e -> e
  | Outcome.Fuzz _ -> invalid_arg (expect_path w ^ " holds fuzz expectations")

let expect_fuzz w =
  match load_expect w with
  | Outcome.Fuzz e -> e
  | Outcome.Ace _ -> invalid_arg (expect_path w ^ " holds ACE expectations")

let check_ace ~what ~vcache (e : Outcome.ace) (o : Outcome.ace) =
  tally.attempted <- tally.attempted + o.Outcome.workloads;
  tally.failed <- tally.failed + Outcome.unexpected_ace e o;
  List.iter (fun m -> error "%s: %s" what m) (Outcome.diff_ace ~vcache e o)

let fuzz_expected exp rng_seed =
  match List.find_opt (fun (f : Outcome.fuzz) -> f.Outcome.rng_seed = rng_seed) exp with
  | Some f -> f
  | None ->
    prerr_endline
      (Printf.sprintf "perfbench: no expectation for fuzzer seed %d; lower --seconds" rng_seed);
    exit 2

let check_fuzz ~what (e : Outcome.fuzz) (o : Outcome.fuzz) =
  tally.attempted <- tally.attempted + o.Outcome.execs;
  tally.failed <- tally.failed + Outcome.unexpected_fuzz e o;
  List.iter (fun m -> error "%s: %s" what m) (Outcome.diff_fuzz e o)

(* A round the program aborted: all its operations failed. *)
let guard ~what ~ops f =
  match f () with
  | v -> Some v
  | exception e ->
    tally.attempted <- tally.attempted + ops;
    tally.failed <- tally.failed + ops;
    error "%s raised %s" what (Printexc.to_string e);
    None

(* ---- Rounds ---- *)

type round = { wall : float; states : int; ops : int; find_all : float; heap_top : float }

let last_finding_or wall times = if times = [] then wall else List.fold_left max 0. times

(* [top_heap_words] is not monotone once worker domains come and go (after
   consecutive fuzz rounds it read 27-44 MiB), so runs sample it after
   set-up and after every round, and report the largest sample. On one
   domain that is the end-of-run value. *)
let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.

(* Every round starts from a compacted heap, as a fresh campaign process
   would, instead of from the previous round's garbage. *)
let start_round () =
  Gc.compact ();
  now ()

let ace_round ~expect ~label driver inputs =
  let n = Array.length inputs in
  let t0 = start_round () in
  guard ~what:label ~ops:n (fun () -> Runner.campaign driver inputs)
  |> Option.map (fun r ->
         let wall = now () -. t0 in
         check_ace ~what:label ~vcache:true expect (Outcome.of_campaign r);
         {
           wall;
           states = r.C.Campaign.crash_states;
           ops = r.C.Campaign.workloads_run;
           find_all =
             last_finding_or wall
               (List.map (fun (e : C.Campaign.event) -> e.elapsed) r.C.Campaign.events);
           heap_top = peak_heap_mb ();
         })

let fuzz_round ~expect ~label ~jobs driver rng_seed =
  let t0 = start_round () in
  guard ~what:label ~ops:Inputs.fuzz_execs (fun () ->
      Runner.fuzz ~jobs ~rng_seed ~execs:Inputs.fuzz_execs driver)
  |> Option.map (fun (r : Fuzz.Fuzzer.result) ->
         let wall = now () -. t0 in
         check_fuzz ~what:label (fuzz_expected expect rng_seed) (Outcome.of_fuzz ~rng_seed r);
         ( {
             wall;
             states = r.crash_states;
             ops = r.execs;
             find_all =
               last_finding_or wall (List.map (fun (e : Fuzz.Fuzzer.event) -> e.elapsed) r.events);
             heap_top = peak_heap_mb ();
           },
           r ))

(* Round [i] on the untraced path, as a timed run makes it. *)
let timed_round w st i =
  match st.inputs with
  | Ace_in inputs ->
    ace_round ~expect:(expect_ace w) ~label:(Printf.sprintf "round %d" i) st.driver inputs
  | Fuzz_in seeds ->
    fuzz_round ~expect:(expect_fuzz w)
      ~label:(Printf.sprintf "round %d (fuzzer seed %d)" i seeds.(i))
      ~jobs:fuzz_jobs st.driver seeds.(i)
    |> Option.map fst

let timed_rounds w st ~n = List.filter_map (timed_round w st) (List.init n Fun.id)

(* ---- Output ---- *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit metrics =
  let correct = tally.errors = [] && tally.failed = 0 in
  let m =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else -1. in
        (name, C.Json.obj [ ("value", num v); ("unit", C.Json.str unit) ]))
      metrics
  in
  print_endline
    (C.Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 tally.attempted));
         ("failed", string_of_int tally.failed);
         ("metrics", C.Json.obj m);
       ])

(* ---- Timed run ---- *)

let timed w ~seed ~seconds =
  let n = rounds w ~seconds in
  (* Every repetition yields the same driver and inputs; the rounds run on
     the first, and the others are dropped once timed. *)
  let st = setup_once w ~seed ~rounds:n in
  let setup_times = ref [ st.setup_s ] in
  let setup_heap = peak_heap_mb () in
  log "%s: heap top %.1f MiB after set-up; %d rounds" (Inputs.name w) setup_heap n;
  let rs =
    List.filter_map
      (fun i ->
        let r = timed_round w st i in
        for _ = 1 to reps_after ~n i do
          setup_times := (setup_once w ~seed ~rounds:n).setup_s :: !setup_times
        done;
        r)
      (List.init n Fun.id)
  in
  let setup_times = List.rev !setup_times in
  let setup_s = median setup_times in
  log_setups setup_times;
  log "set-up median %.3fs over %d" setup_s setup_reps;
  List.iteri
    (fun i r ->
      log "round %d: %.3fs, %d states, %d ops, last finding at %.3fs, heap top %.1f MiB" i r.wall
        r.states r.ops r.find_all r.heap_top)
    rs;
  let med f = median (List.map f rs) in
  emit
    [
      ("setup_s", "s", setup_s);
      ("states_per_s", "1/s", med (fun r -> float_of_int r.states /. r.wall));
      ("execs_per_s", "1/s", med (fun r -> float_of_int r.ops /. r.wall));
      ("find_all_s", "s", med (fun r -> r.find_all));
      ("peak_heap_mb", "MiB", List.fold_left (fun m r -> Float.max m r.heap_top) setup_heap rs);
    ]

(* ---- Traced run ---- *)

(* Totals from some traced rounds, and how many rounds they cover. *)
type source = { totals : Spans.totals; per : float }

let per_round src f lay = f src.totals lay /. src.per
let calls_per_round src lay = float_of_int (Spans.calls src.totals lay) /. src.per

(* Per-layer metrics, each per traced round. [harness] supplies the record,
   replay and side-call spans, [drivers] the driver and handle spans; they
   are the same rounds except on the fuzzing workload. *)
let log_spans what totals =
  log "spans, %s:" what;
  List.iter (log "  %s") (Spans.table totals)

(* Harness counters per traced round. *)
type counts = { states : float; points : float; dedup : float; vhits : float; entries : float }

let layer_metrics ~gen_s ~harness ~drivers ~counts ~gc ~pool ~fuzz ~overhead ~covered =
  let fi = float_of_int in
  let h = per_round harness and d = per_round drivers in
  let mw lay = per_round harness Spans.alloc lay /. 1e6 in
  let speedup, busy = pool and coverage, corpus = fuzz in
  let mounts = calls_per_round drivers Spans.Mount in
  let gp = drivers.per in
  [
    ("ace.gen_s", "s", gen_s);
    ("record.s", "s", h Spans.time Spans.Record);
    ("record.self_s", "s", h Spans.self Spans.Record);
    ("record.alloc_mw", "Mwords", mw Spans.Record);
    ("mkfs.s", "s", d Spans.time Spans.Mkfs);
    ("mkfs.calls", "count", calls_per_round drivers Spans.Mkfs);
    ("fs_ops.s", "s", d Spans.time Spans.Fs_ops);
    ("fs_ops.calls", "count", calls_per_round drivers Spans.Fs_ops);
    ("replay.s", "s", h Spans.time Spans.Replay);
    ("replay.self_s", "s", h Spans.self Spans.Replay);
    ("replay.alloc_mw", "Mwords", mw Spans.Replay);
    ("crash_points", "count", counts.points);
    ("crash_states", "count", counts.states);
    ("dedup_hits", "count", counts.dedup);
    ("vcache_hits", "count", counts.vhits);
    ("cache_hit_frac", "ratio", (counts.dedup +. counts.vhits) /. counts.states);
    ("vcache.entries", "count", counts.entries);
    ("oracle.side_s", "s", h Spans.time Spans.Side_oracle);
    ("image.create_side_s", "s", h Spans.time Spans.Side_create);
    ("image.snapshot_side_s", "s", h Spans.time Spans.Side_snapshot);
    ("mount.s", "s", d Spans.time Spans.Mount);
    ("mount.calls", "count", mounts);
    ("mount.errors", "count", fi drivers.totals.Spans.t_mount_errors /. gp);
    ("mount_frac", "ratio", mounts /. counts.states);
    ("capture.s", "s", d Spans.time Spans.Capture);
    ("capture.ops", "count", calls_per_round drivers Spans.Capture);
    ("probe.s", "s", d Spans.time Spans.Probe);
    ("probe.ops", "count", calls_per_round drivers Spans.Probe);
    ("pool.speedup_j2", "ratio", speedup);
    ("pool.busy_frac_j2", "ratio", busy);
    ("fuzz.coverage", "count", coverage);
    ("fuzz.corpus", "count", corpus);
    ("gc.minor_s", "s", gc.Gc_layer.gc_minor_s /. gp);
    ("gc.major_s", "s", gc.Gc_layer.gc_major_s /. gp);
    ("gc.minor_collections", "count", fi gc.Gc_layer.gc_minor_collections /. gp);
    ("gc.major_collections", "count", fi gc.Gc_layer.gc_major_collections /. gp);
    ("gc.alloc_mb", "MiB", gc.Gc_layer.gc_alloc_mb /. gp);
    ("gc.lost_events", "count", fi gc.Gc_layer.gc_lost_events);
    ("trace.overhead", "ratio", overhead);
    ("trace.covered_frac", "ratio", covered);
  ]

let traced_ace w st ~gen_s ~seconds =
  let inputs = match st.inputs with Ace_in a -> a | Fuzz_in _ -> assert false in
  let expect = expect_ace w in
  let n = traced_rounds w ~seconds in
  let timed = timed_rounds w st ~n in
  (* Traced rounds: record + replay per workload on the traced driver. *)
  let traced = Spans.driver st.driver in
  Spans.reset ();
  Gc_layer.start ();
  let walls = ref [] and last = ref None in
  for i = 1 to n do
    let label = Printf.sprintf "traced round %d" i in
    let t0 = start_round () and side0 = Spans.side_time (Spans.collect ()) in
    match guard ~what:label ~ops:(Array.length inputs) (fun () ->
              Runner.record_replay traced inputs) with
    | None -> ()
    | Some (o, entries) ->
      let side = Spans.side_time (Spans.collect ()) -. side0 in
      walls := (now () -. t0 -. side) :: !walls;
      check_ace ~what:label ~vcache:true expect o;
      last := Some (o, entries)
  done;
  let gc = Gc_layer.stop () in
  let totals = Spans.collect () in
  match !last with
  | None -> emit []
  | Some (o, entries) ->
    let src = { totals; per = float_of_int n } in
    let traced_wall = List.fold_left ( +. ) 0. !walls in
    let covered = Spans.covered totals /. traced_wall in
    let overhead = median !walls /. median (List.map (fun r -> r.wall) timed) in
    log_spans (Printf.sprintf "%d traced rounds" n) totals;
    log "%s traced: %d rounds, covered %.3f, overhead %.3f" (Inputs.name w) n covered overhead;
    if covered < 0.90 then error "trace.covered_frac %.3f < 0.90" covered;
    let fi = float_of_int in
    let counts =
      {
        states = fi o.Outcome.crash_states;
        points = fi o.Outcome.crash_points;
        dedup = fi o.Outcome.dedup_hits;
        vhits = fi o.Outcome.vcache_hits;
        entries = fi entries;
      }
    in
    (* The ACE workloads run at jobs 1: the pool metrics are not measured
       there and read -1. *)
    emit
      (layer_metrics ~gen_s ~harness:src ~drivers:src ~counts ~gc ~pool:(nan, nan) ~fuzz:(0., 0.)
         ~overhead ~covered)

let traced_fuzz w st ~gen_s ~seconds =
  let seeds = match st.inputs with Fuzz_in s -> s | Ace_in _ -> assert false in
  let expect = expect_fuzz w in
  let n = traced_rounds w ~seconds in
  let timed = timed_rounds w st ~n in
  let seeds = Array.sub seeds 0 n in
  let traced = Spans.driver ~exec_spans:true st.driver in
  let run_traced ~jobs =
    List.filter_map
      (fun s ->
        let r =
          fuzz_round ~expect ~jobs ~label:(Printf.sprintf "traced jobs %d (fuzzer seed %d)" jobs s)
            traced s
        in
        (* At jobs 1 the last exec span is open on this domain. *)
        Spans.end_exec ();
        r)
      (Array.to_list seeds)
  in
  (* Traced rounds at the workload's jobs = 2: layer times summed over
     every worker domain's accumulator. *)
  Spans.reset ();
  Gc_layer.start ();
  let j2 = run_traced ~jobs:fuzz_jobs in
  let gc = Gc_layer.stop () in
  let totals = Spans.collect () in
  (* The same seeds at jobs 1, for the pool speedup and the span coverage:
     on one domain the exec spans must account for the traced wall, while
     at jobs 2 the domains' idle time at epoch barriers is the pool's own
     waste, reported as pool.busy_frac_j2. *)
  Spans.reset ();
  let j1 = run_traced ~jobs:1 in
  let totals1 = Spans.collect () in
  let wall l = List.fold_left (fun a (r, _) -> a +. r.wall) 0. l in
  let w2 = wall j2 and w1 = wall j1 in
  (* Side pass: the harness layers on each traced round's finding
     workloads, through record + replay_recorded with one verdict cache per
     round (Fuzzer.run calls the harness internally, so its record/replay
     split is not visible from outside). *)
  Spans.reset ();
  let finding_workloads (r : Fuzz.Fuzzer.result) =
    Array.of_list (List.map (fun (e : Fuzz.Fuzzer.event) -> (e.fingerprint, e.workload)) r.events)
  in
  let side_opts = (Inputs.fuzz_exec ~jobs:1).C.Run.opts in
  let side_driver = Spans.driver st.driver in
  let side_ops = List.fold_left (fun a (_, r) -> a + List.length r.Fuzz.Fuzzer.events) 0 j2 in
  let side =
    guard ~what:"side pass" ~ops:side_ops (fun () ->
        List.map
          (fun (_, r) -> Runner.record_replay ~opts:side_opts side_driver (finding_workloads r))
          j2)
  in
  let side_totals = Spans.collect () in
  match (side, j2) with
  | None, _ | _, [] -> emit []
  | Some side, _ ->
    tally.attempted <- tally.attempted + side_ops;
    let p = float_of_int (List.length j2) in
    let mean f l = float_of_int (List.fold_left (fun a x -> a + f x) 0 l) /. p in
    let fuzz_mean f = mean (fun (_, r) -> f r) j2 in
    (* Crash states and cache hits are the fuzzer's over all its execs;
       crash points and cache entries come from the side pass, so they
       cover the finding workloads only. *)
    let counts =
      {
        states = fuzz_mean (fun (r : Fuzz.Fuzzer.result) -> r.crash_states);
        points = mean (fun ((o : Outcome.ace), _) -> o.crash_points) side;
        dedup = fuzz_mean (fun (r : Fuzz.Fuzzer.result) -> r.dedup_hits);
        vhits = fuzz_mean (fun (r : Fuzz.Fuzzer.result) -> r.vcache_hits);
        entries = mean snd side;
      }
    in
    let drivers = { totals; per = p } in
    let busy = Spans.covered totals /. (w2 *. float_of_int fuzz_jobs) in
    let covered = Spans.covered totals1 /. w1 in
    let overhead = w2 /. p /. median (List.map (fun r -> r.wall) timed) in
    log_spans (Printf.sprintf "%d traced rounds at jobs %d, all domains" n fuzz_jobs) totals;
    log_spans "the same rounds at jobs 1" totals1;
    log_spans "side pass over the finding workloads" side_totals;
    log "%s traced: %d rounds, covered %.3f, busy %.3f, overhead %.3f, speedup %.3f"
      (Inputs.name w) n covered busy overhead (w1 /. w2);
    if covered < 0.90 then error "trace.covered_frac %.3f < 0.90" covered;
    emit
      (layer_metrics ~gen_s ~harness:{ totals = side_totals; per = p } ~drivers ~counts ~gc
         ~pool:(w1 /. w2, busy)
         ~fuzz:
           ( fuzz_mean (fun (r : Fuzz.Fuzzer.result) -> r.coverage),
             fuzz_mean (fun (r : Fuzz.Fuzzer.result) -> r.corpus_size) )
         ~overhead ~covered)

let traced w ~seed ~seconds =
  let n = rounds w ~seconds in
  let st, gen_s = setup_upfront w ~seed ~rounds:n in
  match w with
  | Inputs.Fuzz_nova_j2 -> traced_fuzz w st ~gen_s ~seconds
  | _ -> traced_ace w st ~gen_s ~seconds

(* ---- Expectations ---- *)

let write_expect w =
  let e =
    match w with
    | Inputs.Fuzz_nova_j2 ->
      let driver = Inputs.driver w in
      let pool = rounds w ~seconds:60 in
      Outcome.Fuzz
        (List.init pool (fun i ->
             let rng_seed = i + 1 in
             log "fuzzer seed %d" rng_seed;
             Outcome.of_fuzz ~rng_seed
               (Runner.fuzz ~jobs:1 ~rng_seed ~execs:Inputs.fuzz_execs driver)))
    | _ ->
      Outcome.Ace
        (Outcome.of_campaign (Runner.campaign (Inputs.driver w) (Inputs.ace_suite w)))
  in
  Outcome.save (expect_path w) e;
  log "wrote %s" (expect_path w)

(* ---- Command line ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe expect --workload W";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let expect_mode, args = match args with "expect" :: rest -> (true, rest) | _ -> (false, args) in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  let int k ~default =
    match get k with
    | None -> ( match default with Some d -> d | None -> usage ())
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let w =
    match Option.bind (get "workload") Inputs.of_name with Some w -> w | None -> usage ()
  in
  let seconds = int "seconds" ~default:(Some 25) in
  if seconds < 1 || seconds > 60 then usage ();
  if expect_mode then write_expect w
  else
    let seed = int "seed" ~default:None in
    match int "trace" ~default:(Some 0) with
    | 0 -> timed w ~seed ~seconds
    | 1 -> traced w ~seed ~seconds
    | _ -> usage ()
