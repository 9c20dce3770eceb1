(* The program's entry points as the benchmark drives them. *)

module H = Chipmunk.Harness

(* The timed ACE path: one fresh campaign over the inputs. *)
let campaign ?(jobs = 1) driver inputs =
  Chipmunk.Campaign.run
    ~exec:(Chipmunk.Run.exec ~keep_sizes:false ~jobs ())
    driver (Array.to_seq inputs)

(* The traced ACE path: each workload through [Harness.record] and then
   [Harness.replay_recorded], with one verdict cache for the whole suite —
   what [Campaign.run] does at jobs = 1, split at the phase boundary so each
   phase is its own span. Also time, outside those spans, the calls the
   harness makes internally that no wrapper can see: the oracle run, the
   device allocation, and the extra base-image snapshot that
   [replay_recorded] takes and the timed path does not.
   Returns the round's outcome and the verdict cache's entry count. *)
let record_replay ?(opts = H.default_opts) (driver : Vfs.Driver.t) inputs =
  let vcache = Chipmunk.Vcache.create () in
  let seen = Hashtbl.create 64 in
  let states = ref 0 and points = ref 0 and dedup = ref 0 and vhits = ref 0 in
  Array.iter
    (fun (_name, calls) ->
      let r = Spans.span ~alloc:true Spans.Record (fun () -> H.record ~opts driver calls) in
      let res =
        Spans.span ~alloc:true Spans.Replay (fun () -> H.replay_recorded ~opts ~vcache driver r)
      in
      Spans.span Spans.Side_oracle (fun () -> ignore (Chipmunk.Oracle.run calls));
      Spans.span Spans.Side_create (fun () ->
          ignore (Pmem.Image.create ~size:driver.Vfs.Driver.device_size));
      Spans.span Spans.Side_snapshot (fun () -> ignore (Pmem.Image.snapshot r.H.rec_base));
      let s = res.H.stats in
      states := !states + s.H.crash_states;
      points := !points + s.H.crash_points;
      dedup := !dedup + s.H.dedup_hits;
      vhits := !vhits + s.H.vcache_hits;
      List.iter
        (fun rep -> Hashtbl.replace seen (Chipmunk.Report.fingerprint rep) ())
        res.H.reports)
    inputs;
  let outcome =
    {
      Outcome.workloads = Array.length inputs;
      crash_states = !states;
      crash_points = !points;
      dedup_hits = !dedup;
      vcache_hits = !vhits;
      fingerprints = List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen));
    }
  in
  (outcome, Chipmunk.Vcache.entries vcache)

let fuzz ~jobs ~rng_seed ~execs driver =
  Fuzz.Fuzzer.run ~config:(Inputs.fuzz_config ~rng_seed ~execs ~jobs) driver
