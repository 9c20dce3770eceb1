type event = {
  fingerprint : string;
  report : Report.t;
  workload_name : string;
  workload_index : int;
  elapsed : float;
  states_so_far : int;
}

type result = {
  events : event list;
  workloads_run : int;
  crash_states : int;
  crash_points : int;
  dedup_hits : int;
  vcache_hits : int;
  elapsed : float;
  in_flight_sizes : int list;
  max_in_flight : int;
}

(* Per-campaign accumulator: one workload's harness result is merged the
   same way whatever the worker count — the pool feeds results in
   workload-index order, so the first-workload-wins dedup below is
   deterministic under any schedule. *)
type acc = {
  seen : (string, unit) Hashtbl.t;
  mutable events : event list;  (* newest first *)
  mutable workloads : int;
  mutable states : int;
  mutable points : int;
  mutable dedups : int;
  mutable vhits : int;
  mutable sizes : int list;
  mutable max_if : int;
  keep_sizes : bool;
}

let acc_create ~keep_sizes =
  {
    seen = Hashtbl.create 32;
    events = [];
    workloads = 0;
    states = 0;
    points = 0;
    dedups = 0;
    vhits = 0;
    sizes = [];
    max_if = 0;
    keep_sizes;
  }

(* Fold one workload's result in. [minimize] runs only on first
   occurrences — after dedup — so a campaign pays minimization cost once
   per unique fingerprint, not once per duplicate report. *)
let acc_add acc ~name ~index ~elapsed ~minimize (r : Harness.result) =
  acc.workloads <- acc.workloads + 1;
  acc.states <- acc.states + r.Harness.stats.Harness.crash_states;
  acc.points <- acc.points + r.Harness.stats.Harness.crash_points;
  acc.dedups <- acc.dedups + r.Harness.stats.Harness.dedup_hits;
  acc.vhits <- acc.vhits + r.Harness.stats.Harness.vcache_hits;
  if acc.keep_sizes then
    acc.sizes <- List.rev_append r.Harness.stats.Harness.in_flight_sizes acc.sizes;
  acc.max_if <- max acc.max_if r.Harness.stats.Harness.max_in_flight;
  List.iter
    (fun report ->
      let fp = Report.fingerprint report in
      if not (Hashtbl.mem acc.seen fp) then begin
        Hashtbl.replace acc.seen fp ();
        let report = match minimize with None -> report | Some f -> f report in
        acc.events <-
          {
            fingerprint = fp;
            report;
            workload_name = name;
            workload_index = index;
            elapsed;
            states_so_far = acc.states;
          }
          :: acc.events
      end)
    r.Harness.reports

let acc_result acc ~elapsed =
  {
    events = List.rev acc.events;
    workloads_run = acc.workloads;
    crash_states = acc.states;
    crash_points = acc.points;
    dedup_hits = acc.dedups;
    vcache_hits = acc.vhits;
    elapsed;
    in_flight_sizes = acc.sizes;
    max_in_flight = acc.max_if;
  }

let take n l = List.filteri (fun i _ -> i < n) l

let run ?(exec = Run.default_exec) ?(budget = Run.unlimited) driver suite =
  let t0 = Unix.gettimeofday () in
  (* A campaign's unit of execution is one workload, so [max_execs] and
     [max_workloads] bound the same counter; both are enforced up front by
     truncating the suite. *)
  let wl_cap =
    match (budget.Run.max_workloads, budget.Run.max_execs) with
    | None, None -> None
    | Some m, None | None, Some m -> Some m
    | Some a, Some b -> Some (min a b)
  in
  let suite = match wl_cap with None -> suite | Some m -> Seq.take m suite in
  (* Live early-stop state, updated under the pool lock as workloads finish
     (in completion order). It only decides when to stop dispatching; the
     returned result is merged deterministically below. *)
  let live_seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let found = Atomic.make 0 in
  let stop () =
    Run.out_of_budget budget ~execs:0 ~workloads:0
      ~seconds:(Unix.gettimeofday () -. t0)
      ~findings:(Atomic.get found)
  in
  let on_result _index ((r : Harness.result), _done_at) =
    List.iter
      (fun report ->
        let fp = Report.fingerprint report in
        if not (Hashtbl.mem live_seen fp) then begin
          Hashtbl.replace live_seen fp ();
          Atomic.incr found
        end)
      r.Harness.reports
  in
  (* One verdict cache for the whole campaign (when enabled): the harness
     syncs it at workload boundaries, so worker domains share verdicts via
     a per-domain snapshot/merge. Never reused across campaigns — the
     entries are only valid for this [driver] instance. *)
  let vcache = if exec.Run.use_vcache then Some (Vcache.create ()) else None in
  let work (_name, workload) =
    let r = Harness.test_workload ~opts:exec.Run.opts ?vcache driver workload in
    (r, Unix.gettimeofday () -. t0)
  in
  let completed =
    Pool.map ~jobs:(Run.effective_jobs exec) ~stop ~on_result work suite
  in
  (* Deterministic merge: completed workloads arrive sorted by workload
     index, so fingerprint dedup ties always resolve to the lowest index,
     independent of domain scheduling. Minimization also happens here, on
     the caller's domain, so it too only runs on the deterministic set of
     first occurrences. *)
  let acc = acc_create ~keep_sizes:exec.Run.keep_sizes in
  List.iter
    (fun (i, (name, _workload), (r, done_at)) ->
      acc_add acc ~name ~index:i ~elapsed:done_at ~minimize:exec.Run.minimize r)
    completed;
  let result = acc_result acc ~elapsed:(Unix.gettimeofday () -. t0) in
  (* Workloads past the n-th finding may already have been dispatched;
     truncate so the findings cap is exact under any worker count. *)
  match budget.Run.stop_after_findings with
  | Some n when List.length result.events > n -> { result with events = take n result.events }
  | _ -> result
