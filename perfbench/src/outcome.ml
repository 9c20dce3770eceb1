(* What the output checks compare: the deterministic counts and findings of
   one round, reduced from whichever runner produced them. Stored
   expectations (expect/<workload>.json) hold the same records, written by
   [main.exe expect] from jobs = 1 runs. *)

module J = Chipmunk.Json

type ace = {
  workloads : int;
  crash_states : int;
  crash_points : int;
  dedup_hits : int;
  vcache_hits : int;  (* compared only at jobs = 1 *)
  fingerprints : string list;  (* sorted *)
}

type fuzz = {
  rng_seed : int;
  execs : int;
  f_crash_states : int;
  f_dedup_hits : int;
  coverage : int;
  corpus : int;
  findings : (string * int) list;  (* fingerprint, at_exec; in discovery order *)
}

let of_campaign (r : Chipmunk.Campaign.result) =
  {
    workloads = r.workloads_run;
    crash_states = r.crash_states;
    crash_points = r.crash_points;
    dedup_hits = r.dedup_hits;
    vcache_hits = r.vcache_hits;
    fingerprints =
      List.sort compare (List.map (fun (e : Chipmunk.Campaign.event) -> e.fingerprint) r.events);
  }

let of_fuzz ~rng_seed (r : Fuzz.Fuzzer.result) =
  {
    rng_seed;
    execs = r.execs;
    f_crash_states = r.crash_states;
    f_dedup_hits = r.dedup_hits;
    coverage = r.coverage;
    corpus = r.corpus_size;
    findings = List.map (fun (e : Fuzz.Fuzzer.event) -> (e.fingerprint, e.at_exec)) r.events;
  }

(* Mismatches between an expected and an observed round, as messages;
   empty when the round is correct. [vcache] says whether hit counts are
   deterministic (jobs = 1). *)
let diff_ace ~vcache (e : ace) (o : ace) =
  let num what a b = if a = b then [] else [ Printf.sprintf "%s: expected %d, got %d" what a b ] in
  num "workloads" e.workloads o.workloads
  @ num "crash_states" e.crash_states o.crash_states
  @ num "crash_points" e.crash_points o.crash_points
  @ num "dedup_hits" e.dedup_hits o.dedup_hits
  @ (if vcache then num "vcache_hits" e.vcache_hits o.vcache_hits else [])
  @
  if e.fingerprints = o.fingerprints then []
  else
    [
      Printf.sprintf "findings: expected %d fingerprints, got %d (%d unexpected)"
        (List.length e.fingerprints) (List.length o.fingerprints)
        (List.length (List.filter (fun f -> not (List.mem f e.fingerprints)) o.fingerprints));
    ]

let diff_fuzz (e : fuzz) (o : fuzz) =
  let num what a b = if a = b then [] else [ Printf.sprintf "%s: expected %d, got %d" what a b ] in
  num "rng_seed" e.rng_seed o.rng_seed
  @ num "execs" e.execs o.execs
  @ num "crash_states" e.f_crash_states o.f_crash_states
  @ num "dedup_hits" e.f_dedup_hits o.f_dedup_hits
  @ num "coverage" e.coverage o.coverage
  @ num "corpus" e.corpus o.corpus
  @
  if e.findings = o.findings then []
  else [ Printf.sprintf "findings (fingerprint, at_exec) differ from the jobs = 1 run" ]

(* Operations a round failed: those that yielded a finding outside the
   expected set. *)
let unexpected_ace (e : ace) (o : ace) =
  List.length (List.filter (fun f -> not (List.mem f e.fingerprints)) o.fingerprints)

let unexpected_fuzz (e : fuzz) (o : fuzz) =
  List.length (List.filter (fun f -> not (List.mem f e.findings)) o.findings)

(* JSON round trip. *)

let ace_to_json a =
  J.obj
    [
      ("workloads", string_of_int a.workloads);
      ("crash_states", string_of_int a.crash_states);
      ("crash_points", string_of_int a.crash_points);
      ("dedup_hits", string_of_int a.dedup_hits);
      ("vcache_hits", string_of_int a.vcache_hits);
      ("fingerprints", J.arr (List.map J.str a.fingerprints));
    ]

let fuzz_to_json f =
  J.obj
    [
      ("rng_seed", string_of_int f.rng_seed);
      ("execs", string_of_int f.execs);
      ("crash_states", string_of_int f.f_crash_states);
      ("dedup_hits", string_of_int f.f_dedup_hits);
      ("coverage", string_of_int f.coverage);
      ("corpus", string_of_int f.corpus);
      ( "findings",
        J.arr (List.map (fun (fp, at) -> J.arr [ J.str fp; string_of_int at ]) f.findings) );
    ]

exception Bad of string

let field name j =
  match J.member name j with Some v -> v | None -> raise (Bad ("missing field " ^ name))

let int name j =
  match J.to_int_opt (field name j) with Some i -> i | None -> raise (Bad (name ^ ": not an int"))

let list name j =
  match J.to_list_opt (field name j) with Some l -> l | None -> raise (Bad (name ^ ": not a list"))

let str j = match J.to_string_opt j with Some s -> s | None -> raise (Bad "not a string")

let ace_of_json j =
  {
    workloads = int "workloads" j;
    crash_states = int "crash_states" j;
    crash_points = int "crash_points" j;
    dedup_hits = int "dedup_hits" j;
    vcache_hits = int "vcache_hits" j;
    fingerprints = List.map str (list "fingerprints" j);
  }

let fuzz_of_json j =
  let finding = function
    | J.Arr [ fp; J.Int at ] -> (str fp, at)
    | _ -> raise (Bad "findings: expected [fingerprint, at_exec]")
  in
  {
    rng_seed = int "rng_seed" j;
    execs = int "execs" j;
    f_crash_states = int "crash_states" j;
    f_dedup_hits = int "dedup_hits" j;
    coverage = int "coverage" j;
    corpus = int "corpus" j;
    findings = List.map finding (list "findings" j);
  }

type expect = Ace of ace | Fuzz of fuzz list

let expect_to_json = function
  | Ace a -> J.obj [ ("ace", ace_to_json a) ]
  | Fuzz l -> J.obj [ ("fuzz", J.arr (List.map fuzz_to_json l)) ]

let expect_of_json j =
  match (J.member "ace" j, J.member "fuzz" j) with
  | Some a, None -> Ace (ace_of_json a)
  | None, Some (J.Arr l) -> Fuzz (List.map fuzz_of_json l)
  | _ -> raise (Bad "expected exactly one of \"ace\" or \"fuzz\"")

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
    match J.parse text with
    | Error m -> Error (path ^ ": " ^ m)
    | Ok j -> ( try Ok (expect_of_json j) with Bad m -> Error (path ^ ": " ^ m)))

let save path e = Out_channel.with_open_bin path (fun oc -> output_string oc (expect_to_json e ^ "\n"))
