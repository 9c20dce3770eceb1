(* Seeded input generation. The benchmark's seed decides only the inputs;
   the program under test receives the generated workload lists (or the
   fuzzer's RNG seed) and nothing else.

   Every seed yields the same amount of work: on the ACE workloads the seed
   reorders a fixed suite within blocks, and on the fuzzing workload it
   orders a fixed pool of fuzzer RNG seeds, one per round. A seed-dependent
   amount of work, or a seed-dependent position of the last finding, would
   read as run-to-run spread; see README.md. *)

type workload = Ace_nova | Ace_pmfs_seq3 | Fuzz_nova_j2

let all = [ Ace_nova; Ace_pmfs_seq3; Fuzz_nova_j2 ]

let name = function
  | Ace_nova -> "ace-nova"
  | Ace_pmfs_seq3 -> "ace-pmfs-seq3"
  | Fuzz_nova_j2 -> "fuzz-nova-j2"

let of_name s = List.find_opt (fun w -> name w = s) all

let driver = function
  | Ace_nova | Fuzz_nova_j2 -> (Option.get (Catalog.buggy_driver "nova")) ()
  | Ace_pmfs_seq3 -> (List.assoc "pmfs" Catalog.clean_drivers) ()

(* Fisher-Yates under an RNG derived from the seed alone. *)
let permute ~seed arr =
  let a = Array.copy arr in
  let rng = Random.State.make [| 0x5eed; seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ace-pmfs-seq3 tests every [pmfs_stride]-th seq3-metadata workload. *)
let pmfs_stride = 60

(* The suite of an ACE workload in enumeration order. *)
let ace_suite = function
  | Ace_nova -> Array.of_seq (Seq.append (Ace.seq1 Ace.Strong) (Ace.seq2 Ace.Strong))
  | Ace_pmfs_seq3 ->
    (* Streamed, so the unsampled workloads die young instead of being
       held in one list of the whole suite. *)
    Seq.zip (Seq.ints 0) (Ace.seq3_metadata Ace.Strong)
    |> Seq.filter_map (fun (i, w) -> if i mod pmfs_stride = 0 then Some w else None)
    |> Array.of_seq
  | Fuzz_nova_j2 -> invalid_arg "Inputs.ace_suite: not an ACE workload"

(* ACE workloads are shuffled within consecutive blocks of [ace_block] in
   enumeration order. A whole-suite shuffle moves the workload that first
   yields the last of ace-nova's findings anywhere in the round (time to
   the last finding varied 3.5-6.3 s over five seeds); within blocks it
   moves by at most one block, and neighbouring workloads keep the shared
   ACE-family prefixes they have in enumeration order. *)
let ace_block = 64

let ace_inputs w ~seed =
  let suite = ace_suite w in
  let n = Array.length suite in
  Array.concat
    (List.init ((n + ace_block - 1) / ace_block) (fun b ->
         let off = b * ace_block in
         permute ~seed:((seed * 1_000_003) + b) (Array.sub suite off (min ace_block (n - off)))))

(* Harness options of the fuzzer's default config (cap 2). *)
let fuzz_exec ~jobs = { Fuzz.Fuzzer.default_config.exec with Chipmunk.Run.jobs }

(* Fuzzer executions per round. *)
let fuzz_execs = 1024

(* The fuzzer RNG seeds of [rounds] rounds: the pool [1..rounds], ordered by
   the benchmark seed. *)
let fuzz_seeds ~seed ~rounds = permute ~seed (Array.init rounds (fun i -> i + 1))

let fuzz_config ~rng_seed ~execs ~jobs =
  Fuzz.Fuzzer.config ~rng_seed
    ~budget:(Chipmunk.Run.budget ~max_execs:execs ())
    ~exec:(fuzz_exec ~jobs) ()
