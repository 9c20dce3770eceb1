let enabled = Atomic.make false

(* Global cumulative hit set: fixed buckets of immutable lists behind
   Atomics. Adding is a CAS loop (retry on contention), membership is a
   list scan — bucket chains stay short because the point universe is a
   few hundred literals. *)
let n_buckets = 512
let global : string list Atomic.t array = Array.init n_buckets (fun _ -> Atomic.make [])
let bucket p = Hashtbl.hash p land (n_buckets - 1)

let rec global_add b p =
  let cur = Atomic.get b in
  if (not (List.mem p cur)) && not (Atomic.compare_and_set b cur (p :: cur)) then global_add b p

(* Per-domain local table: which points this domain hit since its last
   [local_reset]. Also serves as a fast path — a point already in the
   local table needs no global CAS. *)
let local_key : (string, unit) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

(* Per-domain recorder armed by [record]: every point marked while it is
   armed, newest first, including points the local table already holds. *)
let recorder : string list option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

let reset () =
  Array.iter (fun b -> Atomic.set b []) global;
  Hashtbl.reset (Domain.DLS.get local_key)

let mark p =
  if Atomic.get enabled then begin
    let r = Domain.DLS.get recorder in
    (match !r with Some ps -> r := Some (p :: ps) | None -> ());
    let local = Domain.DLS.get local_key in
    if not (Hashtbl.mem local p) then begin
      Hashtbl.replace local p ();
      global_add global.(bucket p) p
    end
  end

let hits () =
  Array.fold_left (fun acc b -> List.rev_append (Atomic.get b) acc) [] global
  |> List.sort String.compare

let count () = Array.fold_left (fun acc b -> acc + List.length (Atomic.get b)) 0 global
let local_reset () = Hashtbl.reset (Domain.DLS.get local_key)

let local_hits () =
  Hashtbl.fold (fun k () acc -> k :: acc) (Domain.DLS.get local_key) []
  |> List.sort String.compare

let record f =
  if not (Atomic.get enabled) then (f (), [])
  else begin
    let r = Domain.DLS.get recorder in
    r := Some [];
    let stop () =
      let ps = Option.value !r ~default:[] in
      r := None;
      List.sort_uniq String.compare ps
    in
    match f () with
    | v -> (v, stop ())
    | exception e ->
      ignore (stop ());
      raise e
  end
