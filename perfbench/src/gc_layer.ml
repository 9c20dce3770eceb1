(* The OCaml runtime as a layer, observed from outside the program through
   the stdlib [Runtime_events] ring of this very process. The ring file
   lands in OCAML_RUNTIME_EVENTS_DIR, which the benchmark's launcher points
   at a temporary directory; an in-process cursor reads it back.

   Minor collections are counted and timed by their [EV_MINOR] phases and
   major work by its [EV_MAJOR_SLICE] phases, per ring (one ring per
   domain). The ring is drained from the span wrappers (via
   [Spans.on_boundary]) and at [stop]; if the reader still falls behind, the
   lost-event count is reported and the collection counts fall back to
   [Gc.quick_stat] deltas. *)

type t = {
  mutable minor_s : float;
  mutable major_s : float;
  mutable minor_n : int;
  mutable lost : int;
  open_minor : (int, int64) Hashtbl.t;  (* ring -> start of open phase, ns *)
  open_major : (int, int64) Hashtbl.t;
}

type result = {
  gc_minor_s : float;
  gc_major_s : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_alloc_mb : float;
  gc_lost_events : int;
}

let st =
  {
    minor_s = 0.;
    major_s = 0.;
    minor_n = 0;
    lost = 0;
    open_minor = Hashtbl.create 8;
    open_major = Hashtbl.create 8;
  }

let cursor = ref None
let lock = Mutex.create ()
let last_poll = ref 0.

let ns ts = Runtime_events.Timestamp.to_int64 ts

let callbacks =
  let table = function
    | Runtime_events.EV_MINOR -> Some st.open_minor
    | Runtime_events.EV_MAJOR_SLICE -> Some st.open_major
    | _ -> None
  in
  let runtime_begin ring ts phase =
    match table phase with Some t -> Hashtbl.replace t ring (ns ts) | None -> ()
  in
  let runtime_end ring ts phase =
    match table phase with
    | None -> ()
    | Some t -> (
      match Hashtbl.find_opt t ring with
      | None -> ()
      | Some t0 ->
        Hashtbl.remove t ring;
        let d = Int64.to_float (Int64.sub (ns ts) t0) *. 1e-9 in
        if phase = Runtime_events.EV_MINOR then begin
          st.minor_s <- st.minor_s +. d;
          st.minor_n <- st.minor_n + 1
        end
        else st.major_s <- st.major_s +. d)
  in
  let lost_events _ring n = st.lost <- st.lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let drain c = ignore (Runtime_events.read_poll c callbacks None)

(* Cheap enough for every span boundary: at most one drain per
   millisecond, and never two domains at once. *)
let poll () =
  match !cursor with
  | None -> ()
  | Some c ->
    let t = Unix.gettimeofday () in
    if t -. !last_poll > 1e-3 && Mutex.try_lock lock then begin
      last_poll := t;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> drain c)
    end

let base = ref (Gc.quick_stat ())

let start () =
  Runtime_events.start ();
  let c =
    match !cursor with
    | Some c -> c
    | None ->
      let c = Runtime_events.create_cursor None in
      cursor := Some c;
      c
  in
  (* Discard what happened before this measurement. *)
  drain c;
  st.minor_s <- 0.;
  st.major_s <- 0.;
  st.minor_n <- 0;
  st.lost <- 0;
  Hashtbl.reset st.open_minor;
  Hashtbl.reset st.open_major;
  Spans.on_boundary := poll;
  base := Gc.quick_stat ()

let stop () =
  (match !cursor with
  | Some c ->
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> drain c)
  | None -> ());
  Spans.on_boundary := (fun () -> ());
  let q = Gc.quick_stat () and b = !base in
  let minor_stat = q.Gc.minor_collections - b.Gc.minor_collections in
  {
    gc_minor_s = st.minor_s;
    gc_major_s = st.major_s;
    gc_minor_collections = (if st.lost = 0 then st.minor_n else minor_stat);
    gc_major_collections = q.Gc.major_collections - b.Gc.major_collections;
    gc_alloc_mb =
      (q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words
      -. (b.Gc.minor_words +. b.Gc.major_words -. b.Gc.promoted_words))
      *. 8. /. 1048576.;
    gc_lost_events = st.lost;
  }
