(* Outside-in span accounting. Spans are opened and closed only by the
   benchmark's own code: around its calls to [Harness.record] and
   [Harness.replay_recorded], and inside the wrappers [driver] installs on a
   [Vfs.Driver.t] and on every [Vfs.Handle.t] its closures return. Nothing
   in the program under test is changed.

   Each domain owns one accumulator (Domain.DLS), so worker domains of a
   pooled run never contend; [collect] sums every accumulator that saw a
   span since the last [reset]. A span's time is added to its layer and to
   the child time of the enclosing span on the same domain, so a layer's
   self time is [time - child]. *)

type layer =
  | Record
  | Replay
  | Exec
  | Mkfs
  | Fs_ops
  | Mount
  | Capture
  | Probe
  | Side_oracle
  | Side_create
  | Side_snapshot

let n_layers = 11

let index = function
  | Record -> 0
  | Replay -> 1
  | Exec -> 2
  | Mkfs -> 3
  | Fs_ops -> 4
  | Mount -> 5
  | Capture -> 6
  | Probe -> 7
  | Side_oracle -> 8
  | Side_create -> 9
  | Side_snapshot -> 10

let all_layers =
  [ Record; Replay; Exec; Mkfs; Fs_ops; Mount; Capture; Probe; Side_oracle; Side_create; Side_snapshot ]

(* Side measurements re-run a call the harness makes internally; they are
   timed on their own and excluded from the traced wall. *)
let is_side = function Side_oracle | Side_create | Side_snapshot -> true | _ -> false

type acc = {
  time : float array;
  child : float array;
  calls : int array;
  alloc : float array;  (* words allocated inside the span, inclusive *)
  mutable mount_errors : int;
  mutable stack : (int * float) list;  (* open spans: layer index, start *)
  mutable exec_words : float;  (* words allocated when the open exec span began *)
  mutable registered : bool;
}

let fresh () =
  {
    time = Array.make n_layers 0.;
    child = Array.make n_layers 0.;
    calls = Array.make n_layers 0;
    alloc = Array.make n_layers 0.;
    mount_errors = 0;
    stack = [];
    exec_words = 0.;
    registered = false;
  }

let registry_lock = Mutex.create ()
let registry : acc list ref = ref []

(* Polled from every span boundary; [Gc_layer] installs its ring reader
   here so the runtime-events ring is drained while the workload runs. *)
let on_boundary : (unit -> unit) ref = ref (fun () -> ())

let now = Unix.gettimeofday

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let finish a i t0 =
  let d = now () -. t0 in
  a.time.(i) <- a.time.(i) +. d;
  a.calls.(i) <- a.calls.(i) + 1;
  (match a.stack with
  | _ :: ((p, _) :: _ as rest) ->
    a.child.(p) <- a.child.(p) +. d;
    a.stack <- rest
  | [ _ ] -> a.stack <- []
  | [] -> ());
  !on_boundary ()

(* An exec span, when open, is the bottom of its domain's stack. *)
let close_exec a =
  let i = index Exec in
  match a.stack with
  | [ (j, t0) ] when j = i ->
    finish a i t0;
    a.alloc.(i) <- a.alloc.(i) +. (words () -. a.exec_words)
  | _ -> ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      (* A pooled run's worker domain ends with an exec span still open;
         close it as the domain exits, before [Domain.join] returns. *)
      if not (Domain.is_main_domain ()) then Domain.at_exit (fun () -> close_exec a);
      a)

let get () =
  let a = Domain.DLS.get key in
  if not a.registered then begin
    Mutex.lock registry_lock;
    a.registered <- true;
    registry := a :: !registry;
    Mutex.unlock registry_lock
  end;
  a

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun a ->
      Array.fill a.time 0 n_layers 0.;
      Array.fill a.child 0 n_layers 0.;
      Array.fill a.calls 0 n_layers 0;
      Array.fill a.alloc 0 n_layers 0.;
      a.mount_errors <- 0;
      a.stack <- [];
      a.registered <- false)
    !registry;
  registry := [];
  Mutex.unlock registry_lock

(* Time [f ()] as one span of [layer], nested under whatever span this
   domain has open. [alloc] also records allocated words (two
   [Gc.counters] calls), which per-operation spans skip. *)
let span ?(alloc = false) layer f =
  let a = get () in
  let i = index layer in
  let w0 = if alloc then words () else 0. in
  let t0 = now () in
  a.stack <- (i, t0) :: a.stack;
  let stop () =
    finish a i t0;
    if alloc then a.alloc.(i) <- a.alloc.(i) +. (words () -. w0)
  in
  match f () with
  | v ->
    stop ();
    v
  | exception e ->
    stop ();
    raise e

(* Exec spans cover a pooled run's time between consecutive [mkfs] calls on
   one domain: every harness execution formats exactly one device, so the
   interval is one workload's record + replay (plus the runner's cheap
   per-slot work). They are the root of each worker domain's spans. *)
let exec_boundary () =
  let a = get () in
  close_exec a;
  a.exec_words <- words ();
  a.stack <- [ (index Exec, now ()) ]

let end_exec () = close_exec (get ())

let note_mount_error () =
  let a = get () in
  a.mount_errors <- a.mount_errors + 1

type totals = {
  t_time : float array;
  t_self : float array;
  t_calls : int array;
  t_alloc : float array;
  t_mount_errors : int;
}

let collect () =
  Mutex.lock registry_lock;
  let t =
    {
      t_time = Array.make n_layers 0.;
      t_self = Array.make n_layers 0.;
      t_calls = Array.make n_layers 0;
      t_alloc = Array.make n_layers 0.;
      t_mount_errors = 0;
    }
  in
  let errors = ref 0 in
  List.iter
    (fun a ->
      for i = 0 to n_layers - 1 do
        t.t_time.(i) <- t.t_time.(i) +. a.time.(i);
        t.t_self.(i) <- t.t_self.(i) +. (a.time.(i) -. a.child.(i));
        t.t_calls.(i) <- t.t_calls.(i) + a.calls.(i);
        t.t_alloc.(i) <- t.t_alloc.(i) +. a.alloc.(i)
      done;
      errors := !errors + a.mount_errors)
    !registry;
  Mutex.unlock registry_lock;
  { t with t_mount_errors = !errors }

let layer_name = function
  | Record -> "record"
  | Replay -> "replay"
  | Exec -> "exec"
  | Mkfs -> "mkfs"
  | Fs_ops -> "fs_ops"
  | Mount -> "mount"
  | Capture -> "capture"
  | Probe -> "probe"
  | Side_oracle -> "oracle (side)"
  | Side_create -> "image create (side)"
  | Side_snapshot -> "image snapshot (side)"

let time t l = t.t_time.(index l)
let self t l = t.t_self.(index l)
let calls t l = t.t_calls.(index l)
let alloc t l = t.t_alloc.(index l)

(* The totals as a table, one line per layer that saw a span. *)
let table t =
  List.filter_map
    (fun l ->
      let i = index l in
      if t.t_calls.(i) = 0 then None
      else
        Some
          (Printf.sprintf "%-22s %10.4fs total %10.4fs self %10d calls %12.3f Mwords"
             (layer_name l) t.t_time.(i) t.t_self.(i) t.t_calls.(i) (t.t_alloc.(i) /. 1e6)))
    all_layers

(* Sum of self times of every non-side span: the traced time that some
   layer accounts for. *)
let covered t =
  List.fold_left (fun s l -> if is_side l then s else s +. self t l) 0. all_layers

let side_time t =
  List.fold_left (fun s l -> if is_side l then s +. time t l else s) 0. all_layers

(* Handle wrapper: every closure becomes a [layer] span, where [read] is the
   layer of read-side calls and [write] that of mutating ones. A handle
   returned by [mkfs] is driven by the recorded workload, so all its calls
   are [Fs_ops]; a handle returned by [mount] is read by [Walker.capture]
   and then mutated by [Harness.usability_probe], which is how the two
   post-mount layers are told apart without touching the harness. *)
let handle ~read ~write (h : Vfs.Handle.t) : Vfs.Handle.t =
  let r f = span read f and w f = span write f in
  {
    h with
    creat = (fun ~path -> w (fun () -> h.creat ~path));
    open_ = (fun ~path ~flags -> w (fun () -> h.open_ ~path ~flags));
    close = (fun ~fd -> w (fun () -> h.close ~fd));
    mkdir = (fun ~path -> w (fun () -> h.mkdir ~path));
    rmdir = (fun ~path -> w (fun () -> h.rmdir ~path));
    link = (fun ~src ~dst -> w (fun () -> h.link ~src ~dst));
    unlink = (fun ~path -> w (fun () -> h.unlink ~path));
    remove = (fun ~path -> w (fun () -> h.remove ~path));
    rename = (fun ~src ~dst -> w (fun () -> h.rename ~src ~dst));
    truncate = (fun ~path ~size -> w (fun () -> h.truncate ~path ~size));
    write = (fun ~fd ~data -> w (fun () -> h.write ~fd ~data));
    pwrite = (fun ~fd ~off ~data -> w (fun () -> h.pwrite ~fd ~off ~data));
    read = (fun ~fd ~len -> r (fun () -> h.read ~fd ~len));
    pread = (fun ~fd ~off ~len -> r (fun () -> h.pread ~fd ~off ~len));
    lseek = (fun ~fd ~off ~whence -> r (fun () -> h.lseek ~fd ~off ~whence));
    fallocate =
      (fun ~fd ~off ~len ~keep_size -> w (fun () -> h.fallocate ~fd ~off ~len ~keep_size));
    fsync = (fun ~fd -> w (fun () -> h.fsync ~fd));
    fdatasync = (fun ~fd -> w (fun () -> h.fdatasync ~fd));
    sync = (fun () -> w (fun () -> h.sync ()));
    stat = (fun ~path -> r (fun () -> h.stat ~path));
    fstat = (fun ~fd -> r (fun () -> h.fstat ~fd));
    readdir = (fun ~path -> r (fun () -> h.readdir ~path));
    read_file = (fun ~path -> r (fun () -> h.read_file ~path));
    setxattr = (fun ~path ~name ~value -> w (fun () -> h.setxattr ~path ~name ~value));
    getxattr = (fun ~path ~name -> r (fun () -> h.getxattr ~path ~name));
    listxattr = (fun ~path -> r (fun () -> h.listxattr ~path));
    removexattr = (fun ~path ~name -> w (fun () -> h.removexattr ~path ~name));
  }

(* The traced driver. [exec_spans] opens an exec span at every [mkfs], for
   runners (campaigns, the fuzzer) whose per-workload harness calls the
   benchmark cannot wrap itself. *)
let driver ?(exec_spans = false) (d : Vfs.Driver.t) : Vfs.Driver.t =
  {
    d with
    mkfs =
      (fun pm ->
        if exec_spans then exec_boundary ();
        let h = span ~alloc:true Mkfs (fun () -> d.mkfs pm) in
        handle ~read:Fs_ops ~write:Fs_ops h);
    mount =
      (fun pm ->
        match span ~alloc:true Mount (fun () -> d.mount pm) with
        | Ok h -> Ok (handle ~read:Capture ~write:Probe h)
        | Error _ as e ->
          note_mount_error ();
          e
        | exception e ->
          note_mount_error ();
          raise e);
  }
