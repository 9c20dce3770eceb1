(** Coalescing of logged stores into logical writes.

    The replayer does not treat every logged store as its own unit: the
    paper's key state-space reduction (section 3.2) is that the stores
    belonging to one file-system-level write — e.g. the per-page
    non-temporal copies of a 1 KB write — can be fused and replayed
    all-or-nothing, because intermediate states of file data are unlikely to
    expose bugs that the all-or-nothing states do not.

    A {!t} is one unit of the in-flight vector: one or more logged stores
    replayed together. *)

type t = {
  seq : int;  (** Sequence number of the first fused store. *)
  parts : (int * string) list;  (** (address, bytes), in program order. *)
  kind : Persist.Trace.write_kind;
  func : string;
  syscall : int option;  (** Index of the issuing syscall, if any. *)
}

val bytes : t -> int
val span : t -> int * int
(** Lowest address and one-past-highest address covered. *)

val add :
  coalesce:bool -> data_threshold:int -> t list -> Persist.Trace.store -> syscall:int option -> t list
(** Fold one logged store into the in-flight vector (kept newest-first).
    With [coalesce] true, the store is fused into the newest unit when
    either (a) it is address-contiguous with it, same kind and function, and
    from the same syscall, or (b) both are non-temporal stores of at least
    [data_threshold] bytes from the same syscall and function — the paper's
    "large buffers are file data" heuristic. *)

val describe : t -> string
