(** Flat circular buffer of ready threads: parallel (pointer,
    continuation) arrays, FIFO like the queue it replaces, but a push or
    pop writes pre-sized slots instead of allocating cells — the
    scheduler's per-access dispatch path stays allocation-free. *)

type 'k t

val create : dummy:'k -> 'k t
(** [dummy] fills vacated continuation slots so popped closures are not
    retained by the buffer. *)

val length : 'k t -> int
val is_empty : 'k t -> bool
val push : 'k t -> Dpa_heap.Gptr.t -> 'k -> unit

val push_rev : 'k t -> Dpa_heap.Gptr.t -> 'k list -> int -> unit
(** [push_rev t ptr ks n] pushes the [n] threads of [ks], all waiting on
    [ptr], in the reverse of list order: a list built by consing arrives
    oldest first, with no reversed copy. Raises [Invalid_argument] if [ks]
    does not have [n] elements. *)

val head_ptr : 'k t -> Dpa_heap.Gptr.t
(** Pointer of the oldest entry. Raises [Invalid_argument] when empty. *)

val head_k : 'k t -> 'k
val drop : 'k t -> unit
(** Discard the oldest entry (pop = [head_ptr]/[head_k] then [drop] —
    split so no tuple is built). *)
