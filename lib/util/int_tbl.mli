(** Int-keyed hash table with open addressing: the table the runtime's
    read path keeps per pointer or per token.

    Keys are non-negative ints — a global pointer and a request token both
    are one. The table is two flat arrays probed linearly at a load of at
    most 1/2, with backward-shift deletion, so a warm lookup, insert or
    remove allocates nothing; only growth does. A table starts at 8 slots,
    doubles on demand and never shrinks: {!clear} keeps the capacity, so a
    table cleared at every strip boundary does not grow back each strip.

    A missing key reads as the [absent] value given at creation (no
    option is allocated); keep [absent] distinct from every value you
    store — physically, for records — when presence matters. *)

type 'a t

val create : absent:'a -> 'a t

val length : 'a t -> int
(** Bindings in the table. *)

val capacity : 'a t -> int
(** Slots allocated: a power of two, at least twice {!length}. *)

val find : 'a t -> int -> 'a
(** The key's binding, or [absent]. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any binding it has. Raises [Invalid_argument]
    for a negative key. *)

val take : 'a t -> int -> 'a
(** Remove the key and return its binding, or [absent] if it had none. *)

val remove : 'a t -> int -> unit

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over the bindings in slot order, which depends on the keys and
    the table's history: callers that need a stable order sort. [f] must
    not modify the table. *)

val clear : 'a t -> unit
(** Remove every binding, keeping the capacity. *)
