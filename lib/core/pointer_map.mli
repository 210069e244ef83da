(** The pointer-to-dependent-threads mapping [M] of the paper.

    Each outstanding fetch is identified by a token. With [reuse] on,
    at most one token is outstanding per pointer: threads created for a
    pointer that is already being fetched are merged onto the existing token
    (the runtime's deduplication, which makes message aggregation and data
    reuse possible). With [reuse] off every registration gets a fresh token
    and triggers its own request.

    Both tables — token to waiters and, with [reuse], pointer to token —
    are {!Dpa_util.Int_tbl}s: a warm lookup allocates nothing, so a merged
    {!register} allocates only the cons cell that records its thread. *)

type 'k t

val create : unit -> 'k t

val register :
  'k t -> reuse:bool -> Dpa_heap.Gptr.t -> 'k -> [ `New_request of int | `Merged ]
(** Record a thread waiting on a pointer. [`New_request token] means the
    caller must issue a fetch carrying [token]; [`Merged] means one is
    already in flight. *)

val take_into : 'k t -> int -> 'k Ready_ring.t -> Dpa_heap.Gptr.t
(** Consume a token on reply arrival, pushing its waiting threads onto the
    ring in registration order ({!Ready_ring.push_rev}: no list is
    copied). Returns the token's pointer, or {!Dpa_heap.Gptr.nil} for an
    unknown token — which then pushes nothing. *)

val take : 'k t -> int -> Dpa_heap.Gptr.t * 'k list
(** Consume a token on reply arrival: returns the pointer and the waiting
    threads in registration order. Raises [Not_found] for unknown tokens. *)

val take_opt : 'k t -> int -> (Dpa_heap.Gptr.t * 'k list) option
(** Like {!take} but [None] for unknown tokens — the idempotent form the
    reliable message path uses: a token consumed by an earlier copy of a
    re-delivered bulk reply simply yields nothing to wake. *)

val find_ptr : 'k t -> int -> Dpa_heap.Gptr.t option
(** The pointer a still-outstanding token is fetching, if any; used by the
    runtime's timeout wheel to re-issue a request without consuming the
    token. *)

val fold_outstanding : 'k t -> (int -> Dpa_heap.Gptr.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every outstanding (token, pointer) pair, in unspecified
    order. The crash-recovery path uses this (sorted by token) to re-issue
    every fetch the crashed node still owes an answer to: the map's
    registrations are recoverable control state — they hold no partial
    execution — so the restart re-walks them through the normal alignment
    path. *)

val outstanding : 'k t -> int
(** Tokens currently in flight. *)

val waiters : 'k t -> int
(** Threads currently suspended. *)

val is_empty : 'k t -> bool
val clear : 'k t -> unit
