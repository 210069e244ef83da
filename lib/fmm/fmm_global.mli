(** Distribution of the FMM data into the global heap.

    Leaves are block-partitioned across nodes in Morton order; a node owns
    the particles of its leaves. Every cell of level >= 2 contributes one
    multipole object (2(p+1) floats, re/im interleaved) owned by the owner
    of its first descendant leaf; every leaf additionally contributes a
    particle-list object ([n; then id,q,x,y per particle]) for near-field
    interactions. *)

open Dpa_heap

type t = {
  heaps : Heap.cluster;
  tree : Quadtree.t;
  p : int;
  mp_ptrs : Gptr.t array;  (** cell index -> multipole object; nil below level 2 *)
  leaf_ptrs : Gptr.t array;  (** cell index -> particle-list object (leaves) *)
  owner_leaves : int array array;  (** node -> owned leaf cell indices *)
}

val owner_of_leaf : Quadtree.t -> nnodes:int -> int -> int
val owner_of_cell : Quadtree.t -> nnodes:int -> int -> int
val distribute : p:int -> Quadtree.t -> nnodes:int -> t

val distribute_empty : p:int -> Quadtree.t -> nnodes:int -> t
(** Same layout and ownership as {!distribute}, but multipole objects are
    zero-filled: the upward pass ({!Fmm_upward}) builds them in parallel. *)

module View : sig
  val expansion : Heap.cluster -> Heap.view -> Expansion.t -> unit
  (** Copy a multipole object into a caller-owned expansion of its order. *)

  val nparticles : Heap.cluster -> Heap.view -> int

  val particles : Heap.cluster -> Heap.view -> float array -> unit
  (** Copy the leaf's particles, packed as for {!Expansion.direct_packed},
      into a caller-owned buffer of at least [4 * nparticles] floats. *)
end
