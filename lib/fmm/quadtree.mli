(** Complete uniform quadtree over the unit square, with the standard FMM
    interaction lists.

    The SPLASH-2 FMM uses an adaptive quadtree; for quasi-uniform inputs a
    complete tree of the equivalent depth has the same interaction structure
    (every cell's V list, every leaf's U list) and the same communication
    pattern, which is what the reproduction measures (see DESIGN.md §2).

    Cells are named by a linear index: level [l] occupies indices
    [(4^l - 1)/3 ..] in row-major [iy * 2^l + ix] order. *)

type t

val build : ?target_occupancy:int -> ?depth:int -> Particle2d.t array -> t
(** Choose depth so the mean leaf occupancy is near [target_occupancy]
    (default 8) unless [depth] is given. Depth is at least 2. *)

val particles : t -> Particle2d.t array
val depth : t -> int
val ncells : t -> int
val nleaves : t -> int

val index : t -> level:int -> ix:int -> iy:int -> int
val level_of : t -> int -> int
val coords_of : t -> int -> int * int
(** [(ix, iy)] within the cell's level. *)

val center : t -> int -> Complex.t
val width : t -> int -> float
val parent : t -> int -> int
(** Parent cell index; the root has no parent (raises [Invalid_argument]). *)

val ancestor : t -> int -> level:int -> int
val is_leaf : t -> int -> bool
val leaf_of_particle : t -> int -> int
(** Leaf cell index containing a particle id. *)

val leaf_particles : t -> int -> int array
(** Particle ids in a leaf cell (empty for non-leaf indices of the leaf
    level is an error; cell must be a leaf). *)

val max_occupancy : t -> int
(** Most particles in any leaf. *)

val leaves_in_morton_order : t -> int array
(** Leaf cell indices ordered by the Morton (Z-order) curve — the
    locality-preserving order used for partitioning. *)

val v_list : t -> int -> int array
(** Well-separated children of the parent's neighbors (levels >= 2;
    empty at levels 0 and 1). *)

val u_list : t -> int -> int array
(** For a leaf: the adjacent leaves including the leaf itself. *)

val morton : ix:int -> iy:int -> int
(** Interleave bits (ix in even positions). *)
