(** Adaptive quadtree over the unit square: cells split when they hold more
    than [leaf_cap] particles, so the tree refines where the particles are —
    the structure of the SPLASH-2 *adaptive* FMM, which {!Quadtree}'s
    complete tree approximates only for quasi-uniform inputs. *)

type t

type kind =
  | Leaf of int array  (** particle ids, insertion order *)
  | Internal of int array  (** 4 children indices, -1 where absent *)

val build : ?leaf_cap:int -> Particle2d.t array -> t
(** [leaf_cap] defaults to 8. Particle positions must lie in [\[0,1)²]. *)

val particles : t -> Particle2d.t array
val root : t -> int
val ncells : t -> int
val center : t -> int -> Complex.t
val width : t -> int -> float
val kind : t -> int -> kind
val nparticles : t -> int -> int
(** Particles in the subtree. *)

val max_occupancy : t -> int
(** Most particles in any leaf. *)

val depth : t -> int
val leaves_in_dfs_order : t -> int array
val iter_cells_postorder : t -> (int -> unit) -> unit

val well_separated : t -> leaf:int -> int -> bool
(** The multipole acceptance criterion of the dual walk: the Chebyshev gap
    between the two cells' squares is at least the larger side length.
    (For equal-size cells this is exactly the uniform FMM's
    non-adjacent-at-the-same-level condition.) *)
