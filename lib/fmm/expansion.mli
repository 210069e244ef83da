(** Multipole and local expansions for the 2-D logarithmic kernel
    (Greengard & Rokhlin). The potential of charges [q_i] at [z_i] is
    [Phi(z) = sum_i q_i log(z - z_i)]; physical potential is [Re Phi] and
    the field (gradient of the potential as a complex number) is
    [conj(Phi'(z))].

    A multipole expansion about [c] is the coefficient vector [a]:
    [Phi(z) = a_0 log(z-c) + sum_{k>=1} a_k / (z-c)^k].
    A local expansion about [c] is [Phi(z) = sum_{l>=0} b_l (z-c)^l].
    All vectors have [p+1] complex entries (order [p]).

    The kernels run on unboxed floats: {!m2l}, {!m2m} and {!l2l} allocate
    only their result, the [_into] forms nothing, and the evaluators only
    their returned pair. Results are bit for bit those of the textbook
    formulation on [Complex.t] (same operations in the same order). *)

type t = float array
(** [2(p+1)] floats, [re] and [im] interleaved: coefficient [k] is
    [(a.(2k), a.(2k+1))]. This is also the layout of an expansion in the
    global heap. *)

val order : t -> int
(** Raises [Invalid_argument] on an empty or odd-length array. *)

val zero : p:int -> t
val add_inplace : t -> t -> unit

val p2m : p:int -> center:Complex.t -> (float * Complex.t) list -> t
(** Multipole of point charges [(q, z)] about [center]. *)

val p2m_particles :
  p:int -> center:Complex.t -> Particle2d.t array -> int array -> t
(** {!p2m} of the particles [parts.(i)], [i] in [ids] in order. *)

val m2m : t -> from_center:Complex.t -> to_center:Complex.t -> t
(** Shift a multipole expansion to a new center (child to parent). *)

val m2m_into :
  dst:t -> t -> from_center:Complex.t -> to_center:Complex.t -> unit
(** {!m2m} into a caller-owned [dst] of the same order, which must not be
    the source. *)

val m2l : t -> from_center:Complex.t -> to_center:Complex.t -> t
(** Convert a multipole about a well-separated center into a local
    expansion. Orders above 64 are rejected (the binomial table ends at
    row 128). *)

val m2l_into :
  dst:t -> t -> from_center:Complex.t -> to_center:Complex.t -> unit
(** {!m2l} into a caller-owned [dst] of the same order, which must not be
    the source. *)

val l2l : t -> from_center:Complex.t -> to_center:Complex.t -> t
(** Shift a local expansion (parent to child). *)

val eval_multipole : t -> center:Complex.t -> Complex.t -> Complex.t * Complex.t
(** [(Phi(z), Phi'(z))] of a multipole expansion, for [z] outside the
    convergence disk. *)

val eval_local : t -> center:Complex.t -> Complex.t -> Complex.t * Complex.t
(** [(Phi(z), Phi'(z))] of a local expansion. *)

val direct_packed : float array -> n:int -> Complex.t -> Complex.t * Complex.t
(** Direct [(Phi, Phi')] at [z] of [n] sources packed as [(id, q, x, y)]
    quadruples from index 0 (the heap's particle layout, see
    {!Particle2d.pack}), skipping any source closer than 1e-12
    (self-interaction). *)

val direct : (float * Complex.t) list -> Complex.t -> Complex.t * Complex.t
(** {!direct_packed} over a list of [(q, z)] charges. *)

val binomial : int -> int -> float
(** Exact binomial coefficients (tabulated; arguments up to 128). *)
