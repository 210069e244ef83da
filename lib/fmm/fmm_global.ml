open Dpa_heap

type t = {
  heaps : Heap.cluster;
  tree : Quadtree.t;
  p : int;
  mp_ptrs : Gptr.t array;
  leaf_ptrs : Gptr.t array;
  owner_leaves : int array array;
}

let owner_of_leaf tree ~nnodes leaf =
  let d = Quadtree.depth tree in
  let ix, iy = Quadtree.coords_of tree leaf in
  let rank = Quadtree.morton ~ix ~iy in
  Distribution.block_owner ~nitems:(1 lsl (2 * d)) ~nnodes rank

let owner_of_cell tree ~nnodes ci =
  let d = Quadtree.depth tree in
  let l = Quadtree.level_of tree ci in
  let ix, iy = Quadtree.coords_of tree ci in
  let rank = Quadtree.morton ~ix ~iy lsl (2 * (d - l)) in
  Distribution.block_owner ~nitems:(1 lsl (2 * d)) ~nnodes rank

let distribute_with ~p ~mp tree ~nnodes =
  let parts = Quadtree.particles tree in
  let heaps = Heap.cluster ~nnodes in
  let ncells = Quadtree.ncells tree in
  let mp_ptrs = Array.make ncells Gptr.nil in
  let leaf_ptrs = Array.make ncells Gptr.nil in
  for ci = 0 to ncells - 1 do
    if Quadtree.level_of tree ci >= 2 then begin
      let owner = owner_of_cell tree ~nnodes ci in
      mp_ptrs.(ci) <-
        Heap.alloc heaps.(owner) ~floats:mp.(ci) ~ptrs:[||];
      if Quadtree.is_leaf tree ci then begin
        let ids = Quadtree.leaf_particles tree ci in
        let floats = Array.make (1 + (4 * Array.length ids)) 0. in
        floats.(0) <- float_of_int (Array.length ids);
        Particle2d.pack parts ids floats ~pos:1;
        leaf_ptrs.(ci) <- Heap.alloc heaps.(owner) ~floats ~ptrs:[||]
      end
    end
  done;
  let owner_leaves = Array.make nnodes [] in
  let morton_leaves = Quadtree.leaves_in_morton_order tree in
  Array.iter
    (fun leaf ->
      let o = owner_of_leaf tree ~nnodes leaf in
      owner_leaves.(o) <- leaf :: owner_leaves.(o))
    morton_leaves;
  {
    heaps;
    tree;
    p;
    mp_ptrs;
    leaf_ptrs;
    owner_leaves = Array.map (fun l -> Array.of_list (List.rev l)) owner_leaves;
  }

let distribute ~p tree ~nnodes =
  distribute_with ~p ~mp:(Fmm_seq.upward ~p tree) tree ~nnodes

(* One zero expansion serves every cell: [Heap.alloc] copies it. *)
let distribute_empty ~p tree ~nnodes =
  let mp = Array.make (Quadtree.ncells tree) (Expansion.zero ~p) in
  distribute_with ~p ~mp tree ~nnodes

module View = struct
  let expansion h (v : Heap.view) dst =
    Heap.view_floats_into h v ~pos:0 ~len:(Array.length dst) dst

  let nparticles h (v : Heap.view) = int_of_float (Heap.view_float h v 0)

  let particles h (v : Heap.view) dst =
    Heap.view_floats_into h v ~pos:1 ~len:(4 * nparticles h v) dst
end
