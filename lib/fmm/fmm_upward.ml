open Dpa_sim
open Dpa_heap

type result = {
  breakdown : Breakdown.t;
  dpa_stats : Dpa.Dpa_stats.t option;
}

(* The upward pass is a reduction: parent coefficients are sums of M2M
   contributions arriving through the update path, whose application order
   depends on message interleaving (and, under a fault plan, on drops,
   retransmits and crash-restarts). To make the result bit-identical
   regardless of order, every contribution to coefficient [k] of a parent
   at tree level [L] is snapped onto the fixed grid 2^-(38 + k(L-1))
   before it enters the update path (see {!Dpa_util.Det}). The grid tracks
   the coefficient's natural scale — a coefficient of order [k] has
   magnitude ~ total-charge * (child radius)^k ~ 2^-k(L+1), and downstream
   evaluation multiplies it by w^-k at well-separated distances
   |w| >= 2^-(L-1) — so each value sits far inside the grid's 2^53
   exactness bound (sums of grid multiples are then exact, hence
   order-independent) while the snap perturbs any evaluated potential by
   at most ~2^-39 per term, three orders below the 1e-8 tolerance the
   correctness tests compare against. P2M needs no snapping: a leaf's
   multipole is a single-owner direct write and is already deterministic. *)
let det_bits_base = 38

(* Work items against the generic access interface, so the pass runs under
   every runtime. *)
module Items (A : Dpa.Access.S) = struct
  let p2m_items ~(params : Fmm_force.params) ~(global : Fmm_global.t) node =
    let tree = global.Fmm_global.tree in
    let parts = Quadtree.particles tree in
    let p = global.Fmm_global.p in
    Array.map
      (fun leaf ->
        let ids = Quadtree.leaf_particles tree leaf in
        let center = Quadtree.center tree leaf in
        let ptr = global.Fmm_global.mp_ptrs.(leaf) in
        fun (ctx : A.ctx) ->
          A.charge ctx
            (Array.length ids * Fmm_force.eval_cost_ns params);
          (* Owned here: written in place ([Heap.get] is a copy-out). *)
          Heap.set_floats global.Fmm_global.heaps.(Gptr.node ptr) ptr ~pos:0
            (Expansion.p2m_particles ~p ~center parts ids))
      global.Fmm_global.owner_leaves.(node)

  let m2m_items ~(params : Fmm_force.params) ~(global : Fmm_global.t)
      ~owned_cells node =
    let tree = global.Fmm_global.tree in
    let mine = Expansion.zero ~p:global.Fmm_global.p in
    let shifted = Expansion.zero ~p:global.Fmm_global.p in
    Array.map
      (fun ci ->
        let parent = Quadtree.parent tree ci in
        let parent_ptr = global.Fmm_global.mp_ptrs.(parent) in
        let my_ptr = global.Fmm_global.mp_ptrs.(ci) in
        let from_center = Quadtree.center tree ci in
        let to_center = Quadtree.center tree parent in
        let parent_level = Quadtree.level_of tree parent in
        fun (ctx : A.ctx) ->
          (* Our own multipole is local: the owner of a cell owns its first
             descendant leaf, which is also this item's owner. *)
          A.charge ctx (Fmm_force.m2l_cost_ns params / 2);
          Fmm_global.View.expansion global.Fmm_global.heaps my_ptr mine;
          Expansion.m2m_into ~dst:shifted mine ~from_center ~to_center;
          for j = 0 to Array.length shifted - 1 do
            let grid =
              Dpa_util.Det.grid
                ~bits:(det_bits_base + (j / 2 * (parent_level - 1)))
            in
            let v = Dpa_util.Det.quantize ~grid shifted.(j) in
            if v <> 0. then A.accumulate ctx parent_ptr ~idx:j v
          done)
      owned_cells.(node)
end

module I_dpa = Items (Dpa.Runtime)
module I_caching = Items (Dpa_baselines.Caching)

let cells_by_owner tree ~nnodes ~level =
  let owned = Array.make nnodes [] in
  let side = 1 lsl level in
  (* Reverse iteration so the accumulated lists come out in row-major
     order. *)
  for iy = side - 1 downto 0 do
    for ix = side - 1 downto 0 do
      let ci = Quadtree.index tree ~level ~ix ~iy in
      let o = Fmm_global.owner_of_cell tree ~nnodes ci in
      owned.(o) <- ci :: owned.(o)
    done
  done;
  Array.map Array.of_list owned

let run ?route ~engine ~global ~params variant =
  let tree = global.Fmm_global.tree in
  let nnodes = Array.length global.Fmm_global.heaps in
  let depth = Quadtree.depth tree in
  let total = ref None in
  let stats = ref [] in
  let add_phase (b, s) =
    (total := match !total with None -> Some b | Some t -> Some (Breakdown.add t b));
    match s with Some s -> stats := s :: !stats | None -> ()
  in
  let run_items items_dpa items_caching =
    match variant with
    | Dpa_baselines.Variant.Dpa config ->
      (* The M2M phases are fan-in reductions (many children, one parent
         owner); [route] overrides the config's routing for them. Results
         are bit-identical either way — the per-coefficient grids make the
         merge order irrelevant. *)
      let config =
        match route with
        | None -> config
        | Some r -> Dpa.Config.{ config with route = r }
      in
      let b, s =
        Dpa.Runtime.run_phase_labeled ~label:"fmm-upward" ~engine
          ~heaps:global.Fmm_global.heaps ~config ~items:items_dpa
      in
      add_phase (b, Some s)
    | Dpa_baselines.Variant.Prefetch { strip_size } ->
      let b, s =
        Dpa.Runtime.run_phase_labeled ~label:"fmm-upward-prefetch" ~engine
          ~heaps:global.Fmm_global.heaps
          ~config:(Dpa.Config.pipeline_only ~strip_size ())
          ~items:items_dpa
      in
      add_phase (b, Some s)
    | Dpa_baselines.Variant.Caching { capacity } ->
      let b, _ =
        Dpa_baselines.Caching.run_phase ~engine ~heaps:global.Fmm_global.heaps
          ~capacity ~items:items_caching ()
      in
      add_phase (b, None)
    | Dpa_baselines.Variant.Blocking ->
      let b, _ =
        Dpa_baselines.Blocking.run_phase ~engine ~heaps:global.Fmm_global.heaps
          ~items:items_caching
      in
      add_phase (b, None)
  in
  (* P2M at the leaves. *)
  run_items
    (I_dpa.p2m_items ~params ~global)
    (I_caching.p2m_items ~params ~global);
  (* M2M, level by level (each phase is a barrier: parents are complete
     before they are shifted further up). *)
  for level = depth downto 3 do
    let owned_cells = cells_by_owner tree ~nnodes ~level in
    run_items
      (I_dpa.m2m_items ~params ~global ~owned_cells)
      (I_caching.m2m_items ~params ~global ~owned_cells)
  done;
  {
    breakdown = Option.get !total;
    dpa_stats =
      (match !stats with [] -> None | l -> Some (Dpa.Dpa_stats.merge l));
  }
