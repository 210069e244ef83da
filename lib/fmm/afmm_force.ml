open Dpa_heap

module Make (A : Dpa.Access.S) = struct
  let items ~(params : Fmm_force.params) ~(global : Afmm_global.t) ~potential
      ~field node =
    let tree = global.Afmm_global.tree in
    let parts = Aquadtree.particles tree in
    let p = global.Afmm_global.p in
    let out = { Fmm_seq.potential; field } in
    (* Scratch for this node's items, filled and consumed inside one read
       callback (see {!Fmm_force}). *)
    let mp = Expansion.zero ~p and local = Expansion.zero ~p in
    let srcs = Array.make (4 * Aquadtree.max_occupancy tree) 0. in
    Array.map
      (fun leaf ->
        let mine =
          match Aquadtree.kind tree leaf with
          | Aquadtree.Leaf ids -> ids
          | Aquadtree.Internal _ -> assert false
        in
        let lc = Aquadtree.center tree leaf in
        let lw = Aquadtree.width tree leaf in
        let rec walk ctx (view : Heap.view) =
          let heaps = A.heaps ctx in
          A.charge ctx params.Fmm_force.visit_ns;
          if
            Afmm_global.View.well_separated ~leaf_center:lc ~leaf_width:lw heaps
              view
          then begin
            A.charge ctx
              (Fmm_force.m2l_cost_ns params
              + (Array.length mine * Fmm_force.eval_cost_ns params));
            Afmm_global.View.expansion heaps view mp;
            Expansion.m2l_into ~dst:local mp
              ~from_center:(Afmm_global.View.center heaps view) ~to_center:lc;
            Array.iter
              (fun pid ->
                Fmm_seq.add out pid
                  (Expansion.eval_local local ~center:lc
                     parts.(pid).Particle2d.z))
              mine
          end
          else if Afmm_global.View.is_leaf heaps view then begin
            let nsrc = Afmm_global.View.nparticles ~p heaps view in
            A.charge ctx (Array.length mine * nsrc * params.Fmm_force.p2p_ns);
            Afmm_global.View.particles ~p heaps view srcs;
            Array.iter
              (fun pid ->
                Fmm_seq.add out pid
                  (Expansion.direct_packed srcs ~n:nsrc
                     parts.(pid).Particle2d.z))
              mine
          end
          else
            Array.iter
              (fun child -> if not (Gptr.is_nil child) then A.read ctx child walk)
              (Afmm_global.View.children heaps view)
        in
        fun (ctx : A.ctx) ->
          if Array.length mine > 0 then
            A.read ctx global.Afmm_global.root walk)
      global.Afmm_global.owner_leaves.(node)
end

module F_dpa = Make (Dpa.Runtime)
module F_caching = Make (Dpa_baselines.Caching)

let force_phase ~engine ~global ~params variant =
  let n = Array.length (Aquadtree.particles global.Afmm_global.tree) in
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  let heaps = global.Afmm_global.heaps in
  let breakdown, stats =
    match variant with
    | Dpa_baselines.Variant.Dpa config ->
      let b, s =
        Dpa.Runtime.run_phase_labeled ~label:"afmm-force" ~engine ~heaps
          ~config
          ~items:(F_dpa.items ~params ~global ~potential ~field)
      in
      (b, Some s)
    | Dpa_baselines.Variant.Prefetch { strip_size } ->
      let b, s =
        Dpa.Runtime.run_phase_labeled ~label:"afmm-force-prefetch" ~engine
          ~heaps
          ~config:(Dpa.Config.pipeline_only ~strip_size ())
          ~items:(F_dpa.items ~params ~global ~potential ~field)
      in
      (b, Some s)
    | Dpa_baselines.Variant.Caching { capacity } ->
      let b, _ =
        Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity
          ~items:(F_caching.items ~params ~global ~potential ~field)
          ()
      in
      (b, None)
    | Dpa_baselines.Variant.Blocking ->
      let b, _ =
        Dpa_baselines.Blocking.run_phase ~engine ~heaps
          ~items:(F_caching.items ~params ~global ~potential ~field)
      in
      (b, None)
  in
  (breakdown, { Fmm_seq.potential; field }, stats)

let run ?machine ?(params = Fmm_force.default_params) ?(leaf_cap = 8)
    ?(seed = 23) ?(distribution = `Uniform) ~nnodes ~nparticles variant =
  let machine =
    match machine with Some m -> m | None -> Dpa_sim.Machine.t3d ~nodes:nnodes
  in
  let parts =
    match distribution with
    | `Uniform -> Particle2d.uniform ~n:nparticles ~seed
    | `Clustered clusters -> Particle2d.clustered ~n:nparticles ~seed ~clusters
  in
  let tree = Aquadtree.build ~leaf_cap parts in
  let global = Afmm_global.distribute ~p:params.Fmm_force.p tree ~nnodes in
  let engine = Dpa_sim.Engine.create machine in
  let breakdown, result, _ = force_phase ~engine ~global ~params variant in
  (breakdown, result, tree)
