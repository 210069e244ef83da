open Dpa_sim

type phase_result = {
  breakdown : Breakdown.t;
  result : Fmm_seq.result;
  dpa_stats : Dpa.Dpa_stats.t option;
  cache_stats : Dpa_baselines.Caching.stats option;
}

module Force_dpa = Fmm_force.Make (Dpa.Runtime)
module Force_caching = Fmm_force.Make (Dpa_baselines.Caching)

let force_phase ~engine ~global ~params variant =
  let n = Array.length (Quadtree.particles global.Fmm_global.tree) in
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  let heaps = global.Fmm_global.heaps in
  let breakdown, dpa_stats, cache_stats =
    match variant with
    | Dpa_baselines.Variant.Dpa config ->
      let items = Force_dpa.items ~params ~global ~potential ~field in
      let b, s =
        Dpa.Runtime.run_phase_labeled ~label:"fmm-force" ~engine ~heaps ~config
          ~items
      in
      (b, Some s, None)
    | Dpa_baselines.Variant.Prefetch { strip_size } ->
      let items = Force_dpa.items ~params ~global ~potential ~field in
      let b, s =
        Dpa.Runtime.run_phase_labeled ~label:"fmm-force-prefetch" ~engine
          ~heaps
          ~config:(Dpa.Config.pipeline_only ~strip_size ())
          ~items
      in
      (b, Some s, None)
    | Dpa_baselines.Variant.Caching { capacity } ->
      let items = Force_caching.items ~params ~global ~potential ~field in
      let b, s =
        Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity ~items ()
      in
      (b, None, Some s)
    | Dpa_baselines.Variant.Blocking ->
      let items = Force_caching.items ~params ~global ~potential ~field in
      let b, s = Dpa_baselines.Blocking.run_phase ~engine ~heaps ~items in
      (b, None, Some s)
  in
  { breakdown; result = { Fmm_seq.potential; field }; dpa_stats; cache_stats }

type run_result = {
  phase : phase_result;
  seq_counts : Fmm_seq.counts;
  tree : Quadtree.t;
}

let structural_counts tree =
  let depth = Quadtree.depth tree in
  let m2l = ref 0 and p2p = ref 0 and evals = ref 0 in
  Array.iter
    (fun leaf ->
      let mine = Array.length (Quadtree.leaf_particles tree leaf) in
      if mine > 0 then begin
        for level = 2 to depth do
          let a = Quadtree.ancestor tree leaf ~level in
          let nv = Array.length (Quadtree.v_list tree a) in
          m2l := !m2l + nv;
          evals := !evals + (nv * mine)
        done;
        Array.iter
          (fun u ->
            let nsrc = Array.length (Quadtree.leaf_particles tree u) in
            p2p := !p2p + (mine * nsrc))
          (Quadtree.u_list tree leaf)
      end)
    (Quadtree.leaves_in_morton_order tree);
  { Fmm_seq.m2l = !m2l; p2p = !p2p; evals = !evals }

let sequential_ns ~(params : Fmm_force.params) (c : Fmm_seq.counts) =
  (c.Fmm_seq.m2l * (Fmm_force.m2l_cost_ns params + params.Fmm_force.visit_ns))
  + (c.Fmm_seq.evals * Fmm_force.eval_cost_ns params)
  + (c.Fmm_seq.p2p * params.Fmm_force.p2p_ns)

let run ?machine ?(params = Fmm_force.default_params) ?(target_occupancy = 8)
    ?(seed = 23) ?(distribution = `Uniform) ~nnodes ~nparticles variant =
  let machine =
    match machine with Some m -> m | None -> Machine.t3d ~nodes:nnodes
  in
  let parts =
    match distribution with
    | `Uniform -> Particle2d.uniform ~n:nparticles ~seed
    | `Clustered clusters -> Particle2d.clustered ~n:nparticles ~seed ~clusters
  in
  let tree = Quadtree.build ~target_occupancy parts in
  let global = Fmm_global.distribute ~p:params.Fmm_force.p tree ~nnodes in
  let engine = Engine.create machine in
  let phase = force_phase ~engine ~global ~params variant in
  { phase; seq_counts = structural_counts tree; tree }
