type params = {
  p : int;
  m2l_term2_ns : int;
  eval_term_ns : int;
  p2p_ns : int;
  visit_ns : int;
}

let default_params =
  { p = 13; m2l_term2_ns = 26; eval_term_ns = 45; p2p_ns = 170; visit_ns = 150 }

let m2l_cost_ns t = t.m2l_term2_ns * (t.p + 1) * (t.p + 1)
let eval_cost_ns t = t.eval_term_ns * (t.p + 1)

module Make (A : Dpa.Access.S) = struct
  let items ~params ~global ~potential ~field node =
    let tree = global.Fmm_global.tree in
    let parts = Quadtree.particles tree in
    let depth = Quadtree.depth tree in
    let out = { Fmm_seq.potential; field } in
    (* Scratch for this node's items. A read callback fills and consumes it
       without calling back into the runtime, so items never share it
       mid-use. *)
    let mp = Expansion.zero ~p:global.Fmm_global.p in
    let local = Expansion.zero ~p:global.Fmm_global.p in
    let srcs = Array.make (4 * Quadtree.max_occupancy tree) 0. in
    Array.map
      (fun leaf ->
        let mine = Quadtree.leaf_particles tree leaf in
        let lc = Quadtree.center tree leaf in
        fun (ctx : A.ctx) ->
          if Array.length mine > 0 then begin
            for level = 2 to depth do
              let a = Quadtree.ancestor tree leaf ~level in
              Array.iter
                (fun v ->
                  let vc = Quadtree.center tree v in
                  A.read ctx global.Fmm_global.mp_ptrs.(v) (fun ctx view ->
                      A.charge ctx
                        (params.visit_ns + m2l_cost_ns params
                        + (Array.length mine * eval_cost_ns params));
                      Fmm_global.View.expansion (A.heaps ctx) view mp;
                      Expansion.m2l_into ~dst:local mp ~from_center:vc
                        ~to_center:lc;
                      Array.iter
                        (fun pid ->
                          Fmm_seq.add out pid
                            (Expansion.eval_local local ~center:lc
                               parts.(pid).Particle2d.z))
                        mine))
                (Quadtree.v_list tree a)
            done;
            Array.iter
              (fun u ->
                A.read ctx global.Fmm_global.leaf_ptrs.(u) (fun ctx view ->
                    let heaps = A.heaps ctx in
                    let nsrc = Fmm_global.View.nparticles heaps view in
                    A.charge ctx
                      (params.visit_ns
                      + (Array.length mine * nsrc * params.p2p_ns));
                    Fmm_global.View.particles heaps view srcs;
                    Array.iter
                      (fun pid ->
                        Fmm_seq.add out pid
                          (Expansion.direct_packed srcs ~n:nsrc
                             parts.(pid).Particle2d.z))
                      mine))
              (Quadtree.u_list tree leaf)
          end)
      global.Fmm_global.owner_leaves.(node)
end
