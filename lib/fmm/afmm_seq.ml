type counts = { m2l : int; p2p : int; visits : int }

let upward ~p tree =
  let parts = Aquadtree.particles tree in
  let mp = Array.make (Aquadtree.ncells tree) [||] in
  Aquadtree.iter_cells_postorder tree (fun ci ->
      match Aquadtree.kind tree ci with
      | Aquadtree.Leaf ids ->
        mp.(ci) <-
          Expansion.p2m_particles ~p ~center:(Aquadtree.center tree ci) parts
            ids
      | Aquadtree.Internal children ->
        let acc = Expansion.zero ~p in
        Array.iter
          (fun ch ->
            if ch >= 0 then
              Expansion.add_inplace acc
                (Expansion.m2m mp.(ch)
                   ~from_center:(Aquadtree.center tree ch)
                   ~to_center:(Aquadtree.center tree ci)))
          children;
        mp.(ci) <- acc);
  mp

let compute ~p tree =
  let parts = Aquadtree.particles tree in
  let n = Array.length parts in
  let mp = upward ~p tree in
  let out =
    { Fmm_seq.potential = Array.make n 0.; field = Array.make n Complex.zero }
  in
  let m2l = ref 0 and p2p = ref 0 and visits = ref 0 in
  let local = Expansion.zero ~p in
  let srcs = Array.make (4 * Aquadtree.max_occupancy tree) 0. in
  Array.iter
    (fun leaf ->
      match Aquadtree.kind tree leaf with
      | Aquadtree.Internal _ -> assert false
      | Aquadtree.Leaf mine when Array.length mine > 0 ->
        let lc = Aquadtree.center tree leaf in
        let rec walk ci =
          incr visits;
          if Aquadtree.well_separated tree ~leaf ci then begin
            incr m2l;
            Expansion.m2l_into ~dst:local mp.(ci)
              ~from_center:(Aquadtree.center tree ci)
              ~to_center:lc;
            Array.iter
              (fun pid ->
                Fmm_seq.add out pid
                  (Expansion.eval_local local ~center:lc
                     parts.(pid).Particle2d.z))
              mine
          end
          else
            match Aquadtree.kind tree ci with
            | Aquadtree.Leaf ids ->
              Particle2d.pack parts ids srcs ~pos:0;
              p2p := !p2p + (Array.length ids * Array.length mine);
              Array.iter
                (fun pid ->
                  Fmm_seq.add out pid
                    (Expansion.direct_packed srcs ~n:(Array.length ids)
                       parts.(pid).Particle2d.z))
                mine
            | Aquadtree.Internal children ->
              Array.iter (fun ch -> if ch >= 0 then walk ch) children
        in
        walk (Aquadtree.root tree)
      | Aquadtree.Leaf _ -> ())
    (Aquadtree.leaves_in_dfs_order tree);
  (out, { m2l = !m2l; p2p = !p2p; visits = !visits })

let sequential_ns ~(params : Fmm_force.params) ~nleafavg c =
  (c.m2l
  * (Fmm_force.m2l_cost_ns params
    + int_of_float (nleafavg *. float_of_int (Fmm_force.eval_cost_ns params))))
  + (c.p2p * params.Fmm_force.p2p_ns)
  + (c.visits * params.Fmm_force.visit_ns)
