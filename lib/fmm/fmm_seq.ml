type result = { potential : float array; field : Complex.t array }
type counts = { m2l : int; p2p : int; evals : int }

let add r pid ((phi : Complex.t), dphi) =
  r.potential.(pid) <- r.potential.(pid) +. phi.re;
  r.field.(pid) <- Complex.add r.field.(pid) dphi

let upward ~p tree =
  let parts = Quadtree.particles tree in
  let n = Quadtree.ncells tree in
  (* Levels 0 and 1 are never consulted: they share one zero expansion. *)
  let mp = Array.make n (Expansion.zero ~p) in
  let depth = Quadtree.depth tree in
  (* P2M at the leaves. *)
  Array.iter
    (fun leaf ->
      mp.(leaf) <-
        Expansion.p2m_particles ~p ~center:(Quadtree.center tree leaf) parts
          (Quadtree.leaf_particles tree leaf))
    (Quadtree.leaves_in_morton_order tree);
  (* M2M up to level 2. *)
  for level = depth - 1 downto 2 do
    let side = 1 lsl level in
    for iy = 0 to side - 1 do
      for ix = 0 to side - 1 do
        let ci = Quadtree.index tree ~level ~ix ~iy in
        let acc = Expansion.zero ~p in
        for cy = 0 to 1 do
          for cx = 0 to 1 do
            let child =
              Quadtree.index tree ~level:(level + 1) ~ix:((2 * ix) + cx)
                ~iy:((2 * iy) + cy)
            in
            Expansion.add_inplace acc
              (Expansion.m2m mp.(child)
                 ~from_center:(Quadtree.center tree child)
                 ~to_center:(Quadtree.center tree ci))
          done
        done;
        mp.(ci) <- acc
      done
    done
  done;
  mp

let compute ~p tree =
  let parts = Quadtree.particles tree in
  let n = Array.length parts in
  let mp = upward ~p tree in
  let out =
    { potential = Array.make n 0.; field = Array.make n Complex.zero }
  in
  let m2l = ref 0 and p2p = ref 0 and evals = ref 0 in
  let local = Expansion.zero ~p in
  let srcs = Array.make (4 * Quadtree.max_occupancy tree) 0. in
  let depth = Quadtree.depth tree in
  Array.iter
    (fun leaf ->
      let mine = Quadtree.leaf_particles tree leaf in
      if Array.length mine > 0 then begin
        let lc = Quadtree.center tree leaf in
        (* Far field: ancestors' V lists, one M2L per interaction cell,
           evaluated at each of this leaf's particles. *)
        for level = 2 to depth do
          let a = Quadtree.ancestor tree leaf ~level in
          Array.iter
            (fun v ->
              Expansion.m2l_into ~dst:local mp.(v)
                ~from_center:(Quadtree.center tree v)
                ~to_center:lc;
              incr m2l;
              evals := !evals + Array.length mine;
              Array.iter
                (fun pid ->
                  add out pid
                    (Expansion.eval_local local ~center:lc
                       parts.(pid).Particle2d.z))
                mine)
            (Quadtree.v_list tree a)
        done;
        (* Near field: direct over the U list (includes this leaf; the
           direct kernel skips self-pairs by distance). *)
        Array.iter
          (fun u ->
            let ids = Quadtree.leaf_particles tree u in
            Particle2d.pack parts ids srcs ~pos:0;
            p2p := !p2p + (Array.length ids * Array.length mine);
            Array.iter
              (fun pid ->
                add out pid
                  (Expansion.direct_packed srcs ~n:(Array.length ids)
                     parts.(pid).Particle2d.z))
              mine)
          (Quadtree.u_list tree leaf)
      end)
    (Quadtree.leaves_in_morton_order tree);
  (out, { m2l = !m2l; p2p = !p2p; evals = !evals })
