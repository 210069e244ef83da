type counts = { cell_visits : int; body_cell : int; body_body : int }

let zero_counts = { cell_visits = 0; body_cell = 0; body_body = 0 }

let add_counts a b =
  {
    cell_visits = a.cell_visits + b.cell_visits;
    body_cell = a.body_cell + b.body_cell;
    body_body = a.body_body + b.body_body;
  }

(* The traversal mirrors, interaction for interaction, the distributed
   traversal in [Bh_force]: leaves and internal cells both pass the
   acceptance test; accepted cells contribute through their center of mass,
   opened leaves contribute body-by-body (skipping the subject itself).

   The monopole arithmetic is written out on scalars, in exactly the
   operation order of [Kernels.accel]/[Vec3.add], so the traversal stays
   allocation-free (a [Vec3.t] per interaction would dominate the whole
   step's allocation at large N) while producing bit-identical
   accelerations. *)
let force_on_counting ?(theta = 1.0) ?(eps = 0.05) ?(use_quad = false) tree
    (b : Body.t) counts =
  let bodies = Octree.bodies tree in
  let px = b.Body.pos.Vec3.x
  and py = b.Body.pos.Vec3.y
  and pz = b.Body.pos.Vec3.z in
  (* A float array, not three [float ref]s: [visit] captures the
     accumulator, and a captured [float ref] is a real ref cell whose
     every [:=] boxes a float; float-array stores are unboxed. *)
  let acc = Array.make 3 0. in
  let visits = ref 0 and bc = ref 0 and bb = ref 0 in
  (* The monopole interaction is spelled out (twice) rather than shared
     through a helper: float arguments crossing a non-inlined call are
     boxed, which is precisely the allocation this loop must avoid. *)
  let rec visit ci =
    incr visits;
    let com = Octree.com tree ci and half = Octree.half tree ci in
    let dx = px -. com.Vec3.x
    and dy = py -. com.Vec3.y
    and dz = pz -. com.Vec3.z in
    let d = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
    if not (2. *. half >= theta *. d) then begin
      incr bc;
      if use_quad then begin
        let c =
          Kernels.accel_with_quad ~eps ~pos:b.Body.pos ~src_pos:com
            ~src_mass:(Octree.mass tree ci) ~quad:(Octree.quad tree ci)
        in
        acc.(0) <- acc.(0) +. c.Vec3.x;
        acc.(1) <- acc.(1) +. c.Vec3.y;
        acc.(2) <- acc.(2) +. c.Vec3.z
      end
      else begin
        let rx = com.Vec3.x -. px
        and ry = com.Vec3.y -. py
        and rz = com.Vec3.z -. pz in
        let d2 = (rx *. rx) +. (ry *. ry) +. (rz *. rz) in
        if d2 = 0. then begin
          (* [Kernels.accel] returns [Vec3.zero] here; adding it still
             normalizes a negative zero in the accumulator. *)
          acc.(0) <- acc.(0) +. 0.;
          acc.(1) <- acc.(1) +. 0.;
          acc.(2) <- acc.(2) +. 0.
        end
        else begin
          let d2 = d2 +. (eps *. eps) in
          let inv = 1. /. (d2 *. sqrt d2) in
          let s = Octree.mass tree ci *. inv in
          acc.(0) <- acc.(0) +. (s *. rx);
          acc.(1) <- acc.(1) +. (s *. ry);
          acc.(2) <- acc.(2) +. (s *. rz)
        end
      end
    end
    else
      match Octree.kind tree ci with
      | Octree.Leaf ids ->
        for i = 0 to Array.length ids - 1 do
          let bid = ids.(i) in
          if bid <> b.Body.id then begin
            incr bb;
            let s = bodies.(bid) in
            let rx = s.Body.pos.Vec3.x -. px
            and ry = s.Body.pos.Vec3.y -. py
            and rz = s.Body.pos.Vec3.z -. pz in
            let d2 = (rx *. rx) +. (ry *. ry) +. (rz *. rz) in
            if d2 = 0. then begin
              acc.(0) <- acc.(0) +. 0.;
              acc.(1) <- acc.(1) +. 0.;
              acc.(2) <- acc.(2) +. 0.
            end
            else begin
              let d2 = d2 +. (eps *. eps) in
              let inv = 1. /. (d2 *. sqrt d2) in
              let s = s.Body.mass *. inv in
              acc.(0) <- acc.(0) +. (s *. rx);
              acc.(1) <- acc.(1) +. (s *. ry);
              acc.(2) <- acc.(2) +. (s *. rz)
            end
          end
        done
      | Octree.Internal children ->
        for i = 0 to Array.length children - 1 do
          if children.(i) >= 0 then visit children.(i)
        done
  in
  visit (Octree.root tree);
  counts :=
    add_counts !counts
      { cell_visits = !visits; body_cell = !bc; body_body = !bb };
  Vec3.make acc.(0) acc.(1) acc.(2)

let force_on ?theta ?eps ?use_quad tree b =
  let c = ref zero_counts in
  force_on_counting ?theta ?eps ?use_quad tree b c

let compute_forces ?theta ?eps ?use_quad tree =
  let counts = ref zero_counts in
  Array.iter
    (fun b -> b.Body.acc <- force_on_counting ?theta ?eps ?use_quad tree b counts)
    (Octree.bodies tree);
  !counts

let per_body_work ?(theta = 1.0) ?(visit_w = 1) ?(body_cell_w = 10)
    ?(body_body_w = 8) tree =
  let bodies = Octree.bodies tree in
  Array.map
    (fun (b : Body.t) ->
      let work = ref 0 in
      let rec visit ci =
        work := !work + visit_w;
        let com = Octree.com tree ci and half = Octree.half tree ci in
        if not (Kernels.opened ~theta ~pos:b.Body.pos ~com ~half) then
          work := !work + body_cell_w
        else
          match Octree.kind tree ci with
          | Octree.Leaf ids ->
            Array.iter
              (fun bid -> if bid <> b.Body.id then work := !work + body_body_w)
              ids
          | Octree.Internal children ->
            Array.iter (fun ch -> if ch >= 0 then visit ch) children
      in
      visit (Octree.root tree);
      !work)
    bodies

let visit_trace ?(theta = 1.0) tree b f =
  let rec visit ci =
    f ci;
    let com = Octree.com tree ci and half = Octree.half tree ci in
    if Kernels.opened ~theta ~pos:b.Body.pos ~com ~half then
      match Octree.kind tree ci with
      | Octree.Leaf _ -> ()
      | Octree.Internal children ->
        Array.iter (fun ch -> if ch >= 0 then visit ch) children
  in
  visit (Octree.root tree)
