type t = {
  particles : Particle2d.t array;
  depth : int;
  leaf_of_particle : int array;
  leaf_members : int array array;  (* per leaf-row-major rank *)
}

let level_offset l = ((1 lsl (2 * l)) - 1) / 3
let cells_at l = 1 lsl (2 * l)

let index _t ~level ~ix ~iy = level_offset level + (iy lsl level) + ix

let rec find_level l i = if i < level_offset (l + 1) then l else find_level (l + 1) i
let level_of _t i = find_level 0 i

let coords_of t i =
  let l = level_of t i in
  let r = i - level_offset l in
  (r land ((1 lsl l) - 1), r lsr l)

let width_at ~level = 1. /. float_of_int (1 lsl level)

let pick_depth ~n ~target =
  let rec go d =
    if d >= 10 then d
    else if n <= target * cells_at d then max 2 d
    else go (d + 1)
  in
  go 2

let build ?(target_occupancy = 8) ?depth particles =
  let n = Array.length particles in
  if n = 0 then invalid_arg "Quadtree.build: no particles";
  let depth =
    match depth with
    | Some d ->
      if d < 2 then invalid_arg "Quadtree.build: depth must be >= 2" else d
    | None -> pick_depth ~n ~target:target_occupancy
  in
  let side = 1 lsl depth in
  let clamp v = if v < 0 then 0 else if v >= side then side - 1 else v in
  let leaf_rank_of z =
    let ix = clamp (int_of_float (z.Complex.re *. float_of_int side)) in
    let iy = clamp (int_of_float (z.Complex.im *. float_of_int side)) in
    (iy * side) + ix
  in
  let members = Array.make (side * side) [] in
  let leaf_of_particle = Array.make n 0 in
  Array.iter
    (fun p ->
      let r = leaf_rank_of p.Particle2d.z in
      members.(r) <- p.Particle2d.id :: members.(r);
      leaf_of_particle.(p.Particle2d.id) <- level_offset depth + r)
    particles;
  {
    particles;
    depth;
    leaf_of_particle;
    leaf_members = Array.map (fun l -> Array.of_list (List.rev l)) members;
  }

let particles t = t.particles
let depth t = t.depth
let ncells t = level_offset (t.depth + 1)
let nleaves t = cells_at t.depth

let center t i =
  let l = level_of t i in
  let ix, iy = coords_of t i in
  let w = width_at ~level:l in
  { Complex.re = (float_of_int ix +. 0.5) *. w; im = (float_of_int iy +. 0.5) *. w }

let width t i = width_at ~level:(level_of t i)

let parent t i =
  let l = level_of t i in
  if l = 0 then invalid_arg "Quadtree.parent: root";
  let ix, iy = coords_of t i in
  index t ~level:(l - 1) ~ix:(ix / 2) ~iy:(iy / 2)

let ancestor t i ~level =
  let l = level_of t i in
  if level > l || level < 0 then invalid_arg "Quadtree.ancestor: bad level";
  let ix, iy = coords_of t i in
  let shift = l - level in
  index t ~level ~ix:(ix lsr shift) ~iy:(iy lsr shift)

let is_leaf t i = level_of t i = t.depth

let max_occupancy t =
  Array.fold_left (fun m ids -> max m (Array.length ids)) 0 t.leaf_members

let leaf_of_particle t pid = t.leaf_of_particle.(pid)

let leaf_particles t i =
  if not (is_leaf t i) then invalid_arg "Quadtree.leaf_particles: not a leaf";
  t.leaf_members.(i - level_offset t.depth)

let morton ~ix ~iy =
  let spread v =
    let v = ref v and r = ref 0 and bit = ref 0 in
    while !v > 0 do
      r := !r lor ((!v land 1) lsl !bit);
      v := !v lsr 1;
      bit := !bit + 2
    done;
    !r
  in
  spread ix lor (spread iy lsl 1)

let leaves_in_morton_order t =
  let side = 1 lsl t.depth in
  let all =
    Array.init (side * side) (fun r ->
        let ix = r mod side and iy = r / side in
        (morton ~ix ~iy, level_offset t.depth + r))
  in
  Array.sort compare all;
  Array.map snd all

let v_list t i =
  let l = level_of t i in
  if l < 2 then [||]
  else begin
    let side = 1 lsl l in
    let ix, iy = coords_of t i in
    let px, py = (ix / 2, iy / 2) in
    let out = ref [] in
    for njy = py + 1 downto py - 1 do
      for njx = px + 1 downto px - 1 do
        if njx >= 0 && njx < side / 2 && njy >= 0 && njy < side / 2 then
          (* children of this parent-level neighbor *)
          for cy = 1 downto 0 do
            for cx = 1 downto 0 do
              let jx = (njx * 2) + cx and jy = (njy * 2) + cy in
              if max (abs (jx - ix)) (abs (jy - iy)) >= 2 then
                out := index t ~level:l ~ix:jx ~iy:jy :: !out
            done
          done
      done
    done;
    Array.of_list !out
  end

let u_list t i =
  if not (is_leaf t i) then invalid_arg "Quadtree.u_list: not a leaf";
  let l = t.depth in
  let side = 1 lsl l in
  let ix, iy = coords_of t i in
  let out = ref [] in
  for jy = iy + 1 downto iy - 1 do
    for jx = ix + 1 downto ix - 1 do
      if jx >= 0 && jx < side && jy >= 0 && jy < side then
        out := index t ~level:l ~ix:jx ~iy:jy :: !out
    done
  done;
  Array.of_list !out
