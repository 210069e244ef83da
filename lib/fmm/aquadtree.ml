open Dpa_util

type kind = Leaf of int array | Internal of int array

type cell = {
  cx : float;
  cy : float;
  w : float;  (** side length *)
  mutable node : node;
  mutable count : int;
}

and node = L of int list | I of int array

type t = { cells : cell Dynarray.t; root : int; particles : Particle2d.t array }

let max_depth = 40

let new_cell cells ~cx ~cy ~w =
  Dynarray.add cells { cx; cy; w; node = L []; count = 0 }

let quadrant c (z : Complex.t) =
  (if z.Complex.re >= c.cx then 1 else 0) lor if z.Complex.im >= c.cy then 2 else 0

let child_box c q =
  let h = c.w /. 4. in
  ( (c.cx +. if q land 1 <> 0 then h else -.h),
    (c.cy +. if q land 2 <> 0 then h else -.h),
    c.w /. 2. )

let build ?(leaf_cap = 8) particles =
  if Array.length particles = 0 then invalid_arg "Aquadtree.build: no particles";
  if leaf_cap <= 0 then invalid_arg "Aquadtree.build: leaf_cap must be positive";
  let cells = Dynarray.create () in
  let root = new_cell cells ~cx:0.5 ~cy:0.5 ~w:1. in
  let rec insert ci pid depth =
    let c = Dynarray.get cells ci in
    match c.node with
    | L ids when List.length ids < leaf_cap || depth >= max_depth ->
      c.node <- L (pid :: ids)
    | L ids ->
      c.node <- I (Array.make 4 (-1));
      List.iter (fun q -> push_down ci q depth) ids;
      push_down ci pid depth
    | I _ -> push_down ci pid depth
  and push_down ci pid depth =
    let c = Dynarray.get cells ci in
    match c.node with
    | I children ->
      let q = quadrant c particles.(pid).Particle2d.z in
      let child =
        if children.(q) >= 0 then children.(q)
        else begin
          let cx, cy, w = child_box c q in
          let cc = new_cell cells ~cx ~cy ~w in
          children.(q) <- cc;
          cc
        end
      in
      insert child pid (depth + 1)
    | L _ -> assert false
  in
  Array.iteri (fun pid _ -> insert root pid 0) particles;
  let t = { cells; root; particles } in
  (* Subtree particle counts, bottom-up. *)
  let rec recount ci =
    let c = Dynarray.get cells ci in
    let n =
      match c.node with
      | L ids -> List.length ids
      | I children ->
        Array.fold_left
          (fun acc ch -> if ch >= 0 then acc + recount ch else acc)
          0 children
    in
    c.count <- n;
    n
  in
  ignore (recount root);
  t

let particles t = t.particles
let root t = t.root
let ncells t = Dynarray.length t.cells

let center t i =
  let c = Dynarray.get t.cells i in
  { Complex.re = c.cx; im = c.cy }

let width t i = (Dynarray.get t.cells i).w

let kind t i =
  match (Dynarray.get t.cells i).node with
  | L ids -> Leaf (Array.of_list (List.rev ids))
  | I children -> Internal children

let nparticles t i = (Dynarray.get t.cells i).count

let max_occupancy t =
  let m = ref 0 in
  Dynarray.iter
    (fun c -> match c.node with L _ -> m := max !m c.count | I _ -> ())
    t.cells;
  !m

let depth t =
  let rec go ci =
    match (Dynarray.get t.cells ci).node with
    | L _ -> 1
    | I children ->
      1
      + Array.fold_left
          (fun acc ch -> if ch >= 0 then max acc (go ch) else acc)
          0 children
  in
  go t.root

let leaves_in_dfs_order t =
  let out = Dynarray.create () in
  let rec go ci =
    match (Dynarray.get t.cells ci).node with
    | L _ -> ignore (Dynarray.add out ci)
    | I children -> Array.iter (fun ch -> if ch >= 0 then go ch) children
  in
  go t.root;
  Array.init (Dynarray.length out) (Dynarray.get out)

let iter_cells_postorder t f =
  let rec go ci =
    (match (Dynarray.get t.cells ci).node with
    | L _ -> ()
    | I children -> Array.iter (fun ch -> if ch >= 0 then go ch) children);
    f ci
  in
  go t.root

let well_separated t ~leaf ci =
  let a = Dynarray.get t.cells leaf and b = Dynarray.get t.cells ci in
  let gap_x = Float.abs (a.cx -. b.cx) -. ((a.w +. b.w) /. 2.) in
  let gap_y = Float.abs (a.cy -. b.cy) -. ((a.w +. b.w) /. 2.) in
  let gap = Float.max gap_x gap_y in
  gap >= Float.max a.w b.w -. 1e-12
