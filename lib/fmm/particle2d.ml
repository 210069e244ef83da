open Dpa_util

type t = { id : int; q : float; z : Complex.t }

let make ~id ~q ~z = { id; q; z }

let pack parts ids dst ~pos =
  Array.iteri
    (fun k i ->
      let pt = parts.(i) and base = pos + (4 * k) in
      dst.(base) <- float_of_int pt.id;
      dst.(base + 1) <- pt.q;
      dst.(base + 2) <- pt.z.Complex.re;
      dst.(base + 3) <- pt.z.Complex.im)
    ids

let normalize_charges parts =
  let total = Array.fold_left (fun a p -> a +. p.q) 0. parts in
  Array.map (fun p -> { p with q = p.q /. total }) parts

let uniform ~n ~seed =
  if n <= 0 then invalid_arg "Particle2d.uniform: n must be positive";
  let rng = Rng.create ~seed in
  normalize_charges
    (Array.init n (fun id ->
         let z = { Complex.re = Rng.uniform rng; im = Rng.uniform rng } in
         make ~id ~q:(0.5 +. Rng.uniform rng) ~z))

let clamp01 x = if x < 0. then 0. else if x >= 1. then 0.999999 else x

let clustered ~n ~seed ~clusters =
  if n <= 0 then invalid_arg "Particle2d.clustered: n must be positive";
  if clusters <= 0 then invalid_arg "Particle2d.clustered: clusters must be positive";
  let rng = Rng.create ~seed in
  let centers =
    Array.init clusters (fun _ ->
        (Rng.uniform rng *. 0.8 +. 0.1, Rng.uniform rng *. 0.8 +. 0.1))
  in
  normalize_charges
    (Array.init n (fun id ->
         let cx, cy = centers.(Rng.int rng clusters) in
         let x = clamp01 (cx +. (Rng.gaussian rng *. 0.05)) in
         let y = clamp01 (cy +. (Rng.gaussian rng *. 0.05)) in
         make ~id ~q:(0.5 +. Rng.uniform rng) ~z:{ Complex.re = x; im = y }))
