let compute parts =
  let n = Array.length parts in
  let srcs = Array.make (4 * n) 0. in
  Particle2d.pack parts (Array.init n Fun.id) srcs ~pos:0;
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  Array.iter
    (fun p ->
      let phi, dphi = Expansion.direct_packed srcs ~n p.Particle2d.z in
      potential.(p.Particle2d.id) <- phi.Complex.re;
      field.(p.Particle2d.id) <- dphi)
    parts;
  { Fmm_seq.potential; field }

let max_field_error (r : Fmm_seq.result) ~(reference : Fmm_seq.result) =
  let n = Array.length reference.Fmm_seq.field in
  let rms = ref 0. in
  Array.iter
    (fun f -> rms := !rms +. (Complex.norm f ** 2.))
    reference.Fmm_seq.field;
  let rms = sqrt (!rms /. float_of_int n) in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    let d = Complex.norm (Complex.sub r.Fmm_seq.field.(i) reference.Fmm_seq.field.(i)) in
    worst := max !worst (d /. rms)
  done;
  !worst
