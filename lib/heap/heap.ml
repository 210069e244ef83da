(* Struct-of-arrays object store. Each node backs its objects with one
   float pool (a Bigarray, so payload floats live outside the OCaml heap
   and are never scanned by the GC) and one flat pointer pool (packed
   {!Gptr.t} integers). An object is the triple (fbase, pbase, nf, np)
   held in the [meta] array at stride 4; a {!Gptr.t} is an index into
   [meta]. Field access is pure arithmetic — no per-object record exists,
   so a million-object heap costs the GC nothing.

   {!Obj_repr.t} survives only as a copy-out view materialized at API
   edges ([get]/[deref]); the runtime's hot paths use the in-place
   accessors below. *)

type fpool =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  node : int;
  mutable nobjs : int;
  mutable meta : int array;  (* stride 4: fbase, pbase, nfloats, nptrs *)
  mutable fpool : fpool;
  mutable flen : int;  (* floats in use *)
  mutable ppool : Gptr.t array;
  mutable plen : int;  (* pointers in use *)
}

type cluster = t array

type view = Gptr.t

let meta_stride = 4

let make_fpool n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create_node node =
  {
    node;
    nobjs = 0;
    meta = Array.make (16 * meta_stride) 0;
    fpool = make_fpool 64;
    flen = 0;
    ppool = Array.make 16 Gptr.nil;
    plen = 0;
  }

let cluster ~nnodes =
  if nnodes <= 0 then invalid_arg "Heap.cluster: nnodes must be positive";
  Array.init nnodes create_node

let node_of c i = c.(i)

let size t = t.nobjs

(* --- pool growth -------------------------------------------------------- *)

let grow_cap cap need =
  let c = ref (max cap 16) in
  while !c < need do
    c := !c * 2
  done;
  !c

let ensure_meta t =
  let need = (t.nobjs + 1) * meta_stride in
  if need > Array.length t.meta then begin
    let m = Array.make (grow_cap (Array.length t.meta) need) 0 in
    Array.blit t.meta 0 m 0 (t.nobjs * meta_stride);
    t.meta <- m
  end

let ensure_floats t extra =
  let need = t.flen + extra in
  if need > Bigarray.Array1.dim t.fpool then begin
    let p = make_fpool (grow_cap (Bigarray.Array1.dim t.fpool) need) in
    Bigarray.Array1.blit t.fpool (Bigarray.Array1.sub p 0 (Bigarray.Array1.dim t.fpool));
    t.fpool <- p
  end

let ensure_ptrs t extra =
  let need = t.plen + extra in
  if need > Array.length t.ppool then begin
    let p = Array.make (grow_cap (Array.length t.ppool) need) Gptr.nil in
    Array.blit t.ppool 0 p 0 t.plen;
    t.ppool <- p
  end

let reserve t ~objs ~floats ~ptrs =
  if objs < 0 || floats < 0 || ptrs < 0 then
    invalid_arg "Heap.reserve: negative size";
  if objs > 0 then begin
    let need = (t.nobjs + objs) * meta_stride in
    if need > Array.length t.meta then begin
      let m = Array.make (grow_cap (Array.length t.meta) need) 0 in
      Array.blit t.meta 0 m 0 (t.nobjs * meta_stride);
      t.meta <- m
    end
  end;
  if floats > 0 then ensure_floats t floats;
  if ptrs > 0 then ensure_ptrs t ptrs

(* --- allocation --------------------------------------------------------- *)

let alloc_raw t ~nfloats ~nptrs =
  if nfloats < 0 || nptrs < 0 then invalid_arg "Heap.alloc_raw: negative size";
  ensure_meta t;
  ensure_floats t nfloats;
  ensure_ptrs t nptrs;
  let slot = t.nobjs in
  let m = slot * meta_stride in
  t.meta.(m) <- t.flen;
  t.meta.(m + 1) <- t.plen;
  t.meta.(m + 2) <- nfloats;
  t.meta.(m + 3) <- nptrs;
  Bigarray.Array1.fill (Bigarray.Array1.sub t.fpool t.flen nfloats) 0.;
  Array.fill t.ppool t.plen nptrs Gptr.nil;
  t.flen <- t.flen + nfloats;
  t.plen <- t.plen + nptrs;
  t.nobjs <- slot + 1;
  Gptr.make ~node:t.node ~slot

let alloc t ~floats ~ptrs =
  let nfloats = Array.length floats and nptrs = Array.length ptrs in
  ensure_meta t;
  ensure_floats t nfloats;
  ensure_ptrs t nptrs;
  let slot = t.nobjs in
  let m = slot * meta_stride in
  t.meta.(m) <- t.flen;
  t.meta.(m + 1) <- t.plen;
  t.meta.(m + 2) <- nfloats;
  t.meta.(m + 3) <- nptrs;
  for i = 0 to nfloats - 1 do
    Bigarray.Array1.set t.fpool (t.flen + i) floats.(i)
  done;
  Array.blit ptrs 0 t.ppool t.plen nptrs;
  t.flen <- t.flen + nfloats;
  t.plen <- t.plen + nptrs;
  t.nobjs <- slot + 1;
  Gptr.make ~node:t.node ~slot

(* --- handle resolution -------------------------------------------------- *)

let check t (p : Gptr.t) name =
  if Gptr.is_nil p then invalid_arg (name ^ ": nil pointer");
  if Gptr.node p <> t.node then
    invalid_arg (name ^ ": pointer owned by another node");
  let slot = Gptr.slot p in
  if slot >= t.nobjs then invalid_arg (name ^ ": dangling slot");
  slot * meta_stride

let nfloats t p = t.meta.(check t p "Heap.nfloats" + 2)
let nptrs t p = t.meta.(check t p "Heap.nptrs" + 3)

let get_float t p i =
  let m = check t p "Heap.get_float" in
  if i < 0 || i >= t.meta.(m + 2) then
    invalid_arg "Heap.get_float: field out of range";
  Bigarray.Array1.get t.fpool (t.meta.(m) + i)

let set_float t p i v =
  let m = check t p "Heap.set_float" in
  if i < 0 || i >= t.meta.(m + 2) then
    invalid_arg "Heap.set_float: field out of range";
  Bigarray.Array1.set t.fpool (t.meta.(m) + i) v

let get_ptr t p i =
  let m = check t p "Heap.get_ptr" in
  if i < 0 || i >= t.meta.(m + 3) then
    invalid_arg "Heap.get_ptr: field out of range";
  t.ppool.(t.meta.(m + 1) + i)

let set_ptr t p i v =
  let m = check t p "Heap.set_ptr" in
  if i < 0 || i >= t.meta.(m + 3) then
    invalid_arg "Heap.set_ptr: field out of range";
  t.ppool.(t.meta.(m + 1) + i) <- v

let set_floats t p ~pos (src : float array) =
  let m = check t p "Heap.set_floats" in
  if pos < 0 || pos + Array.length src > t.meta.(m + 2) then
    invalid_arg "Heap.set_floats: range out of bounds";
  for i = 0 to Array.length src - 1 do
    Bigarray.Array1.unsafe_set t.fpool (t.meta.(m) + pos + i) src.(i)
  done

let bump_float t p ~idx v =
  let m = check t p "Heap.bump_float" in
  if idx < 0 || idx >= t.meta.(m + 2) then
    invalid_arg "Heap.bump_float: field out of range";
  let o = t.meta.(m) + idx in
  Bigarray.Array1.set t.fpool o (Bigarray.Array1.get t.fpool o +. v)

(* Raw pool access for innermost loops. A float-returning call that the
   compiler does not inline boxes its result; handing the loop the pool
   and the object's base index keeps every field read an unboxed Bigarray
   load. The handle is validated once here, not per field. *)
let float_pool t = t.fpool
let float_base t p = t.meta.(check t p "Heap.float_base")

let obj_bytes t p =
  let m = check t p "Heap.obj_bytes" in
  Obj_repr.header_bytes + (8 * t.meta.(m + 2)) + (Gptr.bytes * t.meta.(m + 3))

(* --- cluster-level view accessors --------------------------------------- *)

(* A view is just the pointer itself: remote fetches in the simulator carry
   accounting bytes, not payload, so a delivered "copy" has always aliased
   the owner's live object. The accessors resolve through the owning
   node's pools — pure arithmetic, no allocation. *)

let view_nfloats c (v : view) = nfloats c.(Gptr.node v) v
let view_nptrs c (v : view) = nptrs c.(Gptr.node v) v
let view_float c (v : view) i = get_float c.(Gptr.node v) v i
let view_ptr c (v : view) i = get_ptr c.(Gptr.node v) v i
let view_bytes c (v : view) = obj_bytes c.(Gptr.node v) v

let view_floats_into c (v : view) ~pos ~len (dst : float array) =
  let t = c.(Gptr.node v) in
  let m = check t v "Heap.view_floats_into" in
  if pos < 0 || len < 0 || pos + len > t.meta.(m + 2) || len > Array.length dst
  then invalid_arg "Heap.view_floats_into: range out of bounds";
  let base = t.meta.(m) + pos in
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (Bigarray.Array1.unsafe_get t.fpool (base + i))
  done

(* --- copy-out views ------------------------------------------------------ *)

let get t (p : Gptr.t) =
  let m = check t p "Heap.get" in
  let fbase = t.meta.(m) and pbase = t.meta.(m + 1) in
  let nf = t.meta.(m + 2) and np = t.meta.(m + 3) in
  Obj_repr.make
    ~floats:(Array.init nf (fun i -> Bigarray.Array1.get t.fpool (fbase + i)))
    ~ptrs:(Array.sub t.ppool pbase np)

let deref c (p : Gptr.t) =
  if Gptr.is_nil p then invalid_arg "Heap.deref: nil pointer";
  get c.(Gptr.node p) p

(* --- accounting ---------------------------------------------------------- *)

let total_objects c = Array.fold_left (fun acc t -> acc + size t) 0 c

let total_bytes c =
  Array.fold_left
    (fun acc t ->
      acc
      + (Obj_repr.header_bytes * t.nobjs)
      + (8 * t.flen)
      + (Gptr.bytes * t.plen))
    0 c
