(* Open addressing over two parallel arrays: [keys] holds the key of each
   slot or [-1] when the slot is empty, [vals] the binding (or [absent],
   so a removed value is not retained). Linear probing from a Fibonacci
   hash — the top bits of [key * mult] — which depend on every bit of the
   key, so pointers that differ only in their high (node) bits still
   spread. The load stays at most 1/2, and deletion shifts the rest of
   the probe run back into the hole (no tombstones), so a lookup stops at
   the first empty slot.

   Every operation is one function with its probe loop written out: the
   libraries are compiled without cross-module inlining, so a helper call
   per probe would be a real call. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int;  (* 63 - log2 (capacity) *)
  mutable size : int;
  absent : 'a;
}

let mult = 0x278DDE6E5FD29F05 (* odd, ~ 2^62 / golden ratio *)
let initial_bits = 3

let create ~absent =
  let cap = 1 lsl initial_bits in
  {
    keys = Array.make cap (-1);
    vals = Array.make cap absent;
    shift = 63 - initial_bits;
    size = 0;
    absent;
  }

let length t = t.size
let capacity t = Array.length t.keys

let find t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref ((k * mult) lsr t.shift) in
  while
    let k' = Array.unsafe_get keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  if k >= 0 && Array.unsafe_get keys !i = k then Array.unsafe_get t.vals !i
  else t.absent

let mem t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref ((k * mult) lsr t.shift) in
  while
    let k' = Array.unsafe_get keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  k >= 0 && Array.unsafe_get keys !i = k

(* Insert a key known to be absent, with no growth check: the rehash
   loop of [grow]. *)
let insert_fresh keys vals shift k v =
  let mask = Array.length keys - 1 in
  let i = ref ((k * mult) lsr shift) in
  while Array.unsafe_get keys !i >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set vals !i v

let grow t =
  let okeys = t.keys and ovals = t.vals in
  let cap = 2 * Array.length okeys in
  let keys = Array.make cap (-1) and vals = Array.make cap t.absent in
  let shift = t.shift - 1 in
  for i = 0 to Array.length okeys - 1 do
    let k = Array.unsafe_get okeys i in
    if k >= 0 then insert_fresh keys vals shift k (Array.unsafe_get ovals i)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.shift <- shift

let replace t k v =
  if k < 0 then invalid_arg "Int_tbl.replace: negative key";
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref ((k * mult) lsr t.shift) in
  while
    let k' = Array.unsafe_get keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set t.vals !i v;
  if Array.unsafe_get keys !i < 0 then begin
    Array.unsafe_set keys !i k;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length keys then grow t
  end

(* Empty slot [hole] and close the gap: walk the probe run after it and
   move back every entry whose home slot does not lie cyclically in
   (hole, j] — an entry may never move before its home. *)
let delete_at t hole =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let hole = ref hole in
  let j = ref ((!hole + 1) land mask) in
  while Array.unsafe_get keys !j >= 0 do
    let k = Array.unsafe_get keys !j in
    let home = (k * mult) lsr t.shift in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      Array.unsafe_set keys !hole k;
      Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Array.unsafe_set keys !hole (-1);
  Array.unsafe_set vals !hole t.absent;
  t.size <- t.size - 1

let take t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref ((k * mult) lsr t.shift) in
  while
    let k' = Array.unsafe_get keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  if k >= 0 && Array.unsafe_get keys !i = k then begin
    let v = Array.unsafe_get t.vals !i in
    delete_at t !i;
    v
  end
  else t.absent

let remove t k = ignore (take t k)

let fold f t acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.vals 0 (Array.length t.vals) t.absent;
    t.size <- 0
  end
