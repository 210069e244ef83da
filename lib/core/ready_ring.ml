open Dpa_heap

(* The scheduler's ready queue, flattened: a circular buffer of parallel
   (pointer, continuation) arrays. Pushing a ready thread writes two
   pre-sized slots — no queue cell, no tuple — which keeps the per-access
   dispatch path of {!Runtime} allocation-free. Capacity doubles on
   demand and is retained across strips (the working set bounds it). *)

type 'k t = {
  mutable ptrs : Gptr.t array;
  mutable ks : 'k array;
  mutable head : int;  (* index of the next entry to pop *)
  mutable len : int;
  dummy : 'k;  (* fills vacated slots so popped closures are not retained *)
}

let create ~dummy =
  { ptrs = Array.make 64 Gptr.nil; ks = Array.make 64 dummy; head = 0; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.ptrs in
  let ncap = cap * 2 in
  let ptrs = Array.make ncap Gptr.nil and ks = Array.make ncap t.dummy in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land (cap - 1) in
    ptrs.(i) <- t.ptrs.(j);
    ks.(i) <- t.ks.(j)
  done;
  t.ptrs <- ptrs;
  t.ks <- ks;
  t.head <- 0

let push t ptr k =
  let cap = Array.length t.ptrs in
  if t.len = cap then grow t;
  let i = (t.head + t.len) land (Array.length t.ptrs - 1) in
  t.ptrs.(i) <- ptr;
  t.ks.(i) <- k;
  t.len <- t.len + 1

(* Fill slots [i], [i - 1], ... with the list's elements in list order,
   so a reversed list lands back to front in its original order, never
   below the live entries. Returns the index below the last slot
   written. *)
let rec fill_rev t ptr mask i = function
  | [] -> i
  | k :: rest ->
    if i < t.len then invalid_arg "Ready_ring.push_rev: wrong length";
    let j = (t.head + i) land mask in
    t.ptrs.(j) <- ptr;
    t.ks.(j) <- k;
    fill_rev t ptr mask (i - 1) rest

let push_rev t ptr ks n =
  while t.len + n > Array.length t.ptrs do
    grow t
  done;
  let last = fill_rev t ptr (Array.length t.ptrs - 1) (t.len + n - 1) ks in
  if last <> t.len - 1 then invalid_arg "Ready_ring.push_rev: wrong length";
  t.len <- t.len + n

let head_ptr t =
  if t.len = 0 then invalid_arg "Ready_ring.head_ptr: empty";
  t.ptrs.(t.head)

let head_k t =
  if t.len = 0 then invalid_arg "Ready_ring.head_k: empty";
  t.ks.(t.head)

let drop t =
  if t.len = 0 then invalid_arg "Ready_ring.drop: empty";
  t.ks.(t.head) <- t.dummy;
  t.ptrs.(t.head) <- Gptr.nil;
  t.head <- (t.head + 1) land (Array.length t.ptrs - 1);
  t.len <- t.len - 1
