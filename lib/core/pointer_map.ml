open Dpa_heap
module Int_tbl = Dpa_util.Int_tbl

type 'k slot = { ptr : Gptr.t; mutable ks : 'k list (* reversed *); mutable count : int }

type 'k t = {
  tokens : 'k slot Int_tbl.t;
  by_ptr : int Int_tbl.t;
      (* pointer -> outstanding token (-1: none), reuse mode *)
  none : 'k slot;  (* [tokens]' absent value *)
  mutable next_token : int;
  mutable waiters : int;
}

let create () =
  let none = { ptr = Gptr.nil; ks = []; count = 0 } in
  {
    tokens = Int_tbl.create ~absent:none;
    by_ptr = Int_tbl.create ~absent:(-1);
    none;
    next_token = 0;
    waiters = 0;
  }

let fresh t ptr k =
  let token = t.next_token in
  t.next_token <- token + 1;
  Int_tbl.replace t.tokens token { ptr; ks = [ k ]; count = 1 };
  token

let register t ~reuse (ptr : Gptr.t) k =
  t.waiters <- t.waiters + 1;
  if reuse then begin
    let token = Int_tbl.find t.by_ptr (ptr :> int) in
    if token >= 0 then begin
      let slot = Int_tbl.find t.tokens token in
      slot.ks <- k :: slot.ks;
      slot.count <- slot.count + 1;
      `Merged
    end
    else begin
      let token = fresh t ptr k in
      Int_tbl.replace t.by_ptr (ptr :> int) token;
      `New_request token
    end
  end
  else `New_request (fresh t ptr k)

(* Remove a token's slot ([t.none] if unknown) and its pointer's entry. *)
let consume t token =
  let slot = Int_tbl.take t.tokens token in
  if slot != t.none then begin
    let p = (slot.ptr :> int) in
    if Int_tbl.find t.by_ptr p = token then Int_tbl.remove t.by_ptr p;
    t.waiters <- t.waiters - slot.count
  end;
  slot

let take_into t token ring =
  let slot = consume t token in
  if slot != t.none then Ready_ring.push_rev ring slot.ptr slot.ks slot.count;
  slot.ptr

let take_opt t token =
  let slot = consume t token in
  if slot == t.none then None else Some (slot.ptr, List.rev slot.ks)

let take t token =
  match take_opt t token with None -> raise Not_found | Some r -> r

let find_ptr t token =
  let slot = Int_tbl.find t.tokens token in
  if slot == t.none then None else Some slot.ptr

let fold_outstanding t f acc =
  Int_tbl.fold (fun token slot acc -> f token slot.ptr acc) t.tokens acc

let outstanding t = Int_tbl.length t.tokens
let waiters t = t.waiters
let is_empty t = Int_tbl.length t.tokens = 0

let clear t =
  Int_tbl.clear t.tokens;
  Int_tbl.clear t.by_ptr;
  t.waiters <- 0
