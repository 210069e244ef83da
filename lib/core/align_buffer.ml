open Dpa_heap
module Int_tbl = Dpa_util.Int_tbl

(* With the flat heap a renamed copy is just the object's handle (views
   alias the owner store — see {!Heap.view}), so D degenerates to a
   membership set over pointers. Its size and peak still measure exactly
   what the paper's D does: how many distinct remote objects the strip
   holds at once. [clear] keeps the table's capacity, so D grows to the
   strip's working set once per phase, not once per strip. *)
type t = { table : unit Int_tbl.t; mutable peak : int }

let create () = { table = Int_tbl.create ~absent:(); peak = 0 }

let mem t (ptr : Gptr.t) = Int_tbl.mem t.table (ptr :> int)

let add t (ptr : Gptr.t) =
  Int_tbl.replace t.table (ptr :> int) ();
  let n = Int_tbl.length t.table in
  if n > t.peak then t.peak <- n

let size t = Int_tbl.length t.table
let peak t = t.peak
let clear t = Int_tbl.clear t.table
