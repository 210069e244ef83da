(* Prints the MD5 digest of each file named on the command line, one
   "<hex>  <name>" line per file, so a golden rule can pin an artifact too
   large to commit. *)
let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let f = Sys.argv.(i) in
    Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file f)) f
  done
