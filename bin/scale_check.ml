(* CI validator for the BENCH_scale.json artifact (see `make scale-smoke`):
   checks that the a16 sweep's JSON is structurally sound — every gate row
   carries the measured and baseline words-per-body-step, its reduction
   factor is arithmetically consistent and clears the committed threshold,
   and every scale row reports non-negative wall/allocation/GC/wire
   numbers — and then asserts the flat heap's hot-path contract directly:
   a strip-mined phase of local reads must not allocate per read, nor
   must a remote read that hits the alignment buffer, and a remote read
   merged onto an outstanding request allocates only its waiter's cons
   cell (docs/PERFORMANCE.md).

   Usage: scale_check BENCH_scale.json *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("scale_check: " ^ s);
      exit 1)
    fmt

let member name j =
  match Dpa_obs.Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let num name j =
  match member name j with
  | Dpa_obs.Json.Float f -> f
  | Dpa_obs.Json.Int i -> float_of_int i
  | _ -> fail "field %S is not a number" name

let int_f name j =
  match member name j with
  | Dpa_obs.Json.Int i -> i
  | _ -> fail "field %S is not an int" name

let list_f name j =
  match member name j with
  | Dpa_obs.Json.List l -> l
  | _ -> fail "field %S is not a list" name

(* ---- BENCH_scale.json structure --------------------------------------- *)

let check_json path =
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let raw = really_input_string ic n in
  close_in ic;
  let j =
    match Dpa_obs.Json.parse raw with
    | Ok j -> j
    | Error e -> fail "%s: parse error: %s" path e
  in
  (match member "bench" j with
  | Dpa_obs.Json.Str "scale" -> ()
  | _ -> fail "%S is not a scale sweep" path);
  let threshold = num "gate_threshold_x" j in
  if threshold < 1. then fail "gate threshold %.2f < 1" threshold;
  let gate = list_f "gate" j in
  if gate = [] then fail "empty gate table";
  List.iteri
    (fun i row ->
      let ctx s = Printf.sprintf "gate[%d].%s" i s in
      if int_f "nodes" row <= 0 then fail "%s <= 0" (ctx "nodes");
      if int_f "bodies" row <= 0 then fail "%s <= 0" (ctx "bodies");
      if int_f "steps" row <= 0 then fail "%s <= 0" (ctx "steps");
      if num "wall_s" row < 0. then fail "%s < 0" (ctx "wall_s");
      if int_f "major_collections" row < 0 then
        fail "%s < 0" (ctx "major_collections");
      let words = num "words_per_body_step" row in
      let boxed = num "boxed_words_per_body_step" row in
      let red = num "reduction_x" row in
      if words <= 0. then fail "%s <= 0" (ctx "words_per_body_step");
      if boxed <= 0. then fail "%s <= 0" (ctx "boxed_words_per_body_step");
      if Float.abs (red -. (boxed /. words)) > 1e-6 *. red then
        fail "gate[%d]: reduction_x %.4f inconsistent with %.1f/%.1f" i red
          boxed words;
      if red < threshold then
        fail "gate[%d]: reduction %.2fx below the %.1fx threshold" i red
          threshold)
    gate;
  let scale = list_f "scale" j in
  if scale = [] then fail "empty scale table";
  List.iteri
    (fun i row ->
      let ctx s = Printf.sprintf "scale[%d].%s" i s in
      if int_f "nodes" row <= 0 then fail "%s <= 0" (ctx "nodes");
      if int_f "bodies" row <= 0 then fail "%s <= 0" (ctx "bodies");
      if num "wall_s" row < 0. then fail "%s < 0" (ctx "wall_s");
      if num "words_per_body" row < 0. then fail "%s < 0" (ctx "words_per_body");
      if int_f "major_collections" row < 0 then
        fail "%s < 0" (ctx "major_collections");
      if int_f "bytes_moved" row < 0 then fail "%s < 0" (ctx "bytes_moved"))
    scale;
  Printf.printf
    "scale_check: %s structurally sound (%d gate rows >= %.1fx, %d scale \
     rows)\n"
    path (List.length gate) threshold (List.length scale)

(* ---- hot-path allocation contract -------------------------------------- *)

(* A phase of purely local reads exercises the strip hot path — spawn,
   ready-ring dispatch, continuation — with no wire traffic. On the flat
   heap the data path allocates nothing per read (the boxed heap paid a
   record copy-out each time, >= 10 words); what remains is the
   discrete-event simulator posting one event record per poll quantum,
   a couple of words amortized over the handful of dispatches each
   quantum admits. The bound leaves room for that and nothing more. *)
let check_hot_path () =
  let nnodes = 1 and nobjs = 4096 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nobjs (fun slot ->
        Dpa_heap.Heap.alloc heaps.(0)
          ~floats:[| float_of_int slot |]
          ~ptrs:[||])
  in
  let nitems = 512 and reads = 64 in
  (* The harness must not allocate per read either: the accumulator is a
     float array (a [float ref] boxes on every [:=]) and the continuation
     closure is hoisted out of the read loop. *)
  let acc = Array.make 1 0. in
  let k ctx view =
    Dpa.Runtime.charge ctx 100;
    acc.(0) <-
      acc.(0) +. Dpa_heap.Heap.view_float (Dpa.Runtime.heaps ctx) view 0
  in
  let run () =
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
    let items _node =
      Array.init nitems (fun item ->
          fun ctx ->
            for r = 0 to reads - 1 do
              let h = (item * 104729) + (r * 1299721) in
              Dpa.Runtime.read ctx ptrs.(h mod nobjs) k
            done)
    in
    ignore
      (Dpa.Runtime.run_phase ~engine ~heaps
         ~config:(Dpa.Config.dpa ~strip_size:16 ())
         ~items);
    acc.(0)
  in
  ignore (run ());
  (* warm: module init, first-phase growth *)
  let w0 = Gc.allocated_bytes () in
  let s = run () in
  let w1 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity s);
  let total_reads = nitems * reads in
  let per_read = (w1 -. w0) /. 8. /. float_of_int total_reads in
  let bound = 4.0 in
  if per_read > bound then
    fail
      "strip hot path allocates %.2f words per local read (bound %.1f): the \
       allocation-free contract is broken"
      per_read bound;
  Printf.printf
    "scale_check: strip hot path allocates %.2f words per local read (bound \
     %.1f) over %d reads\n"
    per_read bound total_reads

(* Remote reads, measured by difference so the phase's fixed costs (ctx
   setup, requests, replies, strip boundaries) cancel: two runs of the
   same phase that differ only in [extra] reads per item, all of them
   align hits (a thread woken by its reply re-reads its pointer, which D
   now holds) or all merges (a second pass over pointers the strip has
   already requested). The difference per extra read is that read's cost
   plus its dispatch: D and M allocate nothing once warm, except the cons
   cell (3 words) that records a merged thread, and neither do dispatch
   and the continuation. *)
let check_remote () =
  let nnodes = 2 and nobjs = 1024 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nobjs (fun slot ->
        Dpa_heap.Heap.alloc heaps.(1)
          ~floats:[| float_of_int slot |]
          ~ptrs:[||])
  in
  (* A long poll quantum: the scheduler's per-quantum event and closures
     would otherwise add ~0.5 words to each read, hiding what the read
     itself allocates. *)
  let machine =
    Dpa_sim.Machine.make ~poll_quantum_ns:10_000_000 ~nodes:nnodes ()
  in
  let nitems = 256 and reads = 16 in
  let k ctx _view = Dpa.Runtime.charge ctx 100 in
  let rereads = ref 0 in
  let k_reread ctx view =
    for _ = 1 to !rereads do
      Dpa.Runtime.read ctx view k
    done
  in
  let run ~hits ~passes =
    rereads := hits;
    let engine = Dpa_sim.Engine.create machine in
    let items node =
      if node <> 0 then [||]
      else
        Array.init nitems (fun item ->
            fun ctx ->
              for _ = 1 to passes do
                for r = 0 to reads - 1 do
                  let h = ((item / 16) * 7919) + (r * 104729) in
                  Dpa.Runtime.read ctx ptrs.(h mod nobjs) k_reread
                done
              done)
    in
    let w0 = Gc.minor_words () in
    let _, stats =
      Dpa.Runtime.run_phase ~engine ~heaps
        ~config:(Dpa.Config.dpa ~strip_size:16 ())
        ~items
    in
    let w1 = Gc.minor_words () in
    (w1 -. w0, stats)
  in
  ignore (run ~hits:1 ~passes:1);
  let per_extra ~what ~count base more =
    let wb, sb = base () in
    let wm, sm = more () in
    let extra = count sm - count sb in
    if extra <= 0 then fail "%s: the larger run made no extra reads" what;
    (wm -. wb) /. float_of_int extra
  in
  let hit =
    per_extra ~what:"align hits"
      ~count:(fun s -> s.Dpa.Dpa_stats.align_hits)
      (fun () -> run ~hits:4 ~passes:1)
      (fun () -> run ~hits:8 ~passes:1)
  in
  let merge =
    per_extra ~what:"merged reads"
      ~count:(fun s -> s.Dpa.Dpa_stats.merge_hits)
      (fun () -> run ~hits:0 ~passes:1)
      (fun () -> run ~hits:0 ~passes:2)
  in
  (* Any allocation made per read is at least one 2-word block, so a
     tenth of a word per read leaves room for growth of the ready ring
     and nothing else. *)
  let hit_bound = 0.1 and merge_bound = 3.1 in
  if hit > hit_bound then
    fail
      "an align-hit read allocates %.2f words (bound %.1f): D's lookup \
       allocates"
      hit hit_bound;
  if merge > merge_bound then
    fail
      "a merged read allocates %.2f words (bound %.1f: its 3-word waiter \
       cell): M's lookup allocates"
      merge merge_bound;
  Printf.printf
    "scale_check: an align-hit read allocates %.4f words (bound %.1f), a \
     merged read %.4f (bound %.1f)\n"
    hit hit_bound merge merge_bound

let () =
  (match Sys.argv with
  | [| _; path |] -> check_json path
  | _ -> fail "usage: scale_check BENCH_scale.json");
  check_hot_path ();
  check_remote ()
