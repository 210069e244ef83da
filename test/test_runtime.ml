open Dpa_sim

let machine nodes = Machine.t3d ~nodes

let run_dpa ?(nnodes = 4) ?(nobjs = 32) ?(nitems = 20) ?(reads = 8)
    ?(config = Dpa.Config.dpa ()) () =
  let w = Workload.make ~nnodes ~nobjs in
  let engine = Engine.create (machine nnodes) in
  let sums = Array.make nnodes 0. in
  let items =
    Workload.items (module Dpa.Runtime) w ~nitems ~reads ~work_ns:200 sums
  in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps ~config ~items
  in
  (w, sums, breakdown, stats)

let check_sums w sums ~nitems ~reads =
  Array.iteri
    (fun node got ->
      let want = Workload.expected_sum w ~node ~nitems ~reads in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "node %d sum" node) want got)
    sums

let test_dpa_correct_sums () =
  let w, sums, _, _ = run_dpa () in
  check_sums w sums ~nitems:20 ~reads:8

let test_dpa_correct_sums_one_node () =
  let w, sums, _, stats = run_dpa ~nnodes:1 () in
  check_sums w sums ~nitems:20 ~reads:8;
  Alcotest.(check int) "all reads local" (20 * 8)
    stats.Dpa.Dpa_stats.inline_local;
  Alcotest.(check int) "no messages" 0 stats.Dpa.Dpa_stats.request_msgs

let test_dpa_read_accounting () =
  let nitems = 20 and reads = 8 and nnodes = 4 in
  let _, _, _, stats = run_dpa ~nnodes ~nitems ~reads () in
  Alcotest.(check int) "every read accounted" (nnodes * nitems * reads)
    (Dpa.Dpa_stats.total_reads stats)

let test_dpa_strip_count () =
  let _, _, _, stats =
    run_dpa ~nitems:20 ~config:(Dpa.Config.dpa ~strip_size:7 ()) ()
  in
  (* ceil(20/7) = 3 strips per node, 4 nodes *)
  Alcotest.(check int) "strips" 12 stats.Dpa.Dpa_stats.strips

let test_dpa_reuse_reduces_fetches () =
  let _, _, _, full = run_dpa ~config:(Dpa.Config.dpa ~strip_size:50 ()) () in
  let _, _, _, noreuse =
    run_dpa ~config:(Dpa.Config.pipeline_aggregate ~strip_size:50 ()) ()
  in
  Alcotest.(check bool) "reuse fetches fewer objects" true
    (full.Dpa.Dpa_stats.spawns < noreuse.Dpa.Dpa_stats.spawns);
  Alcotest.(check bool) "reuse has hits" true
    (full.Dpa.Dpa_stats.align_hits + full.Dpa.Dpa_stats.merge_hits > 0);
  Alcotest.(check int) "no reuse has no hits" 0
    (noreuse.Dpa.Dpa_stats.align_hits + noreuse.Dpa.Dpa_stats.merge_hits)

let test_dpa_aggregation_reduces_messages () =
  let _, _, _, agg =
    run_dpa ~config:(Dpa.Config.pipeline_aggregate ~agg_max:64 ()) ()
  in
  let _, _, _, noagg = run_dpa ~config:(Dpa.Config.pipeline_only ()) () in
  Alcotest.(check bool) "fewer messages with aggregation" true
    (agg.Dpa.Dpa_stats.request_msgs < noagg.Dpa.Dpa_stats.request_msgs);
  Alcotest.(check int) "pipeline-only batches are singletons" 1
    noagg.Dpa.Dpa_stats.max_batch

let test_dpa_outstanding_bounded_by_strip () =
  let strip = 5 and reads = 8 in
  let _, _, _, stats =
    run_dpa ~config:(Dpa.Config.dpa ~strip_size:strip ()) ~reads ()
  in
  Alcotest.(check bool) "outstanding <= strip * reads" true
    (stats.Dpa.Dpa_stats.max_outstanding <= strip * reads)

let test_dpa_deterministic () =
  let _, _, b1, _ = run_dpa () in
  let _, _, b2, _ = run_dpa () in
  Alcotest.(check int) "same elapsed" b1.Breakdown.elapsed_ns
    b2.Breakdown.elapsed_ns;
  Alcotest.(check int) "same msgs" b1.Breakdown.msgs b2.Breakdown.msgs

let test_dpa_strip_size_one_works () =
  let w, sums, _, _ = run_dpa ~config:(Dpa.Config.dpa ~strip_size:1 ()) () in
  check_sums w sums ~nitems:20 ~reads:8

let test_dpa_empty_items () =
  let w = Workload.make ~nnodes:3 ~nobjs:4 in
  let engine = Engine.create (machine 3) in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
      ~config:(Dpa.Config.dpa ())
      ~items:(fun _ -> [||])
  in
  Alcotest.(check int) "no elapsed" 0 breakdown.Breakdown.elapsed_ns;
  Alcotest.(check int) "no reads" 0 (Dpa.Dpa_stats.total_reads stats)

let test_dpa_rejects_nil () =
  let w = Workload.make ~nnodes:2 ~nobjs:2 in
  let engine = Engine.create (machine 2) in
  let raised = ref false in
  (try
     ignore
       (Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
          ~config:(Dpa.Config.dpa ())
          ~items:(fun node ->
            if node = 0 then
              [| (fun ctx -> Dpa.Runtime.read ctx Dpa_heap.Gptr.nil (fun _ _ -> ())) |]
            else [||]))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "nil read rejected" true !raised

let test_pointer_map_reuse_merges () =
  let m = Dpa.Pointer_map.create () in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:0 in
  (match Dpa.Pointer_map.register m ~reuse:true p "a" with
  | `New_request _ -> ()
  | `Merged -> Alcotest.fail "first should request");
  (match Dpa.Pointer_map.register m ~reuse:true p "b" with
  | `Merged -> ()
  | `New_request _ -> Alcotest.fail "second should merge");
  Alcotest.(check int) "one token" 1 (Dpa.Pointer_map.outstanding m);
  Alcotest.(check int) "two waiters" 2 (Dpa.Pointer_map.waiters m)

let test_pointer_map_take_order () =
  let m = Dpa.Pointer_map.create () in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:1 in
  let token =
    match Dpa.Pointer_map.register m ~reuse:true p "a" with
    | `New_request t -> t
    | `Merged -> Alcotest.fail "unexpected merge"
  in
  ignore (Dpa.Pointer_map.register m ~reuse:true p "b");
  ignore (Dpa.Pointer_map.register m ~reuse:true p "c");
  let ptr, ks = Dpa.Pointer_map.take m token in
  Alcotest.(check bool) "ptr matches" true (Dpa_heap.Gptr.equal p ptr);
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ] ks;
  Alcotest.(check bool) "empty after take" true (Dpa.Pointer_map.is_empty m);
  (* A new registration after take must issue a fresh request. *)
  match Dpa.Pointer_map.register m ~reuse:true p "d" with
  | `New_request _ -> ()
  | `Merged -> Alcotest.fail "should re-request after take"

let test_pointer_map_no_reuse_never_merges () =
  let m = Dpa.Pointer_map.create () in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:2 in
  for _ = 1 to 5 do
    match Dpa.Pointer_map.register m ~reuse:false p () with
    | `New_request _ -> ()
    | `Merged -> Alcotest.fail "must not merge without reuse"
  done;
  Alcotest.(check int) "five tokens" 5 (Dpa.Pointer_map.outstanding m)

let qcheck_pointer_map_one_request_per_pointer =
  QCheck.Test.make ~name:"M has at most one outstanding token per pointer"
    ~count:200
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 5)))
    (fun regs ->
      let m = Dpa.Pointer_map.create () in
      let requests = Hashtbl.create 16 in
      List.iter
        (fun (node, slot) ->
          let p = Dpa_heap.Gptr.make ~node ~slot in
          match Dpa.Pointer_map.register m ~reuse:true p () with
          | `New_request _ ->
            if Hashtbl.mem requests (node, slot) then
              failwith "duplicate request"
            else Hashtbl.replace requests (node, slot) ()
          | `Merged ->
            if not (Hashtbl.mem requests (node, slot)) then
              failwith "merged without request"
        )
        regs;
      true)

(* M against a list model, with reuse on and off: tokens resolve to their
   pointer and to their threads in registration order by every consuming
   path ([take], [take_opt], [take_into]), an unknown token gives [None]
   or [nil], and the counters and the outstanding set match after every
   step. *)
type map_op =
  | Register of int  (* pointer index *)
  | Take of int  (* token choice: an outstanding token, or an unknown one *)
  | Take_opt of int
  | Take_into of int
  | Clear_map

let map_ptrs =
  Array.init 9 (fun i -> Dpa_heap.Gptr.make ~node:(i mod 3) ~slot:(i / 3))

let gen_map_op =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun i -> Register i) (int_range 0 8));
        (2, map (fun i -> Take i) (int_range (-1) 20));
        (2, map (fun i -> Take_opt i) (int_range (-1) 20));
        (3, map (fun i -> Take_into i) (int_range (-1) 20));
        (1, return Clear_map);
      ])

let show_map_op = function
  | Register i -> Printf.sprintf "register %d" i
  | Take i -> Printf.sprintf "take %d" i
  | Take_opt i -> Printf.sprintf "take_opt %d" i
  | Take_into i -> Printf.sprintf "take_into %d" i
  | Clear_map -> "clear"

let qcheck_pointer_map_model ~reuse =
  QCheck.Test.make
    ~name:(Printf.sprintf "M agrees with a list model (reuse %b)" reuse)
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_map_op ops))
       QCheck.Gen.(list_size (int_range 0 60) gen_map_op))
    (fun ops ->
      let module M = Dpa.Pointer_map in
      let m = M.create () in
      let ring = Dpa.Ready_ring.create ~dummy:(-1) in
      (* token -> (pointer, threads in registration order), newest first *)
      let model = ref [] in
      let next_thread = ref 0 in
      let pick i =
        match !model with
        | [] -> 10_000
        | l ->
          if i < 0 then 10_000 + i
          else fst (List.nth l (i mod List.length l))
      in
      let expect token =
        match List.assoc_opt token !model with
        | None -> None
        | Some r ->
          model := List.remove_assoc token !model;
          Some r
      in
      let drain () =
        let out = ref [] in
        while not (Dpa.Ready_ring.is_empty ring) do
          out :=
            (Dpa.Ready_ring.head_ptr ring, Dpa.Ready_ring.head_k ring) :: !out;
          Dpa.Ready_ring.drop ring
        done;
        List.rev !out
      in
      let agree () =
        let outstanding =
          List.sort compare
            (M.fold_outstanding m (fun tok p acc -> (tok, p) :: acc) [])
        in
        let expected =
          List.sort compare (List.map (fun (tok, (p, _)) -> (tok, p)) !model)
        in
        M.outstanding m = List.length !model
        && M.is_empty m = (!model = [])
        && M.waiters m
           = List.fold_left
               (fun acc (_, (_, ks)) -> acc + List.length ks)
               0 !model
        && outstanding = expected
        && List.for_all (fun (tok, (p, _)) -> M.find_ptr m tok = Some p) !model
        && M.find_ptr m 10_000 = None
      in
      List.for_all
        (fun op ->
          (match op with
          | Register i -> (
            let p = map_ptrs.(i) in
            let th = !next_thread in
            incr next_thread;
            let merge_onto =
              if reuse then List.find_opt (fun (_, (q, _)) -> q = p) !model
              else None
            in
            match (M.register m ~reuse p th, merge_onto) with
            | `Merged, Some (tok, (_, ks)) ->
              model := (tok, (p, ks @ [ th ])) :: List.remove_assoc tok !model
            | `New_request tok, None ->
              if List.mem_assoc tok !model then failwith "token reused";
              model := (tok, (p, [ th ])) :: !model
            | `Merged, None -> failwith "merged with nothing outstanding"
            | `New_request _, Some _ -> failwith "requested twice")
          | Take i -> (
            let tok = pick i in
            match (expect tok, M.take m tok) with
            | Some r, got -> if got <> r then failwith "take: wrong result"
            | None, _ -> failwith "take: unknown token resolved"
            | exception Not_found ->
              if List.mem_assoc tok !model then failwith "take: lost token")
          | Take_opt i ->
            let tok = pick i in
            let want = expect tok in
            if M.take_opt m tok <> want then failwith "take_opt: wrong result"
          | Take_into i -> (
            let tok = pick i in
            let want = expect tok in
            let p = M.take_into m tok ring in
            match want with
            | None ->
              if not (Dpa_heap.Gptr.is_nil p) then
                failwith "take_into: unknown token";
              if drain () <> [] then
                failwith "take_into: pushed for unknown token"
            | Some (q, ks) ->
              if p <> q then failwith "take_into: wrong pointer";
              if drain () <> List.map (fun k -> (q, k)) ks then
                failwith "take_into: wrong threads or order")
          | Clear_map ->
            M.clear m;
            model := []);
          agree ())
        ops)

(* The read path's tables allocate nothing once warm: a D lookup or insert
   none, a merged registration only its thread's cons cell. *)
let test_read_path_alloc_ceiling () =
  let words_per_call = Test_fmm.words_per_call in
  let check name ceiling w =
    if w > ceiling then
      Alcotest.failf "%s: %.2f words per call, ceiling %.0f" name w ceiling
  in
  let ptrs =
    Array.init 1024 (fun i -> Dpa_heap.Gptr.make ~node:(i mod 32) ~slot:i)
  in
  let d = Dpa.Align_buffer.create () in
  Array.iter (Dpa.Align_buffer.add d) ptrs;
  Dpa.Align_buffer.clear d;
  let i = ref 0 in
  let next () =
    i := (!i + 1) land 1023;
    ptrs.(!i)
  in
  check "Align_buffer.add" 0.
    (words_per_call ~n:1023 (fun () -> Dpa.Align_buffer.add d (next ())));
  check "Align_buffer.mem" 0.
    (words_per_call ~n:10_000 (fun () -> Dpa.Align_buffer.mem d (next ())));
  let m = Dpa.Pointer_map.create () in
  let k = fun () -> () in
  Array.iter (fun p -> ignore (Dpa.Pointer_map.register m ~reuse:true p k)) ptrs;
  check "merged register" 3.
    (words_per_call ~n:10_000 (fun () ->
         Dpa.Pointer_map.register m ~reuse:true (next ()) k))

let test_align_buffer_strip_clear () =
  let d = Dpa.Align_buffer.create () in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:0 in
  Dpa.Align_buffer.add d p;
  Alcotest.(check bool) "present" true (Dpa.Align_buffer.mem d p);
  Dpa.Align_buffer.clear d;
  Alcotest.(check bool) "cleared" false (Dpa.Align_buffer.mem d p);
  Alcotest.(check int) "peak survives clear" 1 (Dpa.Align_buffer.peak d)

let suites =
  [
    ( "core.pointer_map",
      [
        Alcotest.test_case "reuse merges" `Quick test_pointer_map_reuse_merges;
        Alcotest.test_case "take order" `Quick test_pointer_map_take_order;
        Alcotest.test_case "no-reuse never merges" `Quick
          test_pointer_map_no_reuse_never_merges;
        QCheck_alcotest.to_alcotest qcheck_pointer_map_one_request_per_pointer;
        QCheck_alcotest.to_alcotest (qcheck_pointer_map_model ~reuse:true);
        QCheck_alcotest.to_alcotest (qcheck_pointer_map_model ~reuse:false);
        Alcotest.test_case "read-path allocation ceiling" `Quick
          test_read_path_alloc_ceiling;
      ] );
    ( "core.align_buffer",
      [ Alcotest.test_case "strip clear" `Quick test_align_buffer_strip_clear ] );
    ( "core.runtime",
      [
        Alcotest.test_case "correct sums" `Quick test_dpa_correct_sums;
        Alcotest.test_case "one node all local" `Quick
          test_dpa_correct_sums_one_node;
        Alcotest.test_case "read accounting" `Quick test_dpa_read_accounting;
        Alcotest.test_case "strip count" `Quick test_dpa_strip_count;
        Alcotest.test_case "reuse reduces fetches" `Quick
          test_dpa_reuse_reduces_fetches;
        Alcotest.test_case "aggregation reduces messages" `Quick
          test_dpa_aggregation_reduces_messages;
        Alcotest.test_case "outstanding bounded by strip" `Quick
          test_dpa_outstanding_bounded_by_strip;
        Alcotest.test_case "deterministic" `Quick test_dpa_deterministic;
        Alcotest.test_case "strip size one" `Quick test_dpa_strip_size_one_works;
        Alcotest.test_case "empty items" `Quick test_dpa_empty_items;
        Alcotest.test_case "rejects nil" `Quick test_dpa_rejects_nil;
      ] );
  ]
