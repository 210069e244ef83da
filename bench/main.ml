(* Bechamel micro-benchmarks: one Test.make per paper artifact, measuring
   the host-side cost of the kernel that experiment exercises. These are
   real micro-benchmarks of this library (simulator, runtime, math
   kernels), not of the simulated machine; `bin/dpa_bench` regenerates the
   artifacts themselves. *)

open Bechamel
open Toolkit

(* --- kernels ----------------------------------------------------------- *)

(* T2 and F1: a complete small Barnes-Hut force phase under [variant]. *)
let bh_phase variant =
  let bodies = Dpa_bh.Plummer.generate ~n:256 ~seed:7 in
  let octree = Dpa_bh.Octree.build bodies in
  let tree = Dpa_bh.Bh_global.distribute octree ~nnodes:4 in
  fun () ->
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:4) in
    Sys.opaque_identity
      (Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
         ~params:Dpa_bh.Bh_force.default_params variant)

(* T3: a complete small FMM DPA force phase. *)
let fmm_phase () =
  let params = { Dpa_fmm.Fmm_force.default_params with Dpa_fmm.Fmm_force.p = 8 } in
  fun () ->
    Sys.opaque_identity
      (Dpa_fmm.Fmm_run.run ~params ~nnodes:4 ~nparticles:256 ~seed:7
         (Dpa_baselines.Variant.dpa ~strip_size:25 ()))

(* F2: the 29-term M2L translation, the hot kernel of the FMM phase. *)
let m2l_kernel () =
  let sources = [ (0.7, { Complex.re = 0.1; im = 0.05 }) ] in
  let a = Dpa_fmm.Expansion.p2m ~p:29 ~center:Complex.zero sources in
  let to_center = { Complex.re = 3.0; im = 1.0 } in
  fun () ->
    Sys.opaque_identity
      (Dpa_fmm.Expansion.m2l a ~from_center:Complex.zero ~to_center)

(* F3: the DPA scheduler on a synthetic strip-mined pointer workload. *)
let scheduler_phase () =
  let nnodes = 4 and nobjs = 64 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node ->
        Array.init nobjs (fun slot ->
            Dpa_heap.Heap.alloc heaps.(node)
              ~floats:[| float_of_int slot |]
              ~ptrs:[||]))
  in
  fun () ->
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
    let items node =
      Array.init 32 (fun item ->
          fun ctx ->
            for r = 0 to 7 do
              let h = (node * 7919) + (item * 104729) + (r * 1299721) in
              Dpa.Runtime.read ctx ptrs.(h mod nnodes).((h / 31) mod nobjs)
                (fun ctx _ -> Dpa.Runtime.charge ctx 100)
            done)
    in
    Sys.opaque_identity
      (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items)

(* F4: the discrete-event core — post/pop through the event queue. *)
let event_queue_kernel () =
  fun () ->
    let q = Dpa_sim.Event_queue.create () in
    for i = 0 to 999 do
      Dpa_sim.Event_queue.add q ~time:((i * 7919) land 0xffff) i
    done;
    let rec drain acc =
      match Dpa_sim.Event_queue.pop q with
      | None -> acc
      | Some (_, x) -> drain (acc + x)
    in
    Sys.opaque_identity (drain 0)

(* A1: the request aggregator. *)
let aggregator_kernel () =
  fun () ->
    let sink = ref 0 in
    let agg =
      Dpa_msg.Aggregator.create ~ndest:8 ~max_batch:16 ~flush:(fun ~dst:_ reqs ->
          sink := !sink + List.length reqs)
    in
    for i = 0 to 999 do
      Dpa_msg.Aggregator.add agg ~dst:(i land 7) i
    done;
    Dpa_msg.Aggregator.flush_all agg;
    Sys.opaque_identity !sink

(* A2: the LRU cache of the caching baseline. *)
module Lru = Dpa_util.Lru.Make (Dpa_heap.Gptr.Tbl)

let lru_kernel () =
  fun () ->
    let c = Lru.create ~capacity:128 in
    for i = 0 to 999 do
      let p = Dpa_heap.Gptr.make ~node:0 ~slot:(i land 255) in
      match Lru.find c p with
      | Some _ -> ()
      | None -> Lru.add c p i
    done;
    Sys.opaque_identity (Lru.size c)

(* T1: the partitioning analysis of the mini compiler. *)
let partition_kernel () =
  fun () ->
    Sys.opaque_identity
      ( Dpa_compiler.Partition.total_static_threads Dpa_compiler.Programs.list_sum,
        Dpa_compiler.Partition.total_static_threads Dpa_compiler.Programs.tree_sum,
        Dpa_compiler.Partition.total_static_threads Dpa_compiler.Programs.pair_sum )

(* A5: one EM3D update phase. *)
let em3d_kernel () =
  let g =
    Dpa_compiler.Em3d.build ~nnodes:4 ~e_per_node:16 ~h_per_node:16 ~degree:8
      ~remote_frac:0.25 ~seed:3
  in
  fun () ->
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:4) in
    Sys.opaque_identity
      (Dpa.Runtime.run_phase ~engine ~heaps:g.Dpa_compiler.Em3d.heaps
         ~config:(Dpa.Config.dpa ())
         ~items:
           (Dpa_compiler.Em3d.items (module Dpa.Runtime) g ~accum:(fun _ -> ())))

(* A7: the combining update buffer. *)
let update_buffer_kernel () =
  fun () ->
    let sink = ref 0 in
    let b =
      Dpa.Update_buffer.create ~ndest:4 ~combine:true ~max_batch:32
        ~flush:(fun ~dst:_ batch -> sink := !sink + List.length batch)
        ()
    in
    for i = 0 to 999 do
      Dpa.Update_buffer.add b ~dst:(i land 3)
        (Dpa_heap.Gptr.make ~node:0 ~slot:(i land 63))
        ~idx:(i land 7) 1.0
    done;
    Dpa.Update_buffer.flush_all b;
    Sys.opaque_identity !sink

(* A8: the adaptive dual tree walk (sequential kernel). *)
let afmm_kernel () =
  let parts = Dpa_fmm.Particle2d.clustered ~n:256 ~seed:5 ~clusters:3 in
  let tree = Dpa_fmm.Aquadtree.build parts in
  fun () -> Sys.opaque_identity (Dpa_fmm.Afmm_seq.compute ~p:6 tree)

(* A9: the cache model. *)
let dcache_kernel () =
  fun () ->
    let c = Dpa_sim.Dcache.create ~lines:256 () in
    for i = 0 to 4095 do
      ignore (Dpa_sim.Dcache.access c ((i * 7919) land 1023))
    done;
    Sys.opaque_identity (Dpa_sim.Dcache.miss_rate c)

(* timeline: trace recording overhead. *)
let trace_kernel () =
  fun () ->
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:2) in
    let trace = Dpa_sim.Trace.attach engine in
    for _ = 1 to 500 do
      Dpa_sim.Node.charge_local (Dpa_sim.Engine.node engine 0) 10;
      Dpa_sim.Node.charge_comm (Dpa_sim.Engine.node engine 1) 10
    done;
    Dpa_sim.Trace.detach trace;
    Sys.opaque_identity (Dpa_sim.Trace.nsegments trace)

let tests =
  [
    Test.make ~name:"t1-partition-analysis" (Staged.stage (partition_kernel ()));
    Test.make ~name:"t2-bh-dpa-phase"
      (Staged.stage (bh_phase (Dpa_baselines.Variant.dpa ~strip_size:25 ())));
    Test.make ~name:"t3-fmm-dpa-phase" (Staged.stage (fmm_phase ()));
    Test.make ~name:"f1-bh-caching-phase"
      (Staged.stage
         (bh_phase (Dpa_baselines.Variant.Caching { capacity = 512 })));
    Test.make ~name:"f2-m2l-p29" (Staged.stage (m2l_kernel ()));
    Test.make ~name:"f3-dpa-scheduler" (Staged.stage (scheduler_phase ()));
    Test.make ~name:"f4-event-queue-1k" (Staged.stage (event_queue_kernel ()));
    Test.make ~name:"a1-aggregator-1k" (Staged.stage (aggregator_kernel ()));
    Test.make ~name:"a2-lru-1k" (Staged.stage (lru_kernel ()));
    Test.make ~name:"a5-em3d-phase" (Staged.stage (em3d_kernel ()));
    Test.make ~name:"a7-update-buffer-1k" (Staged.stage (update_buffer_kernel ()));
    Test.make ~name:"a8-adaptive-walk" (Staged.stage (afmm_kernel ()));
    Test.make ~name:"a9-dcache-4k" (Staged.stage (dcache_kernel ()));
    Test.make ~name:"timeline-trace-1k" (Staged.stage (trace_kernel ()));
  ]

let () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  print_endline "Bechamel micro-benchmarks (host time per kernel run):";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-24s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests;
  print_newline ()
