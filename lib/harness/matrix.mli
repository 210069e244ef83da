(** Fault matrices: workloads × fault schedules, each cell checked bit for
    bit against the workload's fault-free reference run.

    A workload runs one phase under an optional fault plan and returns its
    result (the bit-identity witness) and a measurement. {!run} executes
    every workload's reference once, parses each schedule's spec once, runs
    the remaining cells and compares each result to the reference with
    structural equality; {!render} and {!json} show the cells through one
    column list. *)

type schedule
(** A labelled fault schedule. *)

val off : schedule
(** ["off"]: no fault plan at all (the perfect network, reliable-delivery
    protocol disabled). *)

val fixed : string -> string -> schedule
(** [fixed label spec]: a {!Dpa_sim.Fault.spec_of_string} spec. *)

val derived : string -> (int -> string) -> schedule
(** [derived label f]: the spec [f elapsed_ns], from the fault-free
    reference run's duration — workload phase lengths differ by orders of
    magnitude, so crash windows must scale with each. *)

val crash_window : int -> string
(** [crash_window elapsed_ns]: one crash per node, drawn inside the first
    half of the reference duration, with a restart delay of an eighth of
    it — long enough that peers retransmit into the fence, short enough
    that the phase completes. *)

type ('r, 'm) config = {
  name : string;  (** shown by a {!config_label} column *)
  run : Dpa_sim.Fault.spec option -> 'r * 'm;
  schedules : schedule list;
}

type ('r, 'm) workload = {
  label : string;  (** printed above the workload's table *)
  configs : ('r, 'm) config list;
      (** the first config's fault-free run is the reference every cell
          of the workload is compared against; its {!off} cell reuses it *)
}

val workload :
  string ->
  (Dpa_sim.Fault.spec option -> 'r * 'm) ->
  schedule list ->
  ('r, 'm) workload
(** A workload with a single unnamed config. *)

type 'm cell = {
  config : string;
  schedule : string;
  m : 'm;
  identical : bool;  (** result bit-identical to the reference *)
}

type 'm row = { workload : string; cells : 'm cell list }

val run :
  name:string -> elapsed_ns:('m -> int) -> ('r, 'm) workload list -> 'm row list
(** Run every cell. [elapsed_ns] reads a reference measurement's duration
    for {!derived} schedules; within a workload a schedule is known by its
    label, and its spec is parsed once. Raises
    [Invalid_argument "name: reason"] for an unparsable spec. *)

val engine : Dpa_sim.Machine.t -> Dpa_sim.Engine.t
(** An engine whose fault plan is exactly the machine's: a matrix owns its
    schedules, so a process-global [--faults] default must not leak into
    the reference or the {!off} cells via {!Dpa_sim.Engine.create}'s
    fallback. *)

val sum : ('m cell -> int) -> 'm row list -> int
(** Fold a per-cell count over every cell, for summary lines. *)

val diverged : 'm row list -> int
(** Cells whose result differs from their workload's reference. *)

type 'm column

val config_label : string -> 'm column
(** The cell's config (JSON ["config"]). *)

val schedule_label : string -> 'm column
(** The cell's schedule label (JSON ["schedule"]). *)

val int : string -> string -> ('m -> int) -> 'm column
(** [int header key f]. *)

val float : string -> string -> (float -> string) -> ('m -> float) -> 'm column
(** [float header key text f]: [text] renders the table entry; JSON carries
    the value. *)

val result : string -> 'm column
(** ["bit-identical"] or ["DIVERGED"] (JSON ["bit_identical"]). *)

val render : 'm column list -> 'm row list -> string
(** Each workload's label, then its table, then a blank line. *)

val json : 'm column list -> 'm row list -> Dpa_obs.Json.t
(** [{"rows": [{"workload": label, "cells": [{key: value, ...}]}]}]. *)
