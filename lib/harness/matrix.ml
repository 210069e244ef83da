open Dpa_sim

type schedule = string * (int -> string) option

let off = ("off", None)
let fixed label spec = (label, Some (fun _ -> spec))
let derived label f = (label, Some f)

let crash_window elapsed =
  Printf.sprintf "crashes=1,crash-ns=%d,horizon-ns=%d"
    (max 1_000 (elapsed / 8))
    (max 1_000 (elapsed / 2))

type ('r, 'm) config = {
  name : string;
  run : Fault.spec option -> 'r * 'm;
  schedules : schedule list;
}

type ('r, 'm) workload = { label : string; configs : ('r, 'm) config list }

let workload label run schedules =
  { label; configs = [ { name = ""; run; schedules } ] }

type 'm cell = { config : string; schedule : string; m : 'm; identical : bool }
type 'm row = { workload : string; cells : 'm cell list }

let run ~name ~elapsed_ns workloads =
  List.map
    (fun w ->
      match w.configs with
      | [] -> { workload = w.label; cells = [] }
      | first :: _ ->
        let reference, ref_m = first.run None in
        let elapsed = elapsed_ns ref_m in
        let parse f =
          match Fault.spec_of_string (f elapsed) with
          | Ok s -> s
          | Error msg -> invalid_arg (name ^ ": " ^ msg)
        in
        let specs =
          List.fold_left
            (fun acc (label, spec) ->
              if List.mem_assoc label acc then acc
              else (label, Option.map parse spec) :: acc)
            []
            (List.concat_map (fun c -> c.schedules) w.configs)
        in
        let cell c (label, _) =
          match List.assoc label specs with
          | None when c == first ->
            { config = c.name; schedule = label; m = ref_m; identical = true }
          | faults ->
            let r, m = c.run faults in
            { config = c.name; schedule = label; m; identical = r = reference }
        in
        {
          workload = w.label;
          cells =
            List.concat_map (fun c -> List.map (cell c) c.schedules) w.configs;
        })
    workloads

let engine machine =
  let e = Engine.create machine in
  if machine.Machine.faults = None then Engine.set_fault e None;
  e

let sum f rows =
  List.fold_left
    (fun a r -> List.fold_left (fun a c -> a + f c) a r.cells)
    0 rows

let diverged rows = sum (fun c -> if c.identical then 0 else 1) rows

type 'm column = {
  header : string;
  key : string;
  text : 'm cell -> string;
  value : 'm cell -> Dpa_obs.Json.t;
}

let label header key f =
  { header; key; text = f; value = (fun c -> Dpa_obs.Json.Str (f c)) }

let config_label header = label header "config" (fun c -> c.config)
let schedule_label header = label header "schedule" (fun c -> c.schedule)

let int header key f =
  {
    header;
    key;
    text = (fun c -> string_of_int (f c.m));
    value = (fun c -> Dpa_obs.Json.Int (f c.m));
  }

let float header key text f =
  {
    header;
    key;
    text = (fun c -> text (f c.m));
    value = (fun c -> Dpa_obs.Json.Float (f c.m));
  }

let result header =
  {
    header;
    key = "bit_identical";
    text = (fun c -> if c.identical then "bit-identical" else "DIVERGED");
    value = (fun c -> Dpa_obs.Json.Bool c.identical);
  }

let render columns rows =
  String.concat ""
    (List.map
       (fun r ->
         let t =
           Table.make ~header:(List.map (fun col -> col.header) columns)
         in
         List.iter
           (fun c -> Table.add_row t (List.map (fun col -> col.text c) columns))
           r.cells;
         r.workload ^ "\n" ^ Table.render t ^ "\n")
       rows)

let json columns rows =
  Dpa_obs.Json.Obj
    [
      ( "rows",
        Dpa_obs.Json.List
          (List.map
             (fun r ->
               Dpa_obs.Json.Obj
                 [
                   ("workload", Dpa_obs.Json.Str r.workload);
                   ( "cells",
                     Dpa_obs.Json.List
                       (List.map
                          (fun c ->
                            Dpa_obs.Json.Obj
                              (List.map
                                 (fun col -> (col.key, col.value c))
                                 columns))
                          r.cells) );
                 ])
             rows) );
    ]
