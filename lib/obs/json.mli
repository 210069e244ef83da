(** Minimal JSON values: enough to serialize traces and metrics and to
    validate emitted artifacts in tests without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Strings are escaped per RFC 8259; non-finite floats
    render as [null]. *)

val to_buffer : Buffer.t -> t -> unit

(** The scalar printers {!to_buffer} uses, for encoders that write JSON
    straight into a buffer without building a {!t}: each appends exactly
    the bytes {!to_buffer} would for the matching constructor. *)

val escape_to : Buffer.t -> string -> unit
(** A quoted string literal ([Str]). *)

val int_to : Buffer.t -> int -> unit
(** A decimal integer ([Int]). *)

val float_to : Buffer.t -> float -> unit
(** A float ([Float]): [%.12g], with [.0] appended to whole values and
    [null] for nan and infinities. *)

val parse : string -> (t, string) result
(** Strict recursive-descent parser for the values {!to_string} produces
    (and general RFC 8259 input). Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks a field up; [None] on other constructors. *)
