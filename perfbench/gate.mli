(** Correctness gate: counts the operations a run attempted and the
    ones that failed.

    An operation is one timed repetition or one probe phase. It fails
    when it raises, when an output invariant does not hold, or when the
    digest of its simulated output differs from the expected one. A
    simulated outcome such as a flow rejected for lack of a path is
    part of the digest, never a failure. *)

type t

val create : unit -> t

val attempted : t -> int
val failed : t -> int

val correct : t -> bool
(** At least one operation attempted and none failed. *)

val problems : t -> string list
(** The first few failure reasons, oldest first. *)

val run : t -> string -> (unit -> 'a) -> 'a option
(** [run t label f] counts one attempted operation and runs [f]. An
    exception counts the operation as failed and yields [None]. *)

val check : t -> bool -> string -> unit
(** [check t ok msg] marks the current operation failed unless [ok].
    An operation is counted failed at most once. *)

val digest : t -> label:string -> expected:string option -> string -> unit
(** [digest t ~label ~expected actual] checks an output digest; with
    [expected = None] (no reference for this seed) it records nothing. *)
