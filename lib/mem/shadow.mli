(** Shadow-state checker for the simulated heap.

    Records memory-safety violations: use-after-free reads and writes, double
    frees, and frees of addresses that are not live object bases.  Safe
    reclamation schemes must produce zero violations under any schedule; the
    deliberately unsafe [Immediate] scheme exists to prove this checker
    fires.  Violations are counted and the first few are kept with full
    detail for diagnostics. *)

type kind = Read_after_free | Write_after_free | Double_free | Bad_free

type violation = { kind : kind; addr : Word.addr; tid : int }

type t

val create : ?strict:bool -> unit -> t
(** With [strict = true] (default [false]) every violation raises
    {!Violation} instead of only being recorded. *)

exception Violation of violation

val record : t -> kind -> addr:Word.addr -> tid:int -> unit
val count : t -> int
val count_kind : t -> kind -> int
val first : t -> violation list
(** Up to the first 16 violations, in order of occurrence. *)

val pp_violation : Format.formatter -> violation -> unit
