(** Lock-free reference counting (Valois 1995; Detlefs et al. 2002;
    Gidenstam et al. 2009) — the paper's third scheme category.

    Every node carries a count of incoming references: links stored in the
    data structure plus transient per-thread references.  Stores of pointer
    fields adjust the counts of the old and new targets; traversals bump
    the count of every node visited.  A node is freed when it is retired
    (unlinked) and its count reaches zero.

    The count updates require atomicity between loading a pointer and
    incrementing its target's count; real implementations need DCAS or
    equivalent, which is exactly why the paper dismisses the approach as
    the slowest.  The simulator grants the atomicity (load + increment
    happen in one scheduler step) and charges the DCAS-equivalent cycle
    cost, so the scheme is safe here and costed honestly: one atomic RMW
    per node visited on top of the read, and two per pointer store.

    Hook contract: [retire] calls [Guard.retire ~pending:0] and
    [Guard.free]s at once when the count is already zero; otherwise
    whichever decrement drops the count to zero calls [Guard.free].  Both
    free outside a pass, with the scheme's [Guard.eager] capability. *)

open St_mem

include Guard.S

val create : Guard.runtime -> t

val note_initial_link : t -> Word.value -> unit
(** Report one pre-population link created through raw heap writes, so
    link counts start consistent.  Without this, an unlink of a
    pre-populated edge would steal a traversing thread's reference. *)
