(** The paper's "Original" baseline: no memory reclamation at all.

    Retired nodes leak.  This is the upper bound on data-structure
    performance — every scheme's overhead is measured against it.

    Hook contract: [retire] calls [Guard.retire ~pending:0] and nothing
    else; [Guard.free] is never called, so the lifecycle ledger reports a
    monotonically growing limbo backlog and the stalled-reclamation
    watchdog flags one permanently ongoing incident — the correct reading
    of a leak-everything baseline. *)

include Guard.S

val create : Guard.runtime -> t
