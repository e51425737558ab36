(** Deliberately unsafe scheme: frees a node the instant it is retired.

    Under concurrency this is incorrect — other threads may still hold
    references — and its purpose is to prove that the shadow checker
    actually catches unsafe reclamation (so a clean run of the safe schemes
    means something).

    Hook contract: [retire] calls [Guard.retire ~pending:0], then
    [Guard.free] on the spot, with the scheme's [Guard.eager] capability —
    so its retire→free lag is the floor every safe scheme is measured
    against. *)

include Guard.S

val create : Guard.runtime -> t
