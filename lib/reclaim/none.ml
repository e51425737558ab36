(** The paper's "Original" baseline: no memory reclamation at all.

    Retired nodes leak.  This is the upper bound on data-structure
    performance — every scheme's overhead is measured against it. *)

open St_htm

module Hooks = struct
  type t = { rt : Guard.runtime; stats : Guard.stats }
  type thread = t

  let runtime t = t.rt
  let stats t = t.stats
  let create_thread t ~tid:_ = t
  let on_begin _ ~op_id:_ = ()
  let on_end _ = ()
  let protected_read th ~slot:_ addr = Tsx.nt_read th.rt.Guard.tsx addr
  let release _ ~slot:_ = ()
  let protect_value _ ~slot:_ _ = ()
  let alloc th ~size = Tsx.alloc th.rt.Guard.tsx ~size
  let retire th addr = Guard.retire th.rt th.stats ~pending:0 addr
  let quiesce _ = ()
  let write th addr v = Tsx.nt_write th.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let create rt = { Hooks.rt; stats = Guard.make_stats () }
