(** Deliberately unsafe scheme: frees a node the instant it is retired.

    Under concurrency this is incorrect — other threads may still hold
    references — and its purpose is to prove that the shadow checker
    actually catches unsafe reclamation (so a clean run of the safe schemes
    means something). *)

open St_htm

module Hooks = struct
  type t = { rt : Guard.runtime; stats : Guard.stats; eager : Guard.pass }
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

  let retire th addr =
    Guard.retire th.rt th.stats ~pending:0 addr;
    Guard.free th.eager addr

  let quiesce _ = ()
  let write th addr v = Tsx.nt_write th.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let create rt =
  let stats = Guard.make_stats () in
  { Hooks.rt; stats; eager = Guard.eager rt stats }
