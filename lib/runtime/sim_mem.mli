(** The simulated {!Cfc_base.Mem_intf.MEM} backend.

    Allocation goes directly to a {!Memory.t} arena (algorithm creation
    happens outside process execution); every access performs an effect
    handled by the scheduler, so the scheduler fully controls interleaving
    and records every step. *)

val mem : Memory.t -> Cfc_base.Mem_intf.mem
(** A first-class [MEM] module whose registers live in the given arena.
    [read]/[write]/[bit_op] must only be called from code running under
    {!Proc.start} (i.e. inside a scheduled process); calling them outside
    raises [Effect.Unhandled]. *)

val typed : Memory.t -> (module Cfc_base.Mem_intf.MEM with type reg = Register.t)
(** {!mem} with its register type exposed: a harness that allocates
    through the backend can read its own registers back with
    {!Register.read} once the run is over, without searching the arena
    by name. *)
