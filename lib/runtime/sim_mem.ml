open Cfc_base

let typed arena : (module Mem_intf.MEM with type reg = Register.t) =
  (module struct
    type reg = Register.t

    let alloc ?name ~width ~init () = Memory.alloc ?name ~width ~init arena

    let alloc_bit ?name ~model ~init () =
      Memory.alloc ?name ~model ~width:1 ~init arena

    let alloc_array ?name ~width ~init k =
      Memory.alloc_array ?name ~width ~init arena k

    let alloc_bit_array ?name ~model ~init k =
      Memory.alloc_array ?name ~model ~width:1 ~init arena k

    let read r = Effect.perform (Proc.E_read r)
    let write r v = Effect.perform (Proc.E_write (r, v))

    let write_field r ~index ~width v =
      Effect.perform (Proc.E_write_field (r, index, width, v))
    let bit_op r op = Effect.perform (Proc.E_bit_op (r, op))
    let fetch_and_store r v = Effect.perform (Proc.E_xchg (r, v))

    let compare_and_set r ~expected v =
      Effect.perform (Proc.E_cas (r, expected, v))
    let pause () = Effect.perform Proc.E_pause
  end)

let mem arena : Mem_intf.mem =
  let module M = (val typed arena) in
  (module M)
