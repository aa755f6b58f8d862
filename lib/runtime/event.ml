open Cfc_base

type region = Remainder | Trying | Critical | Exiting | Decided of int | Halted

let region_equal a b =
  match (a, b) with
  | Remainder, Remainder | Trying, Trying | Critical, Critical
  | Exiting, Exiting | Halted, Halted -> true
  | Decided x, Decided y -> x = y
  | (Remainder | Trying | Critical | Exiting | Decided _ | Halted), _ -> false

let pp_region ppf = function
  | Remainder -> Format.pp_print_string ppf "remainder"
  | Trying -> Format.pp_print_string ppf "trying"
  | Critical -> Format.pp_print_string ppf "critical"
  | Exiting -> Format.pp_print_string ppf "exiting"
  | Decided v -> Format.fprintf ppf "decided(%d)" v
  | Halted -> Format.pp_print_string ppf "halted"

type access_kind =
  | A_read of int
  | A_write of int
  | A_field of int * int * int
  | A_xchg of int * int
  | A_cas of int * int * bool
  | A_bit of Ops.t * int option

let is_write = function
  | A_read _ -> false
  | A_write _ | A_field _ | A_xchg _ -> true
  | A_cas (_, _, success) -> success
  | A_bit (op, _) -> Ops.writes op

let is_read k = not (is_write k)

type t = { seq : int; pid : int; body : body }

and body =
  | Access of Register.t * access_kind
  | Region_change of region
  | Crash
  | Recover

let pp ppf e =
  match e.body with
  | Access (r, A_read v) ->
    Format.fprintf ppf "%4d p%d read  %s -> %d" e.seq e.pid (Register.name r) v
  | Access (r, A_write v) ->
    Format.fprintf ppf "%4d p%d write %s := %d" e.seq e.pid (Register.name r) v
  | Access (r, A_field (index, width, v)) ->
    Format.fprintf ppf "%4d p%d write %s[%d:%d] := %d" e.seq e.pid
      (Register.name r) index width v
  | Access (r, A_xchg (v, old)) ->
    Format.fprintf ppf "%4d p%d xchg  %s := %d -> %d" e.seq e.pid
      (Register.name r) v old
  | Access (r, A_cas (expected, v, success)) ->
    Format.fprintf ppf "%4d p%d cas   %s (%d -> %d) %s" e.seq e.pid
      (Register.name r) expected v
      (if success then "ok" else "failed")
  | Access (r, A_bit (op, ret)) ->
    Format.fprintf ppf "%4d p%d %s %s%s" e.seq e.pid (Ops.to_string op)
      (Register.name r)
      (match ret with None -> "" | Some v -> Printf.sprintf " -> %d" v)
  | Region_change reg ->
    Format.fprintf ppf "%4d p%d enters %a" e.seq e.pid pp_region reg
  | Crash -> Format.fprintf ppf "%4d p%d CRASH" e.seq e.pid
  | Recover -> Format.fprintf ppf "%4d p%d RECOVER" e.seq e.pid
