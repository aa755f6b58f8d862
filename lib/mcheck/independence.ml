open Cfc_runtime

(* ------------------------------------------------------------------ *)
(* Footprints: which registers a step may read or write, as bitmasks
   over register ids (allocation order).  Conflict is the §POR may-not-
   commute relation: a write on a register some other step touches. *)

type fp = { f_read : int; f_write : int }

let fp_empty = { f_read = 0; f_write = 0 }

let fp_union a b =
  { f_read = a.f_read lor b.f_read; f_write = a.f_write lor b.f_write }

let conflict a b =
  a.f_write land (b.f_read lor b.f_write) <> 0
  || b.f_write land a.f_read <> 0

(* The widest register id a bitmask can carry without touching the sign
   bit of a 63-bit OCaml int. *)
let max_reg_bits = 62

let class_of_kind : Event.access_kind -> string = function
  | Event.A_read _ -> "read"
  | Event.A_write _ -> "write"
  | Event.A_field _ -> "write-field"
  | Event.A_xchg _ -> "xchg"
  | Event.A_cas _ -> "cas"
  | Event.A_bit (op, _) -> "bit:" ^ Cfc_base.Ops.to_string op

(* Int codes for the op classes: the five word operations, then the eight
   bit operations by their paper index.  The hot paths (node matching,
   cycle membership, spin canonicalisation) compare these instead of
   class strings. *)
let n_codes = 5 + List.length Cfc_base.Ops.all

let class_code : Event.access_kind -> int = function
  | Event.A_read _ -> 0
  | Event.A_write _ -> 1
  | Event.A_field _ -> 2
  | Event.A_xchg _ -> 3
  | Event.A_cas _ -> 4
  | Event.A_bit (op, _) -> 5 + Cfc_base.Ops.to_index op

let code_of_class =
  let names = Hashtbl.create n_codes in
  List.iter
    (fun k -> Hashtbl.replace names (class_of_kind k) (class_code k))
    (Event.A_read 0 :: Event.A_write 0 :: Event.A_field (0, 0, 0)
     :: Event.A_xchg (0, 0) :: Event.A_cas (0, 0, false)
     :: List.map (fun op -> Event.A_bit (op, None)) Cfc_base.Ops.all);
  fun s -> match Hashtbl.find_opt names s with Some c -> c | None -> -1

let fp_of_access ?(changed = true) ~reg (kind : Event.access_kind) =
  let bit = 1 lsl reg in
  let writes =
    changed
    &&
    match kind with
    (* A failed CAS records as a read ([Event.is_write] is
       success-dependent), but whether it succeeds depends on the
       interleaving, so for commutation it must count as a write. *)
    | Event.A_cas _ -> true
    | k -> Event.is_write k
  in
  { f_read = bit; f_write = (if writes then bit else 0) }

(* ------------------------------------------------------------------ *)
(* The static model of one process: its access graph
   ([Cfc_analysis.Analyze]), re-indexed as arrays, with the footprint of
   every node. *)

type ninfo = { i_reg : int; i_code : int; i_fp : fp }

type model = {
  m_entry : int list;  (* nodes with baseline position 0, ascending *)
  m_info : ninfo array;
  m_succ : int array array;
  m_cyc : bool array;
      (* indexed [reg * n_codes + code]: (register, op class) pairs
         appearing on a detected busy-wait cycle, occurrence-independent:
         the dynamic search prunes spin unrolling long before it reaches
         the occurrence indices the symbolic engine flagged, so
         membership must not depend on how many times the instruction
         already executed *)
}

type t = { models : model option array }

let usable t = Array.exists Option.is_some t.models

let model_of_graph (g : Cfc_analysis.Analyze.graph) =
  let open Cfc_analysis.Analyze in
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) g.g_nodes [])
  in
  let keys = Array.of_list keys in
  let nn = Array.length keys in
  if nn = 0 then None
  else begin
    let index = Hashtbl.create nn in
    Array.iteri (fun i k -> Hashtbl.replace index k i) keys;
    let node i = Hashtbl.find g.g_nodes keys.(i) in
    let overflow = ref false in
    let info =
      Array.init nn (fun i ->
          let n = node i in
          if n.n_reg >= max_reg_bits then overflow := true;
          let bit = 1 lsl n.n_reg in
          {
            i_reg = n.n_reg;
            i_code = code_of_class n.n_class;
            i_fp =
              {
                f_read = bit;
                (* anything but a plain read may write: CAS and bit ops
                   conservatively so, since success is value-dependent *)
                f_write = (if n.n_class = "read" then 0 else bit);
              };
          })
    in
    let entry = ref [] in
    Array.iteri
      (fun i _ -> if (node i).n_baseline = 0 then entry := i :: !entry)
      keys;
    if !overflow || !entry = [] then None
    else begin
      let succ = Array.make nn [] in
      Hashtbl.iter
        (fun (a, b) () ->
          match (Hashtbl.find_opt index a, Hashtbl.find_opt index b) with
          | Some ia, Some ib -> succ.(ia) <- ib :: succ.(ia)
          | _ -> ())
        g.g_edges;
      let succ =
        Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) succ
      in
      let cyc = Array.make (max_reg_bits * n_codes) false in
      Array.iteri
        (fun i inf ->
          (* a node of an unknown class never matches an access *)
          if (node i).n_cycle && inf.i_code >= 0 then
            cyc.((inf.i_reg * n_codes) + inf.i_code) <- true)
        info;
      Some
        {
          m_entry = List.sort compare !entry;
          m_info = info;
          m_succ = succ;
          m_cyc = cyc;
        }
    end
  end

let of_report (report : Cfc_analysis.Analyze.report) =
  {
    models =
      Array.of_list
        (List.map
           (fun vr -> model_of_graph vr.Cfc_analysis.Analyze.vr_graph)
           report.Cfc_analysis.Analyze.variants);
  }

let build subject_opt ~config =
  match subject_opt with
  | None -> None
  | Some subject -> (
    match Cfc_analysis.Analyze.analyze ?config subject with
    | report ->
      let t = of_report report in
      if usable t then Some t else None
    | exception _ -> None)

let mutex ?config alg (p : Cfc_mutex.Mutex_intf.params) =
  (* [of_mutex_checked], not [of_mutex]: the checked arena has the
     critical-section witness register, and footprints are bit positions
     in allocation order. *)
  build
    (Cfc_analysis.Subjects.of_mutex_checked ~l:p.Cfc_mutex.Mutex_intf.l
       ~n:p.Cfc_mutex.Mutex_intf.n alg)
    ~config

let detector ?config det (p : Cfc_mutex.Mutex_intf.params) =
  build
    (Cfc_analysis.Subjects.of_detector ~n:p.Cfc_mutex.Mutex_intf.n det)
    ~config

(* ------------------------------------------------------------------ *)
(* Dynamic position tracking: the set of graph nodes a process's next
   access may correspond to, advanced on every observed access.  A
   process whose accesses stop matching its graph (the bounded symbolic
   exploration under-covered its behavior) degrades permanently to
   unknown — no static claim is made about it again, and the exploration
   around it falls back to full expansion.

   Position sets are interned per process as small int ids (the entry set
   is id 0; [-1] is unknown), with their next-step footprint precomputed,
   and each (id, register, op class) transition is computed once and then
   looked up: the checker observes the same few transitions millions of
   times.  The tables are append-only, so ids stay valid across
   {!restore}; they live in the tracker, not the shared model, so
   domain-parallel searches never share them. *)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type interner = {
  x_model : model;
  x_ids : (int list, int) Hashtbl.t;  (* sorted node set -> id *)
  mutable x_sets : int list array;  (* id -> node set *)
  mutable x_fps : fp option array;  (* id -> union footprint of the set *)
  mutable x_n : int;
  x_trans : int Itbl.t;  (* transition key -> next id, or -1 *)
}

type tracker = { pos : int array; ix : interner option array }
type snap = int array

let unknown = -1

let intern x nodes =
  match Hashtbl.find_opt x.x_ids nodes with
  | Some id -> id
  | None ->
    let id = x.x_n in
    if id = Array.length x.x_sets then begin
      let grow a d = Array.append a (Array.make (max 8 id) d) in
      x.x_sets <- grow x.x_sets [];
      x.x_fps <- grow x.x_fps None
    end;
    x.x_sets.(id) <- nodes;
    x.x_fps.(id) <-
      Some
        (List.fold_left
           (fun acc i -> fp_union acc x.x_model.m_info.(i).i_fp)
           fp_empty nodes);
    x.x_n <- id + 1;
    Hashtbl.add x.x_ids nodes id;
    id

let track t ~nprocs =
  let ix =
    Array.init nprocs (fun pid ->
        if pid < Array.length t.models then
          Option.map
            (fun m ->
              let x =
                { x_model = m; x_ids = Hashtbl.create 16; x_sets = [||];
                  x_fps = [||]; x_n = 0; x_trans = Itbl.create 64 }
              in
              ignore (intern x m.m_entry);
              x)
            t.models.(pid)
        else None)
  in
  { pos = Array.map (function Some _ -> 0 | None -> unknown) ix; ix }

let snapshot tr = Array.copy tr.pos
let restore tr s = Array.blit s 0 tr.pos 0 (Array.length tr.pos)

(* The position after [id] executes an access of class [code] on [reg]:
   the successors of every matching node, or unknown when none
   matches. *)
let transition x id ~reg ~code =
  let m = x.x_model in
  let matched =
    List.filter
      (fun i -> m.m_info.(i).i_reg = reg && m.m_info.(i).i_code = code)
      x.x_sets.(id)
  in
  match matched with
  | [] -> unknown
  | _ ->
    let next =
      List.sort_uniq compare
        (List.concat_map (fun i -> Array.to_list m.m_succ.(i)) matched)
    in
    (* Past the last graph node the process either halts (and is never
       consulted again) or starts its body over (the harness [rounds]
       loop): restart the position at the entry. *)
    if next = [] then 0 else intern x next

let observe tr ~pid ~reg ~kind =
  let id = tr.pos.(pid) in
  match tr.ix.(pid) with
  | Some x when id <> unknown ->
    tr.pos.(pid) <-
      (if reg >= max_reg_bits then unknown
       else
         let code = class_code kind in
         let key = (((id * max_reg_bits) + reg) * n_codes) + code in
         match Itbl.find x.x_trans key with
         | next -> next
         | exception Not_found ->
           let next = transition x id ~reg ~code in
           Itbl.add x.x_trans key next;
           next)
  | Some _ | None -> ()

let cycle_member tr ~pid ~reg ~kind =
  match tr.ix.(pid) with
  | None -> false
  | Some x ->
    reg < max_reg_bits && x.x_model.m_cyc.((reg * n_codes) + class_code kind)

let next_fp tr pid =
  let id = tr.pos.(pid) in
  match tr.ix.(pid) with
  | Some x when id <> unknown -> x.x_fps.(id)
  | Some _ | None -> None

let known tr pid = tr.pos.(pid) <> unknown
