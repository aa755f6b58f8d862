open Cfc_runtime

type sample = {
  steps : int;
  registers : int;
  read_steps : int;
  write_steps : int;
  read_registers : int;
  write_registers : int;
}

let zero =
  { steps = 0; registers = 0; read_steps = 0; write_steps = 0;
    read_registers = 0; write_registers = 0 }

let max_sample a b =
  {
    steps = max a.steps b.steps;
    registers = max a.registers b.registers;
    read_steps = max a.read_steps b.read_steps;
    write_steps = max a.write_steps b.write_steps;
    read_registers = max a.read_registers b.read_registers;
    write_registers = max a.write_registers b.write_registers;
  }

let pp_sample ppf s =
  Format.fprintf ppf "steps=%d regs=%d (r/w steps %d/%d, r/w regs %d/%d)"
    s.steps s.registers s.read_steps s.write_steps s.read_registers
    s.write_registers

(* Accumulate a sample from a list of (register, kind) accesses. *)
let of_accesses accesses =
  let seen = Hashtbl.create 16 in
  let seen_r = Hashtbl.create 16 in
  let seen_w = Hashtbl.create 16 in
  let steps = ref 0 and reads = ref 0 and writes = ref 0 in
  List.iter
    (fun (reg, kind) ->
      incr steps;
      Hashtbl.replace seen reg.Register.id ();
      if Event.is_write kind then begin
        incr writes;
        Hashtbl.replace seen_w reg.Register.id ()
      end
      else begin
        incr reads;
        Hashtbl.replace seen_r reg.Register.id ()
      end)
    accesses;
  {
    steps = !steps;
    registers = Hashtbl.length seen;
    read_steps = !reads;
    write_steps = !writes;
    read_registers = Hashtbl.length seen_r;
    write_registers = Hashtbl.length seen_w;
  }

let in_regions trace ~nprocs ~pid ~in_region =
  let accesses =
    Trace.fold_states ~nprocs
      (fun acc regions e ->
        match e.Event.body with
        | Event.Access (r, k) when e.Event.pid = pid && in_region regions.(pid)
          -> (r, k) :: acc
        | Event.Access _ | Event.Region_change _ | Event.Crash | Event.Recover -> acc)
      [] trace
  in
  of_accesses (List.rev accesses)

let mutex_contention_free trace ~nprocs ~pid =
  in_regions trace ~nprocs ~pid ~in_region:(function
    | Event.Trying | Event.Exiting -> true
    | Event.Remainder | Event.Critical | Event.Decided _ | Event.Halted ->
      false)

(* Worst-case entry fragments.  Scan once; for each pid track the sequence
   number after which it (re-)entered Trying, and globally the last state
   in which some process occupied its critical section or exit code.  When
   pid moves Trying -> Critical at event j, the valid window starts after
   both. *)
let mutex_wc_entry trace ~nprocs =
  let entered = Array.make nprocs (-1) in
  let last_occupied = ref (-1) in
  let out = ref [] in
  let occupied regions =
    Array.exists
      (function Event.Critical | Event.Exiting -> true | _ -> false)
      regions
  in
  let (_ : unit) =
    Trace.fold_states ~nprocs
      (fun () regions e ->
        if occupied regions then last_occupied := e.Event.seq;
        match e.Event.body with
        | Event.Region_change Event.Trying -> entered.(e.Event.pid) <- e.Event.seq
        | Event.Region_change Event.Critical
          when Event.region_equal regions.(e.Event.pid) Event.Trying ->
          let pid = e.Event.pid in
          let from = max (entered.(pid) + 1) (!last_occupied + 1) in
          let accesses = Trace.accesses_of ~from ~until:e.Event.seq ~pid trace in
          out := (pid, of_accesses accesses) :: !out
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> ())
      () trace
  in
  List.rev !out

let mutex_wc_exit trace ~nprocs =
  let entered_exit = Array.make nprocs (-1) in
  let out = ref [] in
  let (_ : unit) =
    Trace.fold_states ~nprocs
      (fun () regions e ->
        match e.Event.body with
        | Event.Region_change Event.Exiting ->
          entered_exit.(e.Event.pid) <- e.Event.seq
        | Event.Region_change _
          when Event.region_equal regions.(e.Event.pid) Event.Exiting ->
          let pid = e.Event.pid in
          let from = entered_exit.(pid) + 1 in
          let accesses = Trace.accesses_of ~from ~until:e.Event.seq ~pid trace in
          out := (pid, of_accesses accesses) :: !out
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> ())
      () trace
  in
  List.rev !out

let per_process_samples trace ~nprocs =
  let steps = Array.make nprocs 0
  and reads = Array.make nprocs 0
  and writes = Array.make nprocs 0 in
  let seen = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  let seen_r = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  let seen_w = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        steps.(pid) <- steps.(pid) + 1;
        Hashtbl.replace seen.(pid) r.Register.id ();
        if Event.is_write k then begin
          writes.(pid) <- writes.(pid) + 1;
          Hashtbl.replace seen_w.(pid) r.Register.id ()
        end
        else begin
          reads.(pid) <- reads.(pid) + 1;
          Hashtbl.replace seen_r.(pid) r.Register.id ()
        end
      | Event.Region_change _ | Event.Crash | Event.Recover -> ())
    trace;
  Array.init nprocs (fun pid ->
      {
        steps = steps.(pid);
        registers = Hashtbl.length seen.(pid);
        read_steps = reads.(pid);
        write_steps = writes.(pid);
        read_registers = Hashtbl.length seen_r.(pid);
        write_registers = Hashtbl.length seen_w.(pid);
      })

let naming_process trace ~nprocs ~pid =
  ignore nprocs;
  of_accesses (Trace.accesses_of ~pid trace)

let remote_accesses trace ~nprocs =
  let remote = Array.make nprocs 0 in
  (* valid.(register id) = set of pids holding a valid copy, as a bitmask
     (nprocs <= 62 gets the fast path; beyond that a hashtable of pairs
     would be needed — the harnesses only use this for small n). *)
  if nprocs > 62 then invalid_arg "remote_accesses: nprocs > 62";
  let valid = Hashtbl.create 64 in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        let holders =
          Option.value ~default:0 (Hashtbl.find_opt valid r.Register.id)
        in
        if holders land (1 lsl pid) = 0 then
          remote.(pid) <- remote.(pid) + 1;
        let holders' =
          if Event.is_write k then 1 lsl pid
          else holders lor (1 lsl pid)
        in
        Hashtbl.replace valid r.Register.id holders'
      | Event.Region_change _ | Event.Crash | Event.Recover -> ())
    trace;
  remote

let recovery_paths trace ~nprocs =
  ignore nprocs;
  (* pid -> sequence number of its currently open Recover event *)
  let open_at = Hashtbl.create 8 in
  let out = ref [] in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Recover -> Hashtbl.replace open_at e.Event.pid e.Event.seq
      | Event.Crash ->
        (* Crashed again before completing the recovery: the fragment is
           abandoned; a fresh one opens at the next Recover. *)
        Hashtbl.remove open_at e.Event.pid
      | Event.Region_change Event.Critical -> (
        match Hashtbl.find_opt open_at e.Event.pid with
        | Some from ->
          Hashtbl.remove open_at e.Event.pid;
          let accesses =
            Trace.accesses_of ~from:(from + 1) ~until:e.Event.seq
              ~pid:e.Event.pid trace
          in
          out := (e.Event.pid, of_accesses accesses) :: !out
        | None -> ())
      | Event.Region_change _ | Event.Access _ -> ())
    trace;
  List.rev !out

let recovery_rmr trace ~nprocs =
  ignore nprocs;
  (* Same write-invalidate holder tracking as [remote_accesses], with the
     crash–recovery refinement: a crash destroys the dying incarnation's
     cache, so the restarted one starts cold (every register is remote
     until re-read).  Fragments open and close exactly as in
     [recovery_paths].  Holders are pid sets rather than
     [remote_accesses]'s bitmasks: the recoverable sweep runs at the
     CLI's default n = 64, past the 62-bit fast path. *)
  let module S = Set.Make (Int) in
  let valid : (int, S.t) Hashtbl.t = Hashtbl.create 64 in
  let open_rmr = Hashtbl.create 8 in
  let out = ref [] in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Crash ->
        Hashtbl.filter_map_inplace
          (fun _ h -> Some (S.remove e.Event.pid h))
          valid;
        Hashtbl.remove open_rmr e.Event.pid
      | Event.Recover -> Hashtbl.replace open_rmr e.Event.pid 0
      | Event.Region_change Event.Critical -> (
        match Hashtbl.find_opt open_rmr e.Event.pid with
        | Some rmr ->
          Hashtbl.remove open_rmr e.Event.pid;
          out := (e.Event.pid, rmr) :: !out
        | None -> ())
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        let holders =
          Option.value ~default:S.empty (Hashtbl.find_opt valid r.Register.id)
        in
        (if not (S.mem pid holders) then
           match Hashtbl.find_opt open_rmr pid with
           | Some rmr -> Hashtbl.replace open_rmr pid (rmr + 1)
           | None -> ());
        let holders' =
          if Event.is_write k then S.singleton pid else S.add pid holders
        in
        Hashtbl.replace valid r.Register.id holders'
      | Event.Region_change _ -> ())
    trace;
  List.rev !out

let decisions trace ~nprocs =
  ignore nprocs;
  Trace.fold
    (fun acc e ->
      match e.Event.body with
      | Event.Region_change (Event.Decided v) -> (e.Event.pid, v) :: acc
      | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> acc)
    [] trace
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Streaming measures                                                  *)

module Online = struct
  (* Open-addressing int -> int table on two flat arrays: no bucket is
     boxed per insert, so feeding an event allocates nothing unless a
     table doubles.  Keys are register ids, all >= 0, so [-1] marks an
     empty slot.  Linear probing from a multiplicative (Fibonacci)
     hash; the table doubles past half load. *)
  module Itbl = struct
    type t = {
      mutable keys : int array;
      mutable vals : int array;
      mutable size : int;
      mutable shift : int;  (* 63 - log2 capacity *)
    }

    let create () =
      { keys = Array.make 8 (-1); vals = Array.make 8 0; size = 0;
        shift = 60 }

    (* Odd 63-bit golden-ratio constant; the top bits of the product
       spread consecutive ids across the table. *)
    let[@inline] home t k = (k * 0x278DDE6E5FD29F05) lsr t.shift

    (* The slot holding [k], or the empty slot where it would go. *)
    let index t k =
      let keys = t.keys in
      let mask = Array.length keys - 1 in
      let i = ref (home t k) in
      while
        let k' = keys.(!i) in
        k' <> k && k' <> -1
      do
        i := (!i + 1) land mask
      done;
      !i

    let[@inline] present t i k = t.keys.(i) = k

    let grow t =
      let keys = t.keys and vals = t.vals in
      let cap = 2 * Array.length keys in
      t.keys <- Array.make cap (-1);
      t.vals <- Array.make cap 0;
      t.shift <- t.shift - 1;
      Array.iteri
        (fun j k ->
          if k >= 0 then begin
            let i = index t k in
            t.keys.(i) <- k;
            t.vals.(i) <- vals.(j)
          end)
        keys

    (* Insert [k] at [i], the empty slot [index t k] returned. *)
    let add_at t i k v =
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.size <- t.size + 1;
      if 2 * t.size > Array.length t.keys then grow t
  end

  (* A mutable counterpart of [sample] under construction.  The set of
     registers it has seen is not kept here but in its process's one
     register table (see [pstate]), as a 2-bit pair (1 read, 2 write)
     per window; the three distinct-register counts go up when a bit of
     the pair is first set.  [a_start] is the event index of the
     window's last reset: a pair is valid iff the register's stamp (the
     index of the process's last access to it) is no older, so a reset
     is O(1) and never touches the table. *)
  type acc = {
    mutable a_steps : int;
    mutable a_reads : int;
    mutable a_writes : int;
    mutable a_regs : int;
    mutable a_rregs : int;
    mutable a_wregs : int;
    mutable a_start : int;
  }

  let acc_create () =
    { a_steps = 0; a_reads = 0; a_writes = 0; a_regs = 0; a_rregs = 0;
      a_wregs = 0; a_start = 0 }

  let acc_reset a ~now =
    a.a_steps <- 0;
    a.a_reads <- 0;
    a.a_writes <- 0;
    a.a_regs <- 0;
    a.a_rregs <- 0;
    a.a_wregs <- 0;
    a.a_start <- now

  (* Count one access with bit [bit] (1 read, 2 write) into [a], whose
     valid pair for the register is [pair]; returns the new pair. *)
  let[@inline] acc_add a pair bit =
    a.a_steps <- a.a_steps + 1;
    if bit = 2 then a.a_writes <- a.a_writes + 1
    else a.a_reads <- a.a_reads + 1;
    if pair = 0 then a.a_regs <- a.a_regs + 1;
    if pair land bit = 0 then
      if bit = 2 then a.a_wregs <- a.a_wregs + 1
      else a.a_rregs <- a.a_rregs + 1;
    pair lor bit

  let acc_sample a =
    { steps = a.a_steps;
      registers = a.a_regs;
      read_steps = a.a_reads;
      write_steps = a.a_writes;
      read_registers = a.a_rregs;
      write_registers = a.a_wregs }

  (* Layout of a [regs] value: the stamp above [stamp_shift] bits, then
     one pair per window at these offsets. *)
  let stamp_shift = 10
  let sh_total = 0
  let sh_cf = 2
  let sh_entry = 4
  let sh_exit = 6
  let sh_rec = 8

  (* [a]'s pair at [shift] in a register value [v] of stamp [own]: zero
     if the window was reset since (or the register is untouched). *)
  let[@inline] pair a ~own v shift =
    if own >= a.a_start then (v lsr shift) land 3 else 0

  type pstate = {
    mutable region : Event.region;
    total : acc;        (* whole-run, = per_process_samples *)
    cf : acc;           (* accesses while own region is Trying/Exiting *)
    entry : acc;        (* current §2.2 entry window candidate *)
    mutable entry_gen : int;
        (* [clear_gen] value at the last reset/add of [entry]: a mismatch
           means some event with an occupied pre-state happened since, so
           the accumulated accesses fall before the window start *)
    exit_ : acc;        (* current exit fragment *)
    rec_ : acc;         (* current recovery fragment *)
    mutable rec_open : bool;
    mutable rec_rmr : int;
    mutable remote : int;
    regs : Itbl.t;
        (* register id -> (index of this pid's last access to it
           lsl [stamp_shift]) lor one r/w pair per window *)
    mutable crashed_at : int;  (* index of this pid's last Crash, or -1 *)
  }

  type t = {
    o_nprocs : int;
    procs : (int, pstate) Hashtbl.t;
    mutable events : int;
    mutable occupied : int;
        (* processes whose region is Critical or Exiting — the §2.2
           occupancy predicate over the pre-event state *)
    mutable clear_gen : int;
        (* bumped once per event whose pre-state is occupied; stands in
           for the materialised scan's [last_occupied] without touching
           every process's entry accumulator *)
    mutable entries : (int * sample) list;  (* reversed *)
    mutable exits : (int * sample) list;
    mutable recs : (int * sample) list;
    mutable rec_rmrs : (int * int) list;
    mutable decs : (int * int) list;
    last_write : Itbl.t;
        (* register id -> index of its last write; -1 if touched but never
           written; absent if untouched.  With the per-pid stamps this is
           the write-invalidate holder state: pid holds r iff its own
           last access to r is no older than r's last write *)
    mutable touched : Register.t list;  (* one per [last_write] entry *)
  }

  let new_pstate () =
    { region = Event.Remainder;
      total = acc_create (); cf = acc_create ();
      entry = acc_create (); entry_gen = 0;
      exit_ = acc_create (); rec_ = acc_create ();
      rec_open = false; rec_rmr = 0; remote = 0;
      regs = Itbl.create (); crashed_at = -1 }

  let create ~nprocs =
    { o_nprocs = nprocs;
      procs = Hashtbl.create 64;
      events = 0; occupied = 0; clear_gen = 0;
      entries = []; exits = []; recs = []; rec_rmrs = []; decs = [];
      last_write = Itbl.create ();
      touched = [] }

  let pstate t pid =
    match Hashtbl.find t.procs pid with
    | p -> p
    | exception Not_found ->
      if pid < 0 || pid >= t.o_nprocs then
        invalid_arg "Measures.Online: pid out of range";
      let p = new_pstate () in
      Hashtbl.replace t.procs pid p;
      p

  let in_cs_or_exit = function
    | Event.Critical | Event.Exiting -> true
    | Event.Remainder | Event.Trying | Event.Decided _ | Event.Halted -> false

  (* One access of [p] at event index [now], pre-state region [pre]: two
     probes, its own register table and [last_write].  The register's
     old stamp [own] drives both the window pairs and the holder tests.
     Each of the five pairs is rewritten — counted into if the access
     lies in its window, carried over otherwise — so a pair left stale
     by a reset reads as zero from the first touch after it.  Both
     holder tests read the state before this access: [p] holds [r]
     ([remote_accesses] semantics) iff its own last access is no older
     than [r]'s last write, and under [recovery_rmr]'s crash eviction it
     must also postdate [p]'s last crash. *)
  let access t p pre (r : Register.t) is_write now =
    let id = r.Register.id in
    let bit = if is_write then 2 else 1 in
    let regs = p.regs in
    let ri = Itbl.index regs id in
    let own_present = Itbl.present regs ri id in
    let v = if own_present then regs.Itbl.vals.(ri) else 0 in
    let own = if own_present then v lsr stamp_shift else -1 in
    let total = acc_add p.total (pair p.total ~own v sh_total) bit in
    let cf = pair p.cf ~own v sh_cf in
    let cf =
      match pre with
      | Event.Trying | Event.Exiting -> acc_add p.cf cf bit
      | Event.Remainder | Event.Critical | Event.Decided _ | Event.Halted -> cf
    in
    let entry =
      match pre with
      | Event.Trying ->
        (* Entry-window candidate: only Trying accesses can land in a
           §2.2 window; an access is in the window iff no later event
           (itself included) has an occupied pre-state, which the
           generation counter tracks lazily. *)
        if p.entry_gen <> t.clear_gen then begin
          acc_reset p.entry ~now;
          p.entry_gen <- t.clear_gen
        end;
        let e = pair p.entry ~own v sh_entry in
        if t.occupied = 0 then acc_add p.entry e bit else e
      | Event.Remainder | Event.Critical | Event.Exiting | Event.Decided _
      | Event.Halted -> pair p.entry ~own v sh_entry
    in
    let exit_ = pair p.exit_ ~own v sh_exit in
    let exit_ =
      match pre with
      | Event.Exiting -> acc_add p.exit_ exit_ bit
      | Event.Remainder | Event.Trying | Event.Critical | Event.Decided _
      | Event.Halted -> exit_
    in
    let rec_ = pair p.rec_ ~own v sh_rec in
    let rec_ = if p.rec_open then acc_add p.rec_ rec_ bit else rec_ in
    let v' =
      (now lsl stamp_shift) lor (total lsl sh_total) lor (cf lsl sh_cf)
      lor (entry lsl sh_entry) lor (exit_ lsl sh_exit) lor (rec_ lsl sh_rec)
    in
    if own_present then regs.Itbl.vals.(ri) <- v'
    else Itbl.add_at regs ri id v';
    let lw_tbl = t.last_write in
    let li = Itbl.index lw_tbl id in
    let first_touch = not (Itbl.present lw_tbl li id) in
    let lw = if first_touch then -1 else lw_tbl.Itbl.vals.(li) in
    let holds = own >= 0 && own >= lw in
    if not holds then p.remote <- p.remote + 1;
    if p.rec_open && not (holds && own > p.crashed_at) then
      p.rec_rmr <- p.rec_rmr + 1;
    if first_touch then begin
      Itbl.add_at lw_tbl li id (if is_write then now else -1);
      t.touched <- r :: t.touched
    end
    else if is_write then lw_tbl.Itbl.vals.(li) <- now

  let feed t ~pid body =
    let p = pstate t pid in
    let pre = p.region in
    (* Pre-state occupancy advances the window clock for every event,
       mirroring the materialised scan's [last_occupied := e.seq]. *)
    if t.occupied > 0 then t.clear_gen <- t.clear_gen + 1;
    (match body with
    | Event.Access (r, k) -> access t p pre r (Event.is_write k) t.events
    | Event.Region_change r ->
      (* Close §2.2 entry windows: Trying -> Critical. *)
      (match r with
      | Event.Critical when Event.region_equal pre Event.Trying ->
        let s =
          if p.entry_gen = t.clear_gen then acc_sample p.entry else zero
        in
        t.entries <- (pid, s) :: t.entries
      | _ -> ());
      (* Close exit fragments: any region change out of Exiting.  An
         Exiting -> Exiting re-entry only restarts the fragment (same
         pattern precedence as the materialised scan). *)
      (match r with
      | Event.Exiting -> acc_reset p.exit_ ~now:t.events
      | _ when Event.region_equal pre Event.Exiting ->
        t.exits <- (pid, acc_sample p.exit_) :: t.exits
      | _ -> ());
      (* Close recovery fragments: any entry to Critical. *)
      (match r with
      | Event.Critical when p.rec_open ->
        p.rec_open <- false;
        t.recs <- (pid, acc_sample p.rec_) :: t.recs;
        t.rec_rmrs <- (pid, p.rec_rmr) :: t.rec_rmrs
      | _ -> ());
      (match r with
      | Event.Trying ->
        acc_reset p.entry ~now:t.events;
        p.entry_gen <- t.clear_gen
      | _ -> ());
      (match r with
      | Event.Decided v -> t.decs <- (pid, v) :: t.decs
      | _ -> ());
      let was = in_cs_or_exit pre and now = in_cs_or_exit r in
      if was && not now then t.occupied <- t.occupied - 1
      else if now && not was then t.occupied <- t.occupied + 1;
      p.region <- r
    | Event.Crash ->
      (* Fragments are abandoned and the dying incarnation's cached
         copies destroyed ([recovery_rmr] semantics: no stamp older than
         this event counts as a holder any more); the region stays
         stale on purpose — strong occupancy, as in Trace.fold_states. *)
      p.rec_open <- false;
      p.crashed_at <- t.events
    | Event.Recover ->
      p.rec_open <- true;
      acc_reset p.rec_ ~now:t.events;
      p.rec_rmr <- 0;
      if in_cs_or_exit p.region then t.occupied <- t.occupied - 1;
      p.region <- Event.Remainder);
    t.events <- t.events + 1

  let feed_trace t trace =
    Trace.iter (fun e -> feed t ~pid:e.Event.pid e.Event.body) trace

  let events_seen t = t.events

  let sample_of t pid which =
    match Hashtbl.find_opt t.procs pid with
    | None -> zero
    | Some p -> acc_sample (which p)

  let contention_free t ~pid = sample_of t pid (fun p -> p.cf)
  let per_process t = Array.init t.o_nprocs (fun pid -> sample_of t pid (fun p -> p.total))
  let process_total t ~pid = sample_of t pid (fun p -> p.total)
  let wc_entries t = List.rev t.entries
  let wc_exits t = List.rev t.exits
  let recovery_paths t = List.rev t.recs
  let recovery_rmr t = List.rev t.rec_rmrs
  let decisions t = List.rev t.decs

  let remote t ~pid =
    match Hashtbl.find_opt t.procs pid with Some p -> p.remote | None -> 0

  let remote_accesses t = Array.init t.o_nprocs (fun pid -> remote t ~pid)

  let touched t = t.touched
  let touched_count t = t.last_write.Itbl.size
  let spawned t = Hashtbl.length t.procs
end
