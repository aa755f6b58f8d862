type status = Runnable | Halted | Crashed | Errored of exn

type sink = pid:int -> Event.body -> unit

let null_sink ~pid:_ _ = ()
let trace_sink trace ~pid body = ignore (Trace.record trace ~pid body)
let tee a b ~pid body = a ~pid body; b ~pid body

type pstate = {
  pid : int;
  thunk : unit -> unit;
  mutable susp : Proc.suspension option;
  mutable status : status;
  mutable region : Event.region;
  mutable steps : int;
  mutable epoch : int;
      (* bumped on crash: queued heap entries carry the epoch they were
         pushed under, so a crash invalidates them in O(1) and the stale
         entries are dropped when popped *)
  mutable queued : bool;
}

type t = {
  sink : sink;
  spawn : int -> unit -> unit;
  nprocs : int;
  procs : (int, pstate) Hashtbl.t;
  (* The calendar queue: a binary min-heap of entries stored column-wise
     in four parallel arrays, so a push or pop allocates nothing.  Entry
     [i] is (tick, seq, pid, epoch); [h_seq] is a global insertion
     counter, so the heap order (tick, insertion order) is FIFO within a
     tick, which makes the whole run deterministic in its inputs. *)
  mutable h_tick : int array;
  mutable h_seq : int array;
  mutable h_pid : int array;
  mutable h_epoch : int array;
  mutable hlen : int;
  mutable hseq : int;
  mutable now : int;
  mutable turns : int;
  mutable pending : Fault.plan;
  mutable first_error : (int * exn) option;
  mutable live_peak : int;
}

let create ?(sink = null_sink) ?(faults = []) ~nprocs ~spawn () =
  { sink; spawn; nprocs;
    procs = Hashtbl.create 64;
    h_tick = Array.make 64 0; h_seq = Array.make 64 0;
    h_pid = Array.make 64 0; h_epoch = Array.make 64 0;
    hlen = 0; hseq = 0; now = 0; turns = 0;
    pending = Fault.validate ~nprocs faults;
    first_error = None; live_peak = 0 }

(* ------------------------------------------------------------------ *)
(* Binary min-heap on (tick, insertion seq)                            *)

(* Both sifts move a hole instead of swapping: the moving entry stays in
   locals and is written once, where the hole stops. *)

let[@inline] before t i j =
  let a = t.h_tick.(i) and b = t.h_tick.(j) in
  a < b || (a = b && t.h_seq.(i) < t.h_seq.(j))

let[@inline] key_before t ~tick ~seq j =
  let b = t.h_tick.(j) in
  tick < b || (tick = b && seq < t.h_seq.(j))

let move t ~src ~dst =
  t.h_tick.(dst) <- t.h_tick.(src);
  t.h_seq.(dst) <- t.h_seq.(src);
  t.h_pid.(dst) <- t.h_pid.(src);
  t.h_epoch.(dst) <- t.h_epoch.(src)

let set t i ~tick ~seq ~pid ~epoch =
  t.h_tick.(i) <- tick;
  t.h_seq.(i) <- seq;
  t.h_pid.(i) <- pid;
  t.h_epoch.(i) <- epoch

let grow t =
  let widen a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.hlen;
    b
  in
  t.h_tick <- widen t.h_tick;
  t.h_seq <- widen t.h_seq;
  t.h_pid <- widen t.h_pid;
  t.h_epoch <- widen t.h_epoch

let heap_push t ~tick ~pid ~epoch =
  if t.hlen = Array.length t.h_tick then grow t;
  let seq = t.hseq in
  t.hseq <- seq + 1;
  let i = ref t.hlen in
  t.hlen <- t.hlen + 1;
  if t.hlen > t.live_peak then t.live_peak <- t.hlen;
  while !i > 0 && key_before t ~tick ~seq ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  set t !i ~tick ~seq ~pid ~epoch

(* Drop the top entry (the caller has read its columns): the last entry
   sifts down from the root. *)
let heap_remove_top t =
  let n = t.hlen - 1 in
  t.hlen <- n;
  if n > 0 then begin
    let tick = t.h_tick.(n) and seq = t.h_seq.(n) in
    let pid = t.h_pid.(n) and epoch = t.h_epoch.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && before t (l + 1) l then l + 1 else l in
        if key_before t ~tick ~seq c then continue := false
        else begin
          move t ~src:c ~dst:!i;
          i := c
        end
      end
    done;
    set t !i ~tick ~seq ~pid ~epoch
  end

(* ------------------------------------------------------------------ *)
(* Process state                                                       *)

let materialize t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None ->
    if pid < 0 || pid >= t.nprocs then invalid_arg "Wheel: pid out of range";
    let p =
      { pid; thunk = t.spawn pid; susp = None; status = Runnable;
        region = Event.Remainder; steps = 0; epoch = 0; queued = false }
    in
    Hashtbl.replace t.procs pid p;
    p

let emit t p body = t.sink ~pid:p.pid body

let push t ~tick p =
  if not p.queued then begin
    p.queued <- true;
    heap_push t ~tick ~pid:p.pid ~epoch:p.epoch
  end

let wake ?at t pid =
  let p = materialize t pid in
  let tick = match at with None -> t.now | Some a -> a in
  if tick < t.now then invalid_arg "Wheel.wake: tick in the past";
  match p.status with
  | Runnable -> push t ~tick p
  | Halted | Crashed | Errored _ -> ()

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)

let discontinue_susp s =
  let kill k = try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> () in
  match s with
  | Proc.Done | Proc.Failed _ -> ()
  | Proc.Read (_, k) -> kill k
  | Proc.Write (_, _, k) -> kill k
  | Proc.Write_field (_, _, _, _, k) -> kill k
  | Proc.Xchg (_, _, k) -> kill k
  | Proc.Cas (_, _, _, k) -> kill k
  | Proc.Bit_op (_, _, k) -> kill k
  | Proc.Region (_, k) -> kill k
  | Proc.Pause k -> kill k
  | Proc.Sleep (_, k) -> kill k

let crash t pid =
  let p = materialize t pid in
  if p.status = Runnable then begin
    (match p.susp with Some s -> discontinue_susp s | None -> ());
    p.susp <- None;
    p.status <- Crashed;
    (* Invalidate any queued entry rather than searching the heap: stale
       epochs are skipped at pop time. *)
    p.epoch <- p.epoch + 1;
    p.queued <- false;
    emit t p Event.Crash
  end

let recover t pid =
  let p = materialize t pid in
  if p.status = Crashed then begin
    (* Golab–Ramaraju: local state lost, shared memory persists; the
       restarted incarnation re-runs the thunk from the top, starting in
       Remainder.  It re-enters the wheel immediately at the current
       tick. *)
    p.susp <- None;
    p.status <- Runnable;
    p.region <- Event.Remainder;
    emit t p Event.Recover;
    push t ~tick:t.now p
  end

let apply_due t =
  let rec go () =
    match t.pending with
    | f :: rest when f.Fault.step <= t.turns ->
      (match f.Fault.kind with
      | Fault.Crash -> crash t f.Fault.pid
      | Fault.Recover -> recover t f.Fault.pid);
      t.pending <- rest;
      go ()
    | _ -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The turn engine (mirrors Scheduler.step's settle/go split)          *)

let record_error t p e =
  p.status <- Errored e;
  match t.first_error with
  | Some _ -> ()
  | None -> t.first_error <- Some (p.pid, e)

let finish t p outcome =
  match outcome with
  | `Halted ->
    p.status <- Halted;
    p.region <- Event.Halted;
    emit t p (Event.Region_change Event.Halted)
  | `Errored e -> record_error t p e

(* Park the post-access suspension: absorb free region changes eagerly
   (same reasoning as Scheduler.step's settle — deferred region changes
   would skew the §2.2 occupancy windows), park sleeps on their timer,
   and everything else at the very next tick. *)
let rec settle t p s =
  p.susp <- Some s;
  match s with
  | Proc.Done -> finish t p `Halted
  | Proc.Failed e -> finish t p (`Errored e)
  | Proc.Region (r, k) ->
    p.region <- r;
    emit t p (Event.Region_change r);
    settle t p (Effect.Deep.continue k ())
  | Proc.Sleep (d, _) -> push t ~tick:(t.now + max 1 d) p
  | Proc.Read _ | Proc.Write _ | Proc.Write_field _ | Proc.Xchg _
  | Proc.Cas _ | Proc.Bit_op _ | Proc.Pause _ ->
    push t ~tick:(t.now + 1) p

(* Advance one turn: perform at most one shared access, then park. *)
let rec exec t p s =
  match s with
  | Proc.Done -> finish t p `Halted
  | Proc.Failed e -> finish t p (`Errored e)
  | Proc.Region (r, k) ->
    p.region <- r;
    emit t p (Event.Region_change r);
    exec t p (Effect.Deep.continue k ())
  | Proc.Sleep (d, _) ->
    (* A fresh sleep ends the turn; the process leaves the active set
       until the wheel clock reaches the wake tick. *)
    p.susp <- Some s;
    push t ~tick:(t.now + max 1 d) p
  | Proc.Pause k ->
    (* A pause ends the turn at the next suspension point, exactly like
       Scheduler.step: one pause = one turn. *)
    settle t p (Effect.Deep.continue k ())
  | Proc.Read (r, k) -> begin
    match Register.read r with
    | v ->
      emit t p (Event.Access (r, Event.A_read v));
      p.steps <- p.steps + 1;
      settle t p (Effect.Deep.continue k v)
    | exception e -> abort t p k e
  end
  | Proc.Write (r, v, k) -> begin
    match Register.write r v with
    | () ->
      emit t p (Event.Access (r, Event.A_write v));
      p.steps <- p.steps + 1;
      settle t p (Effect.Deep.continue k ())
    | exception e -> abort t p k e
  end
  | Proc.Write_field (r, index, width, v, k) -> begin
    match Register.write_field r ~index ~width v with
    | () ->
      emit t p (Event.Access (r, Event.A_field (index, width, v)));
      p.steps <- p.steps + 1;
      settle t p (Effect.Deep.continue k ())
    | exception e -> abort t p k e
  end
  | Proc.Xchg (r, v, k) -> begin
    match Register.fetch_and_store r v with
    | old ->
      emit t p (Event.Access (r, Event.A_xchg (v, old)));
      p.steps <- p.steps + 1;
      settle t p (Effect.Deep.continue k old)
    | exception e -> abort t p k e
  end
  | Proc.Cas (r, expected, v, k) -> begin
    match Register.compare_and_set r ~expected v with
    | success ->
      emit t p (Event.Access (r, Event.A_cas (expected, v, success)));
      p.steps <- p.steps + 1;
      settle t p (Effect.Deep.continue k success)
    | exception e -> abort t p k e
  end
  | Proc.Bit_op (r, op, k) -> begin
    match Register.bit_op r op with
    | ret ->
      emit t p (Event.Access (r, Event.A_bit (op, ret)));
      p.steps <- p.steps + 1;
      settle t p (Effect.Deep.continue k ret)
    | exception e -> abort t p k e
  end

and abort : type a.
    t -> pstate -> (a, Proc.suspension) Effect.Deep.continuation -> exn -> unit
    =
 fun t p k e ->
  (* Semantic violation (model/width): unwind the process with the
     offending exception so the one-shot continuation is consumed.  If
     the process catches it and keeps going, it is simply parked at its
     next suspension point (the wheel has no observation-replay machinery
     to protect, unlike Scheduler). *)
  let s = try Effect.Deep.discontinue k e with e' -> Proc.Failed e' in
  settle t p s

let turn t p =
  match p.susp with
  | Some (Proc.Sleep (_, k)) ->
    (* Popped at its wake tick: the timer expired; resume through the
       sleep and run on to the next access. *)
    p.susp <- None;
    exec t p (Effect.Deep.continue k ())
  | Some s ->
    p.susp <- None;
    exec t p s
  | None ->
    (* First activation, or first turn after a recover: run the thunk
       from the top. *)
    exec t p (Proc.start p.thunk)

type stopped = Quiescent | Out_of_turns

(* Pop entries until one is valid — not stale from a crash since it was
   queued (epoch mismatch) — and claim its process, advancing the clock
   to its tick.  Raises [Not_found] once the heap is drained. *)
let rec pop_valid t =
  if t.hlen = 0 then raise_notrace Not_found;
  let tick = t.h_tick.(0) and pid = t.h_pid.(0) and epoch = t.h_epoch.(0) in
  heap_remove_top t;
  match Hashtbl.find t.procs pid with
  | exception Not_found -> pop_valid t
  | p ->
    let runnable = match p.status with Runnable -> true | _ -> false in
    if p.epoch = epoch && p.queued && runnable then begin
      p.queued <- false;
      if tick > t.now then t.now <- tick;
      p
    end
    else pop_valid t

let run ?(max_turns = max_int) t =
  let result = ref None in
  while !result = None do
    apply_due t;
    if t.turns >= max_turns then result := Some Out_of_turns
    else
      match pop_valid t with
      | p ->
        t.turns <- t.turns + 1;
        turn t p
      | exception Not_found -> (
        (* Heap drained.  Pending faults keep the run alive: jump the
           turn clock so the next fault (typically a recover) fires. *)
        match t.pending with
        | [] -> result := Some Quiescent
        | f :: _ -> t.turns <- max t.turns f.Fault.step)
  done;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let now t = t.now
let turns t = t.turns
let nprocs t = t.nprocs

let status t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p.status
  | None -> Runnable

let region t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p.region
  | None -> Event.Remainder

let steps_taken t pid =
  match Hashtbl.find_opt t.procs pid with Some p -> p.steps | None -> 0

let total_steps t = Hashtbl.fold (fun _ p acc -> acc + p.steps) t.procs 0
let spawned t = Hashtbl.length t.procs
let live_peak t = t.live_peak
let first_error t = t.first_error
