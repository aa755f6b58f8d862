(** A shared-memory arena: allocator and registry of {!Register.t} cells.

    One arena corresponds to one run configuration.  Allocation happens when
    an algorithm instance is created (outside process execution); the
    registers then constitute the run's shared state.  [reset] restores all
    initial values, which together with a deterministic schedule gives
    deterministic replay (used by the model checker). *)

type t

val create : unit -> t

val alloc :
  ?name:string -> ?model:Cfc_base.Model.t -> width:int -> init:int -> t ->
  Register.t
(** Allocate a fresh register.  Default [name] is ["r<id>"]. *)

val alloc_array :
  ?name:string -> ?model:Cfc_base.Model.t -> width:int -> init:int -> t ->
  int -> Register.t array
(** [alloc_array t k]: registers named ["name[0]" … "name[k-1]"] (default
    ["a"]).  The element names are rendered lazily by {!Register.name}. *)

val registers : t -> Register.t list
(** All allocated registers, in allocation order. *)

val size : t -> int
(** Number of registers allocated (the paper's space complexity). *)

val max_width : t -> int
(** The largest width allocated so far — an upper bound on the atomicity of
    any algorithm using only this arena; [0] for an empty arena.  Widths
    are additionally enforced on every write-class access: {!Register}
    raises a descriptive [Invalid_argument] when a stored value would
    exceed the register's declared width (so does the native backend). *)

val reset : t -> unit
(** Restore every register to its initial value. *)

val values : t -> int array
(** Snapshot of every register's current value (internal order, matching
    {!restore_values}).  O(registers); the checkpoint half of the model
    checker's undo machinery. *)

val values_equal : t -> int array -> bool
(** [values_equal t a] is [values t = a] without building the copy: the
    model checker asks it after every step it probes. *)

val restore_values : t -> int array -> unit
(** Write a {!values} snapshot back.  Raises [Invalid_argument] if the
    arena allocated registers since the snapshot was taken. *)

val dump : t -> string
(** One-line rendering of the current contents, for debugging. *)

val fingerprint : t -> int
(** A hash of the current register values (state pruning in the model
    checker). *)
