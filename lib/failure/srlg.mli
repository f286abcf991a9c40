(** Shared risk link groups.

    Links that share a conduit, landing station or seismic zone fail
    together (§1: "RAHA can model ... shared risk groups (SRLGs)"). An
    SRLG couples the failure state of its member links: in the MILP the
    members' failure binaries are forced equal; in enumeration-based
    baselines a group fails atomically with probability [prob]. *)

type t = {
  srlg_name : string;
  members : (int * int) list;  (** (lag_id, link_index) pairs, >= 2 *)
  prob : float;  (** probability the shared resource is down *)
}

(** @raise Invalid_argument on fewer than two members, duplicates across
    the group, or probability outside [0, 1). *)
val make : name:string -> prob:float -> (int * int) list -> t

(** [validate topo t] checks all members exist in the topology. *)
val validate : Wan.Topology.t -> t -> unit
