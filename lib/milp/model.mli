(** Mutable MILP model builder.

    A model collects decision variables (continuous, binary or general
    integer, each with bounds), linear constraints and a linear objective.
    Variables are identified by dense integer ids so solutions can be
    stored in flat arrays. *)

type var_kind = Continuous | Binary | Integer

type sense = Maximize | Minimize

type rel = Le | Ge | Eq

type var = private {
  vid : int;
  vname : string;
  kind : var_kind;
  lb : float;
  ub : float;
}

type cons = private { cname : string; lhs : Linexpr.t; rel : rel; rhs : float }

type t

val create : ?name:string -> unit -> t

val name : t -> string

(** [add_var m ~name ~kind ~lb ~ub] allocates a fresh variable.
    Binary variables are clamped to bounds within [0, 1].
    @raise Invalid_argument if [lb > ub]. *)
val add_var :
  t -> name:string -> kind:var_kind -> lb:float -> ub:float -> var

(** Continuous variable, default bounds [0, +inf). *)
val continuous : ?lb:float -> ?ub:float -> t -> string -> var

(** Binary variable in [{0, 1}]. *)
val binary : t -> string -> var

(** [evar v] is the expression [x_v]. *)
val evar : var -> Linexpr.t

(** General integer variable. *)
val integer : ?lb:float -> ?ub:float -> t -> string -> var

(** [add_cons m ~name lhs rel rhs] adds the constraint [lhs rel rhs].
    Constant terms inside [lhs] are moved to the right-hand side. *)
val add_cons : t -> ?name:string -> Linexpr.t -> rel -> float -> unit

(** [add_cons_expr m ~name lhs rel rhs] adds [lhs rel rhs] where both
    sides are expressions. *)
val add_cons_expr : t -> ?name:string -> Linexpr.t -> rel -> Linexpr.t -> unit

val set_objective : t -> sense -> Linexpr.t -> unit

val objective : t -> sense * Linexpr.t

val num_vars : t -> int
val num_cons : t -> int

(** Number of binary/integer variables. *)
val num_int_vars : t -> int

val vars : t -> var array
val conss : t -> cons array

val var_of_id : t -> int -> var
val var_name : t -> int -> string

(** Lower/upper bound arrays indexed by variable id (fresh copies). *)
val bounds : t -> float array * float array

(** Ids of integer-constrained (binary or integer) variables. *)
val int_var_ids : t -> int list

(** [check_feasible ?tol m values] is [None] when [values] satisfies all
    constraints, bounds and integrality within [tol], and otherwise
    [Some reason]. *)
val check_feasible : ?tol:float -> t -> float array -> string option

(** Evaluate the objective expression at a point. *)
val objective_value : t -> float array -> float
