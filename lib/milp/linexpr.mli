(** Linear expressions over model variables.

    A linear expression is an affine function [sum_i coeff_i * x_i + const]
    where the [x_i] are identified by integer variable ids allocated by
    {!Model}. Expressions are immutable persistent values. *)

type t

val zero : t

(** [var ?coeff id] is the expression [coeff * x_id] (default coefficient
    [1.0]). *)
val var : ?coeff:float -> int -> t

(** [const c] is the constant expression [c]. *)
val const : float -> t

(** [of_terms ?const terms] builds an expression from
    [(coefficient, var id)] pairs; repeated ids are summed. *)
val of_terms : ?const:float -> (float * int) list -> t

val add : t -> t -> t
val sub : t -> t -> t

(** [scale k e] multiplies every coefficient and the constant by [k]. *)
val scale : float -> t -> t

(** [add_term e coeff id] adds [coeff * x_id] to [e]. *)
val add_term : t -> float -> int -> t

val neg : t -> t

(** Sum of a list of expressions. *)
val sum : t list -> t

val constant : t -> float

(** [terms e] lists the (coefficient, var id) pairs with non-zero
    coefficients, in increasing id order. *)
val terms : t -> (float * int) list

(** [iter f e] applies [f id coeff] to every non-zero term. *)
val iter : (int -> float -> unit) -> t -> unit

(** [eval values e] evaluates [e] with [values.(id)] as the value of
    [x_id]. *)
val eval : float array -> t -> float

val is_constant : t -> bool
