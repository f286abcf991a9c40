(** Standard big-M / McCormick linearization helpers.

    These encode the non-convex gadgets Raha extracts into the outer
    problem (§5 of the paper): products of binary and bounded continuous
    variables, indicator functions over integer-valued expressions
    (Eq. 5), and simple boolean algebra over binaries. *)

(** [indicator_ge0 m ~name e ~lb ~ub] returns a fresh binary [y] with
    [y = 1 <-> e >= 0], valid when [e] is integer-valued with range
    [[lb, ub]]. This linearizes the indicator of Eq. 5. *)
val indicator_ge0 :
  Model.t -> name:string -> Linexpr.t -> lb:float -> ub:float -> Model.var

(** [bool_and m ~name bs] returns binary [y = b1 /\ ... /\ bn]. *)
val bool_and : Model.t -> name:string -> Model.var list -> Model.var

(** [product_bin_var m ~name b y ~lb ~ub] returns [z = b * y] where [y]
    is a continuous variable with value in [[lb, ub]] (bounds may be
    negative). Exact for binary [b]. *)
val product_bin_var :
  Model.t -> name:string -> Model.var -> Model.var -> lb:float -> ub:float -> Model.var
