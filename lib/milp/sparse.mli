(** Sparse (CSC) standard form of a model, shared by the revised simplex.

    The internal form is [minimize c'x  s.t.  A x = b,  l <= x <= u] where
    the first [nv] columns are the model's structural variables and column
    [nv + i] is the logical (slack) column of row [i] with coefficient
    [+1]. Slack bounds encode the row sense: [Le] rows get [[0, +inf)],
    [Ge] rows [(-inf, 0]], [Eq] rows the fixed interval [[0, 0]]. The
    matrix depends only on the model's rows — never on variable bounds —
    so one [of_model] result is shared by every branch-and-bound node. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns: [nv] structurals + [m] slacks *)
  nv : int;  (** structural columns *)
  colptr : int array;  (** length [n + 1] *)
  rowind : int array;
  values : float array;
  b : float array;  (** row right-hand sides, length [m] *)
  cost : float array;
      (** minimization costs, length [n] (slack entries are [0.]) *)
  slack_lo : float array;  (** slack lower bounds, length [m] *)
  slack_hi : float array;  (** slack upper bounds, length [m] *)
}

(** Build the CSC standard form. The objective is normalized to
    minimization ([Maximize] objectives are negated). *)
val of_model : Model.t -> t

(** [col_iter a j f] applies [f row value] to every entry of column [j]. *)
val col_iter : t -> int -> (int -> float -> unit) -> unit

(** [col_dot a j y] is the dot product of column [j] with the dense
    row-indexed vector [y]. *)
val col_dot : t -> int -> float array -> float

(** [axpy_col a j alpha x] adds [alpha * column j] into the dense
    row-indexed vector [x]. *)
val axpy_col : t -> int -> float -> float array -> unit
