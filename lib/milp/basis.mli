(** LU-factorized simplex basis with product-form (eta) updates.

    A basis is an ordered selection of [m] columns of a {!Sparse}
    matrix, one per row position. The factorization is a sparse LU with
    Markowitz ordering and threshold pivoting; each basis exchange
    appends an eta transformation instead of refactorizing, and the
    factorization is rebuilt when the eta file grows past its cap or a
    pivot falls below the stability threshold (with a residual check on
    every rebuild). All counters are domain-local ({!Lp_stats}). *)

type t

(** Raised (by {!create} or a refactorizing {!replace}) when a basis
    stays singular after the slack-repair attempts. Callers should
    degrade — e.g. restart from the all-slack basis or another
    engine — rather than treat this as fatal. *)
exception Singular of string

(** [create a bcols] factorizes the basis formed by columns
    [bcols.(0..m-1)] of [a] (the array is copied). Structurally or
    numerically singular selections are repaired by replacing the
    offending positions with their rows' slack columns — the repair is
    visible through {!bcols}. *)
val create : Sparse.t -> int array -> t

(** Current basis column of every row position (fresh copy). *)
val bcols : t -> int array

(** [ftran t b] solves [B x = b]. [b] is dense, indexed by row; the
    result is indexed by basis position. [b] is not modified.
    @raise Invalid_argument if [b] is shorter than the row count. *)
val ftran : t -> float array -> float array

(** [btran t c] solves [B^T y = c]. [c] is dense, indexed by basis
    position; the result is indexed by row. [c] is not modified. *)
val btran : t -> float array -> float array

(** [btran2 t c1 c2] is [(btran t c1, btran t c2)], bit for bit, from
    one sweep over the factors: every sum runs over the same entries in
    the same order as {!btran}'s. Neither input is modified.
    @raise Invalid_argument if an input is shorter than the row count. *)
val btran2 : t -> float array -> float array -> float array * float array

(** [replace t ~r ~col ~w] installs [col] as the basic column of
    position [r], where [w = ftran t (column col)] is the pivot column
    in position space. Appends an eta update, or refactorizes when the
    eta file is full or [w.(r)] is unstable. Returns [true] when a
    refactorization happened; the rebuild may repair a singular
    selection (as in {!create}), so callers must then re-read {!bcols}
    to reconcile their own column/status bookkeeping and recompute
    values from scratch to shed accumulated drift.
    @raise Invalid_argument if [w] does not have one entry per row. *)
val replace : t -> r:int -> col:int -> w:float array -> bool

(** {1 Factorization snapshots}

    A snapshot freezes a basis's column selection together with its LU
    factors and its eta file; {!of_snapshot} reinstates them without
    refactorizing. The batched scenario engine uses this to pay for one
    factorization of the healthy-network basis and reuse it across
    thousands of warm overlay solves; branch-and-bound snapshots the
    basis after every node LP. A snapshot is an immutable value: sharing
    it between domains is safe, and a reinstated basis yields
    FTRAN/BTRAN results bit-identical to the snapshotted one (not to a
    fresh {!create} of the same columns, which would drop the etas).
    Reinstated bases own their eta files: {!replace} on one never
    affects another. *)

type snapshot

(** [snapshot t] captures [t]'s current basis, eta updates included.
    It performs no factorization and leaves [t] unchanged. *)
val snapshot : t -> snapshot

(** [of_snapshot a s] reinstates [s] against [a]. Returns [None] unless
    [a] is physically the matrix [s] was factorized from — the factors
    are meaningless for any other matrix, even a structurally equal
    one. *)
val of_snapshot : Sparse.t -> snapshot -> t option
