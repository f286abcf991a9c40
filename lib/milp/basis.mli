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
    visible through {!bcols}. The factorization reads the columns
    unchecked, so they are checked first.
    @raise Invalid_argument unless [bcols] holds [m] columns, each in
    [0 .. n-1]. *)
val create : Sparse.t -> int array -> t

(** Current basis column of every row position (fresh copy). *)
val bcols : t -> int array

(** {1 Solves}

    The solves write into arrays their caller owns and allocate
    nothing: their work arrays belong to the basis, are allocated by its
    first solve and are reused by every later one, refactorizations
    included. Each input and output must hold at least one entry per
    row; only the first [m] entries are read or written. Every input is
    read in full before its output is written, so an output may be its
    own input; otherwise no input is modified. An input or output
    shorter than the row count raises [Invalid_argument]. A basis, its
    work arrays included, is used by one domain at a time. *)

(** [ftran t b ~out] solves [B x = b] into [out]. [b] is dense, indexed
    by row; [out] is indexed by basis position. *)
val ftran : t -> float array -> out:float array -> unit

(** [btran t c ~out] solves [B^T y = c] into [out]. [c] is dense,
    indexed by basis position; [out] is indexed by row. *)
val btran : t -> float array -> out:float array -> unit

(** [btran2 t c1 c2 ~out1 ~out2] does [btran t c1 ~out:out1] and
    [btran t c2 ~out:out2], bit for bit, in one sweep over the factors:
    every sum runs over the same entries in the same order as
    {!btran}'s.
    @raise Invalid_argument if [out1] and [out2] are one array. *)
val btran2 : t -> float array -> float array -> out1:float array -> out2:float array -> unit

(** [replace t ~r ~col ~w] installs [col] as the basic column of
    position [r], where [w] is {!ftran} of column [col], the pivot column
    in position space. Appends an eta update, or refactorizes when the
    eta file is full or [w.(r)] is unstable. Returns [true] when a
    refactorization happened; the rebuild may repair a singular
    selection (as in {!create}), so callers must then re-read {!bcols}
    to reconcile their own column/status bookkeeping and recompute
    values from scratch to shed accumulated drift.
    @raise Invalid_argument if [w] does not have one entry per row, [r]
    is not a position in [0 .. m-1] or [col] not a column in
    [0 .. n-1]. *)
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
