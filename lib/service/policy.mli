(** Invalidation policy: does the cached worst-case answer survive the
    events applied since it was computed?

    Pure decision logic, separated from the solving machinery so the
    soundness test can drive it over a generated corpus. The tiers:

    - {b Cached}: the structure is unchanged, no probability estimate
      drifted past the tolerance, and no currently-down link lies in
      the cached worst case's support — the answer is served as-is.
    - {b Warm}: only probability-side state moved (drift past the
      tolerance, or a live failure inside the cached support). The
      worst case is re-solved over the new estimates, reusing the
      persistent screening engine; the model solved is the one a cold
      solve of the same state would build.
    - {b Cold}: there is no cached answer, or the formulation structure
      itself changed (capacity or demand-envelope event). The solve is
      the same as a warm one; the screening engine is rebuilt because
      it is keyed on the structure generation, not because of this
      verdict. *)

type verdict = Cached | Warm | Cold

val verdict_name : verdict -> string

(** [decide ~structural_changed ~drift ~drift_tol ~down_in_support] —
    see the tier descriptions above. [drift] is the max absolute change
    of any per-link probability estimate since the cached solve
    ([infinity] when there is no cached answer). *)
val decide :
  structural_changed:bool ->
  drift:float ->
  drift_tol:float ->
  down_in_support:bool ->
  verdict

(** Max absolute componentwise difference; [infinity] on length
    mismatch (a structural change also resized the link set). *)
val drift : float array -> float array -> float
