(* Differential test of the bounded-variable simplex: on small random
   LPs the optimum of [Milp.Simplex.solve] must match an independent
   oracle that enumerates every basic point (each choice of n active
   hyperplanes among the rows and the box faces), keeps the feasible
   ones, and takes the best objective. The LP optimum is attained at
   such a vertex, so on feasible bounded instances the two agree. *)

let check_float ?(eps = 1e-5) what expected got =
  Alcotest.(check (float eps)) what expected got

(* Solve [a x = b] (n x n) by Gaussian elimination with partial
   pivoting; [None] when (numerically) singular. *)
let gauss a b n =
  let a = Array.map Array.copy a and b = Array.copy b in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      let piv = ref col in
      for r = col + 1 to n - 1 do
        if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
      done;
      if Float.abs a.(!piv).(col) < 1e-9 then ok := false
      else begin
        let tmp = a.(col) in
        a.(col) <- a.(!piv);
        a.(!piv) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!piv);
        b.(!piv) <- tb;
        for r = 0 to n - 1 do
          if r <> col then begin
            let f = a.(r).(col) /. a.(col).(col) in
            for c = col to n - 1 do
              a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
            done;
            b.(r) <- b.(r) -. (f *. b.(col))
          end
        done
      end
    end
  done;
  if !ok then Some (Array.init n (fun i -> b.(i) /. a.(i).(i))) else None

(* Max of [c.x] s.t. [rows x <= rhs], [0 <= x <= ub], by enumerating
   every subset of n active hyperplanes. Hyperplane j < m is row j;
   then x_i = 0, then x_i = ub_i. *)
let brute_force ~c ~rows ~rhs ~ub =
  let n = Array.length c and m = Array.length rows in
  let nh = m + (2 * n) in
  let plane j =
    if j < m then (rows.(j), rhs.(j))
    else if j < m + n then
      (Array.init n (fun i -> if i = j - m then 1. else 0.), 0.)
    else
      let i = j - m - n in
      (Array.init n (fun i' -> if i' = i then 1. else 0.), ub.(i))
  in
  let best = ref neg_infinity in
  let chosen = Array.make n 0 in
  let feasible x =
    let ok = ref true in
    Array.iteri
      (fun i xi -> if xi < -1e-7 || xi > ub.(i) +. 1e-7 then ok := false)
      x;
    Array.iteri
      (fun j row ->
        let lhs = ref 0. in
        Array.iteri (fun i a -> lhs := !lhs +. (a *. x.(i))) row;
        if !lhs > rhs.(j) +. 1e-7 then ok := false)
      rows;
    !ok
  in
  let try_vertex () =
    let a = Array.make n [||] and b = Array.make n 0. in
    Array.iteri
      (fun i j ->
        let row, r = plane j in
        a.(i) <- row;
        b.(i) <- r)
      chosen;
    match gauss a b n with
    | None -> ()
    | Some x ->
      if feasible x then begin
        let obj = ref 0. in
        Array.iteri (fun i ci -> obj := !obj +. (ci *. x.(i))) c;
        if !obj > !best then best := !obj
      end
  in
  let rec choose pos from =
    if pos = n then try_vertex ()
    else
      for j = from to nh - (n - pos) do
        chosen.(pos) <- j;
        choose (pos + 1) (j + 1)
      done
  in
  choose 0 0;
  !best

let build_model ~c ~rows ~rhs ~ub =
  let m = Milp.Model.create () in
  let vars =
    Array.mapi (fun i u -> Milp.Model.continuous ~ub:u m (Printf.sprintf "x%d" i)) ub
  in
  Array.iteri
    (fun j row ->
      let terms =
        Array.to_list (Array.mapi (fun i a -> (a, vars.(i).Milp.Model.vid)) row)
      in
      Milp.Model.add_cons m (Milp.Linexpr.of_terms terms) Milp.Model.Le rhs.(j))
    rows;
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.of_terms
       (Array.to_list (Array.mapi (fun i ci -> (ci, vars.(i).Milp.Model.vid)) c)));
  m

let test_random_lps () =
  for case = 0 to 49 do
    let rng = Random.State.make [| 0xd1f; case |] in
    let n = 2 + (case mod 4) in
    let m = 1 + Random.State.int rng (n + 2) in
    let ub = Array.init n (fun _ -> 1. +. Random.State.float rng 9.) in
    let c = Array.init n (fun _ -> Random.State.float rng 10. -. 5.) in
    let rows =
      Array.init m (fun _ ->
          Array.init n (fun _ -> Random.State.float rng 4. -. 2.))
    in
    (* rhs >= 0 keeps the origin feasible, so every instance is feasible
       and the box keeps it bounded *)
    let rhs = Array.init m (fun _ -> Random.State.float rng 5.) in
    let expected = brute_force ~c ~rows ~rhs ~ub in
    let model = build_model ~c ~rows ~rhs ~ub in
    match Milp.Simplex.solve model with
    | Milp.Simplex.Optimal { obj; values } ->
      let eps = 1e-5 *. (1. +. Float.abs expected) in
      check_float ~eps
        (Printf.sprintf "case %d (n=%d m=%d): simplex %.6f vs oracle %.6f" case n
           m obj expected)
        expected obj;
      (match
         (Milp.Certify.check_compiled ~tols:(Milp.Certify.gate_tolerances ~int_tol:1e-6)
            (Milp.Certify.compile model) values)
           .Milp.Certify.failure
       with
      | None -> ()
      | Some reason -> Alcotest.failf "case %d: infeasible solution: %s" case reason)
    | Milp.Simplex.Infeasible -> Alcotest.failf "case %d: reported infeasible" case
    | Milp.Simplex.Unbounded -> Alcotest.failf "case %d: reported unbounded" case
    | Milp.Simplex.Iter_limit -> Alcotest.failf "case %d: iteration limit" case
  done

let test_degenerate_vertex () =
  (* (1,1) is over-determined: three constraints active at the optimum *)
  let c = [| 1.; 1. |] in
  let rows = [| [| 1.; 1. |]; [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 2. |] |] in
  let rhs = [| 2.; 1.; 1.; 3. |] in
  let ub = [| 10.; 10. |] in
  match Milp.Simplex.solve (build_model ~c ~rows ~rhs ~ub) with
  | Milp.Simplex.Optimal { obj; _ } -> check_float "degenerate optimum" 2. obj
  | _ -> Alcotest.fail "expected optimal"

let test_degenerate_zero_rhs () =
  (* x <= 0 pins x at its lower bound; optimum rides y alone *)
  let c = [| 3.; 2. |] in
  let rows = [| [| 1.; 0. |]; [| 1.; 1. |] |] in
  let rhs = [| 0.; 4. |] in
  let ub = [| 5.; 5. |] in
  match Milp.Simplex.solve (build_model ~c ~rows ~rhs ~ub) with
  | Milp.Simplex.Optimal { obj; values } ->
    check_float "optimum" 8. obj;
    check_float "x pinned at 0" 0. values.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_unbounded () =
  let m = Milp.Model.create () in
  let x = Milp.Model.continuous m "x" in
  let y = Milp.Model.continuous m "y" in
  Milp.Model.add_cons m
    (Milp.Linexpr.of_terms [ (1., x.Milp.Model.vid); (-1., y.Milp.Model.vid) ])
    Milp.Model.Le 1.;
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.of_terms [ (1., x.Milp.Model.vid); (1., y.Milp.Model.vid) ]);
  match Milp.Simplex.solve m with
  | Milp.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_infeasible () =
  let m = Milp.Model.create () in
  let x = Milp.Model.continuous ~ub:5. m "x" in
  Milp.Model.add_cons m
    (Milp.Linexpr.of_terms [ (1., x.Milp.Model.vid) ])
    Milp.Model.Le (-1.);
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.of_terms [ (1., x.Milp.Model.vid) ]);
  match Milp.Simplex.solve m with
  | Milp.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_minimize_sense () =
  (* min x - y over the box with x + y <= 3: optimum at x=0, y=3 *)
  let m = Milp.Model.create () in
  let x = Milp.Model.continuous ~ub:4. m "x" in
  let y = Milp.Model.continuous ~ub:4. m "y" in
  Milp.Model.add_cons m
    (Milp.Linexpr.of_terms [ (1., x.Milp.Model.vid); (1., y.Milp.Model.vid) ])
    Milp.Model.Le 3.;
  Milp.Model.set_objective m Milp.Model.Minimize
    (Milp.Linexpr.of_terms [ (1., x.Milp.Model.vid); (-1., y.Milp.Model.vid) ]);
  match Milp.Simplex.solve m with
  | Milp.Simplex.Optimal { obj; _ } -> check_float "minimum" (-3.) obj
  | _ -> Alcotest.fail "expected optimal"

let suite =
  [
    ("50 random LPs vs vertex oracle", `Quick, test_random_lps);
    ("degenerate vertex", `Quick, test_degenerate_vertex);
    ("degenerate zero rhs", `Quick, test_degenerate_zero_rhs);
    ("unbounded detected", `Quick, test_unbounded);
    ("infeasible detected", `Quick, test_infeasible);
    ("minimize sense honoured", `Quick, test_minimize_sense);
  ]
