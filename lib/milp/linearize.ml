let indicator_ge0 m ~name e ~lb ~ub =
  if lb > ub then invalid_arg "Linearize.indicator_ge0: lb > ub";
  let y = Model.binary m name in
  (* y = 1 -> e >= 0 : e >= lb * (1 - y) *)
  Model.add_cons_expr m ~name:(name ^ "_on")
    e Model.Ge
    (Linexpr.of_terms ~const:lb [ (-.lb, y.vid) ]);
  (* y = 0 -> e <= -1 (integer-valued e) : e <= -1 + (ub + 1) * y *)
  Model.add_cons_expr m ~name:(name ^ "_off")
    e Model.Le
    (Linexpr.of_terms ~const:(-1.) [ (ub +. 1., y.vid) ]);
  y

let bool_and m ~name bs =
  let y = Model.binary m name in
  let n = List.length bs in
  List.iteri
    (fun i (b : Model.var) ->
      Model.add_cons_expr m ~name:(Printf.sprintf "%s_le%d" name i) (Model.evar y) Model.Le
        (Model.evar b))
    bs;
  (* y >= sum b - (n - 1) *)
  Model.add_cons_expr m ~name:(name ^ "_ge")
    (Model.evar y) Model.Ge
    (Linexpr.add (Linexpr.sum (List.map Model.evar bs)) (Linexpr.const (float_of_int (1 - n))));
  y

let product_bin_var m ~name (b : Model.var) (y : Model.var) ~lb ~ub =
  if b.kind <> Model.Binary then invalid_arg "Linearize.product_bin_var: not binary";
  if lb > ub then invalid_arg "Linearize.product_bin_var: lb > ub";
  let z = Model.continuous ~lb:(Float.min 0. lb) ~ub:(Float.max 0. ub) m name in
  let ze = Model.evar z and ye = Model.evar y in
  (* b = 0 -> z = 0; b = 1 -> z = y *)
  Model.add_cons_expr m ~name:(name ^ "_ub") ze Model.Le (Linexpr.var ~coeff:ub b.vid);
  Model.add_cons_expr m ~name:(name ^ "_lb") ze Model.Ge (Linexpr.var ~coeff:lb b.vid);
  Model.add_cons_expr m ~name:(name ^ "_le")
    ze Model.Le
    (Linexpr.add ye (Linexpr.of_terms ~const:(-.lb) [ (lb, b.vid) ]));
  Model.add_cons_expr m ~name:(name ^ "_ge")
    ze Model.Ge
    (Linexpr.add ye (Linexpr.of_terms ~const:(-.ub) [ (ub, b.vid) ]));
  z
