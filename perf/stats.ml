(* The median, averaging the middle pair of an even count; 0 for no
   samples. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let m = Array.length a in
  if m = 0 then 0. else if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.
