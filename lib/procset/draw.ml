type t = { key : int; mutable next : int }

let gamma = 0x1e3779b97f4a7c15 (* splitmix64's golden-ratio step, to 63 bits *)

(* One splitmix64 step from state [x]: advance by [gamma], then
   finalize, keeping the high 62 bits. The Int64 arithmetic stays
   inside this one function, so the compiler keeps it unboxed. *)
let step x =
  let z = Int64.of_int (x + gamma) in
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 2)

let make ~stream seed p t =
  {
    key =
      step
        ((seed * 0x5851f42d4c957f2d)
        + (stream * 0x14057b7ef767814f)
        + (p * 0x2545f4914f6cdd1d)
        + (t * 0x61c8864680b583eb));
    next = 0;
  }

let bits g =
  let i = g.next in
  g.next <- i + 1;
  step (g.key + (i * gamma))

let int g bound =
  if bound <= 0 then invalid_arg "Draw.int: bound must be positive";
  bits g mod bound
