(* The state word lives in an 8-byte [Bytes] and is read into a let-bound
   local, which ocamlopt keeps unboxed; a [mutable int64] field would box
   on every store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 seed;
  g

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix s

let fill b seed =
  let s = ref seed in
  for i = 0 to (Bytes.length b / 8) - 1 do
    s := Int64.add !s golden_gamma;
    Bytes.set_int64_ne b (8 * i) (mix !s)
  done

let split g =
  (* Derive the child seed from the parent's next output; mixing twice keeps
     parent and child streams decorrelated even for adjacent seeds. *)
  create (mix (next g))
