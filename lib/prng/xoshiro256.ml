(* The four state words live in a 32-byte [Bytes]. Every draw reads them
   into let-bound int64 locals and writes them back, which ocamlopt keeps
   unboxed without flambda; four [mutable int64] record fields would box
   on every store. The draws that return an int, a bool or a float are
   written here, next to [step], so no intermediate int64 is boxed. *)
type t = Bytes.t

let reseed g seed = Splitmix64.fill g seed

let create seed =
  let g = Bytes.create 32 in
  reseed g seed;
  g

let copy = Bytes.copy

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let[@inline] step g =
  let s0 = Bytes.get_int64_ne g 0 in
  let s1 = Bytes.get_int64_ne g 8 in
  let s2 = Bytes.get_int64_ne g 16 in
  let s3 = Bytes.get_int64_ne g 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne g 0 s0;
  Bytes.set_int64_ne g 8 s1;
  Bytes.set_int64_ne g 16 s2;
  Bytes.set_int64_ne g 24 s3;
  result

let next g = step g

let int_below g bound =
  if bound = 1 then 0
  else begin
    (* Rejection sampling for exact uniformity: raw is uniform in
       [0, 2^63); accept only raws below the largest multiple of [bound]
       not above max_int, so every residue is equally likely. That is
       raw's block [raw - r, raw - r + bound) ending at or below max_int,
       which holds exactly when the sum does not overflow: no second
       division to find the cutoff. *)
    let bound64 = Int64.of_int bound in
    let out = ref (-1) in
    while !out < 0 do
      let raw = Int64.shift_right_logical (step g) 1 in
      let r = Int64.rem raw bound64 in
      if Int64.add (Int64.sub raw r) bound64 >= 0L then out := Int64.to_int r
    done;
    !out
  end

let bool g = step g < 0L

(* 53 random bits scaled to [0, 1). *)
let[@inline] unit_float g = Int64.to_float (Int64.shift_right_logical (step g) 11) *. 0x1.0p-53

let float g = unit_float g

let bernoulli g p = unit_float g < p

let jump_table =
  (* lint: allow D003 -- xoshiro256** jump polynomial: written nowhere, read-only constant *)
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.(logand word (shift_left 1L b)) <> 0L then
          for i = 0 to 3 do
            Bytes.set_int64_ne acc (8 * i)
              (Int64.logxor (Bytes.get_int64_ne acc (8 * i)) (Bytes.get_int64_ne g (8 * i)))
          done;
        ignore (step g : int64)
      done)
    jump_table;
  Bytes.blit acc 0 g 0 32
