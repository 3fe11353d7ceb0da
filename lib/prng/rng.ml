type t = { gen : Xoshiro256.t; splitter : Splitmix64.t }

let create seed =
  { gen = Xoshiro256.create seed;
    splitter = Splitmix64.create (Splitmix64.mix (Int64.lognot seed)) }

let of_int seed = create (Int64.of_int seed)

let copy g = { gen = Xoshiro256.copy g.gen; splitter = Splitmix64.copy g.splitter }

let split g = create (Splitmix64.next g.splitter)

let split_n g k = Array.init k (fun _ -> split g)

let bits64 g = Xoshiro256.next g.gen

let bool g = Xoshiro256.bool g.gen

let sign g = if bool g then 1 else -1

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Xoshiro256.int_below g.gen bound

let int_in_range g ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int g (hi - lo + 1)

let float g = Xoshiro256.float g.gen

let bernoulli g p = Xoshiro256.bernoulli g.gen p

let binomial g ~n ~p =
  if n < 0 then invalid_arg "Rng.binomial: n < 0";
  let count = ref 0 in
  for _ = 1 to n do
    if bernoulli g p then incr count
  done;
  !count

let geometric g p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p out of (0,1]";
  let rec loop k = if bernoulli g p then k else loop (k + 1) in
  loop 0

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement g ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected insertions. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let r = int g (j + 1) in
    if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen r ()
  done;
  let out = Array.make k 0 in
  let idx = ref 0 in
  for v = 0 to n - 1 do
    if Hashtbl.mem chosen v then begin
      out.(!idx) <- v;
      incr idx
    end
  done;
  out

let choose g a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int g (Array.length a))
