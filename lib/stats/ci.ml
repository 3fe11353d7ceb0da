type interval = { lo : float; hi : float }

let wilson ~successes ~trials ~z =
  if trials <= 0 then invalid_arg "Ci.wilson: trials <= 0";
  if successes < 0 || successes > trials then invalid_arg "Ci.wilson: successes out of range";
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let center = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
  in
  { lo = Float.max 0. (center -. half); hi = Float.min 1. (center +. half) }

let wilson95 ~successes ~trials = wilson ~successes ~trials ~z:1.96


let bootstrap ?(iterations = 1000) ~rng ~statistic xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Ci.bootstrap: empty sample";
  let stats =
    Array.init iterations (fun _ ->
        let resample = Array.init n (fun _ -> xs.(Ba_prng.Rng.int rng n)) in
        statistic resample)
  in
  { lo = Quantiles.quantile stats 0.025; hi = Quantiles.quantile stats 0.975 }

let contains i x = x >= i.lo && x <= i.hi

let pp fmt i = Format.fprintf fmt "[%.4f, %.4f]" i.lo i.hi
