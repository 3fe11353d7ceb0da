type result = { phases : int; rounds : int; corruptions : int }

let splittable ~x' ~i = x' + i >= 0 && x' - i < 0

(* Mirror of Strategy.split_plan on aggregate counts: honest sum [x]
   over [h] flippers, [e] existing Byzantine committee members, budget cap.
   Returns the number of new corruptions, or None when splitting is
   unaffordable. *)
let kill_cost ~x ~h ~e ~budget =
  let majority_sign = if x >= 0 then 1 else -1 in
  let majority_count = (h + abs x) / 2 in
  let available = min budget majority_count in
  let rec search k =
    if k > available then None
    else begin
      let x' = x - (k * majority_sign) in
      if splittable ~x':x' ~i:(e + k) then Some k else search (k + 1)
    end
  in
  search 0

let run rng ~committees ~budget =
  let c = Ba_core.Committee.count committees in
  let byz_in = Array.make c 0 in
  let budget_left = ref budget in
  let corruptions = ref 0 in
  let rec phase i =
    let j = Ba_core.Committee.for_phase committees ~phase:i in
    let size = Ba_core.Committee.actual_size committees j in
    let e = byz_in.(j) in
    let h = size - e in
    let x = Ba_core.Common_coin.honest_sum rng ~flippers:h in
    if splittable ~x':x ~i:e then phase (i + 1) (* free split: coin dies *)
    else begin
      match kill_cost ~x ~h ~e ~budget:!budget_left with
      | Some k ->
          budget_left := !budget_left - k;
          corruptions := !corruptions + k;
          byz_in.(j) <- e + k;
          phase (i + 1)
      | None ->
          (* The coin survives as a common value; with no decided nodes any
             common coin unifies the honest nodes, and termination takes two
             further phases (Lemma 4 plus the finish grace phase). *)
          { phases = i; rounds = (2 * i) + 4; corruptions = !corruptions }
    end
  in
  phase 1

let alg3 rng ?(alpha = 2.0) ~n ~t ~budget () =
  if budget > t then invalid_arg "Fast_model.alg3: budget > t";
  let c = Ba_core.Params.committees ~alpha ~n ~t () in
  run rng ~committees:(Ba_core.Committee.make ~n ~c) ~budget

let chor_coan rng ?(beta = 1.0) ~n ~t ~budget () =
  if budget > t then invalid_arg "Fast_model.chor_coan: budget > t";
  let g = max 1 (int_of_float (ceil (beta *. Ba_core.Params.log2n n))) in
  let c = max 1 (n / g) in
  run rng ~committees:(Ba_core.Committee.make ~n ~c) ~budget
