open Ba_core
module A = Ba_sim.Adversary

type timing =
  | T_never
  | T_burst of int
  | T_staggered of { per_round : int; from_round : int }
  | T_random of float

type targeting =
  | Tg_sample
  | Tg_live_shuffle
  | Tg_designated_shuffle
  | Tg_fixed of int list
  | Tg_spare of int

type equiv_pattern = {
  ep_w0 : int;
  ep_w1 : int;
  ep_decided_late : bool;
  ep_flip_mod : int;
}

type tactic =
  | Crash
  | Coin_split of { parity : int }
  | Coin_split_crash
  | Coin_push of { toward : int; rushing : bool }
  | Equivocate of equiv_pattern
  | Starve_threshold of { target : int }
  | Chaos of { drop_prob : float }

type async_bias =
  | Ab_fifo
  | Ab_uniform
  | Ab_avoid of int list
  | Ab_balance
  | Ab_split of { parity : int }

type silence_shape = { sw_group : int; sw_len : int; sw_waves : int; sw_start : int }

type genome = {
  g_timing : timing;
  g_target : targeting;
  g_tactic : tactic;
  g_silences : silence_shape option;
  g_async : async_bias;
}

let base =
  { g_timing = T_never;
    g_target = Tg_sample;
    g_tactic = Crash;
    g_silences = None;
    g_async = Ab_fifo }

(* ------------------------------------------------------------------ *)
(* Catalog points                                                      *)
(* ------------------------------------------------------------------ *)

let silent_point = base

let static_crash_point = { base with g_timing = T_burst 1 }

let staggered_crash_point ~per_round =
  { base with
    g_timing = T_staggered { per_round; from_round = 1 };
    g_target = Tg_live_shuffle }

let crash_at_point ~round ~victims =
  { base with g_timing = T_burst round; g_target = Tg_fixed victims }

let coin_splitter_point = { base with g_tactic = Coin_split { parity = 0 } }

let coin_biaser_point ~toward =
  { base with
    g_timing = T_burst 1;
    g_target = Tg_designated_shuffle;
    g_tactic = Coin_push { toward; rushing = false } }

let committee_killer_point = { base with g_tactic = Coin_split { parity = 0 } }

let crash_committee_killer_point = { base with g_tactic = Coin_split_crash }

let equivocator_point =
  { base with
    g_timing = T_burst 1;
    g_tactic = Equivocate { ep_w0 = 1; ep_w1 = 1; ep_decided_late = true; ep_flip_mod = 4 } }

let lone_finisher_point ~target =
  { base with
    g_timing = T_burst 1;
    g_target = Tg_spare target;
    g_tactic = Starve_threshold { target } }

let random_noise_point ~corrupt_prob =
  { base with
    g_timing = T_random corrupt_prob;
    g_target = Tg_live_shuffle;
    g_tactic = Chaos { drop_prob = 0.3 } }

let async_uniform_point = { base with g_async = Ab_uniform }

let async_delayer_point ~victims = { base with g_async = Ab_avoid victims }

let async_balancer_point = { base with g_async = Ab_balance }

let async_splitter_point = { base with g_async = Ab_split { parity = 0 } }

let catalog ~t =
  [ ("silent", silent_point);
    ("static-crash", static_crash_point);
    ("staggered-crash", staggered_crash_point ~per_round:(max 1 (t / 4)));
    ("committee-killer", committee_killer_point);
    ("crash-committee-killer", crash_committee_killer_point);
    ("equivocator", equivocator_point);
    ("lone-finisher", lone_finisher_point ~target:0);
    ("random-noise", random_noise_point ~corrupt_prob:0.4) ]

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate g =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let timing_ok =
    match g.g_timing with
    | T_never -> Ok ()
    | T_burst r -> if r >= 1 then Ok () else err "burst round %d < 1" r
    | T_staggered { per_round; from_round } ->
        if per_round < 0 then err "staggered per_round %d < 0" per_round
        else if from_round < 1 then err "staggered from_round %d < 1" from_round
        else Ok ()
    | T_random p ->
        if p >= 0.0 && p <= 1.0 then Ok () else err "random timing prob %g outside [0,1]" p
  in
  let target_ok =
    match g.g_target with
    | Tg_sample | Tg_live_shuffle | Tg_designated_shuffle -> Ok ()
    | Tg_fixed vs ->
        if List.for_all (fun v -> v >= 0) vs then Ok () else err "fixed victim < 0"
    | Tg_spare v -> if v >= 0 then Ok () else err "spared node %d < 0" v
  in
  let tactic_ok =
    match g.g_tactic with
    | Crash | Coin_split_crash -> Ok ()
    | Coin_split { parity } ->
        if parity = 0 || parity = 1 then Ok () else err "split parity %d not 0/1" parity
    | Coin_push { toward; _ } ->
        if toward = 0 || toward = 1 then Ok () else err "push toward %d not 0/1" toward
    | Equivocate { ep_w0; ep_w1; ep_flip_mod; _ } ->
        if ep_w0 < 0 || ep_w1 < 0 || ep_w0 + ep_w1 < 1 then
          err "equiv skew weights %d:%d invalid" ep_w0 ep_w1
        else if ep_flip_mod < 2 || ep_flip_mod mod 2 <> 0 then
          err "equiv flip mod %d not a positive even number" ep_flip_mod
        else Ok ()
    | Starve_threshold { target } ->
        if target >= 0 then Ok () else err "starve target %d < 0" target
    | Chaos { drop_prob } ->
        if drop_prob >= 0.0 && drop_prob <= 1.0 then Ok ()
        else err "chaos drop prob %g outside [0,1]" drop_prob
  in
  let silence_ok =
    match g.g_silences with
    | None -> Ok ()
    | Some { sw_group; sw_len; sw_waves; sw_start } ->
        if sw_group < 1 || sw_len < 1 || sw_waves < 0 || sw_start < 1 then
          err "silence shape (g=%d,len=%d,waves=%d,start=%d) malformed" sw_group sw_len
            sw_waves sw_start
        else Ok ()
  in
  let async_ok =
    match g.g_async with
    | Ab_fifo | Ab_uniform | Ab_balance -> Ok ()
    | Ab_avoid vs ->
        if List.for_all (fun v -> v >= 0) vs then Ok () else err "avoided sender < 0"
    | Ab_split { parity } ->
        if parity = 0 || parity = 1 then Ok () else err "async split parity %d not 0/1" parity
  in
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ())
    [ timing_ok; target_ok; tactic_ok; silence_ok; async_ok ]

let check_valid g =
  match validate g with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Strategy: invalid genome (%s)" msg)

(* ------------------------------------------------------------------ *)
(* Naming and serialization                                            *)
(* ------------------------------------------------------------------ *)

let timing_name = function
  | T_never -> "never"
  | T_burst r -> Printf.sprintf "burst%d" r
  | T_staggered { per_round; from_round } -> Printf.sprintf "stag%d.%d" per_round from_round
  | T_random p -> Printf.sprintf "rand%g" p

let target_name = function
  | Tg_sample -> "sample"
  | Tg_live_shuffle -> "live"
  | Tg_designated_shuffle -> "desig"
  | Tg_fixed vs -> Printf.sprintf "fixed%d" (List.length vs)
  | Tg_spare v -> Printf.sprintf "spare%d" v

let tactic_name = function
  | Crash -> "crash"
  | Coin_split { parity } -> Printf.sprintf "split%d" parity
  | Coin_split_crash -> "splitcrash"
  | Coin_push { toward; rushing } ->
      Printf.sprintf "push%d%s" toward (if rushing then "r" else "")
  | Equivocate { ep_w0; ep_w1; ep_decided_late; ep_flip_mod } ->
      Printf.sprintf "equiv%d.%d%s.%d" ep_w0 ep_w1 (if ep_decided_late then "d" else "") ep_flip_mod
  | Starve_threshold { target } -> Printf.sprintf "starve%d" target
  | Chaos { drop_prob } -> Printf.sprintf "chaos%g" drop_prob

let async_name = function
  | Ab_fifo -> "fifo"
  | Ab_uniform -> "uniform"
  | Ab_avoid vs -> Printf.sprintf "avoid%d" (List.length vs)
  | Ab_balance -> "balance"
  | Ab_split { parity } -> Printf.sprintf "asplit%d" parity

let name g =
  let core =
    Printf.sprintf "ir:%s/%s/%s" (tactic_name g.g_tactic) (timing_name g.g_timing)
      (target_name g.g_target)
  in
  let core =
    match g.g_silences with
    | None -> core
    | Some s -> Printf.sprintf "%s/sil%dx%d" core s.sw_waves s.sw_group
  in
  match g.g_async with Ab_fifo -> core | ab -> core ^ "/" ^ async_name ab

let json_timing = function
  | T_never -> {|{"kind":"never"}|}
  | T_burst r -> Printf.sprintf {|{"kind":"burst","round":%d}|} r
  | T_staggered { per_round; from_round } ->
      Printf.sprintf {|{"kind":"staggered","per_round":%d,"from_round":%d}|} per_round from_round
  | T_random p -> Printf.sprintf {|{"kind":"random","prob":%g}|} p

let json_target = function
  | Tg_sample -> {|{"kind":"sample"}|}
  | Tg_live_shuffle -> {|{"kind":"live_shuffle"}|}
  | Tg_designated_shuffle -> {|{"kind":"designated_shuffle"}|}
  | Tg_fixed vs ->
      Printf.sprintf {|{"kind":"fixed","victims":[%s]}|}
        (String.concat "," (List.map string_of_int vs))
  | Tg_spare v -> Printf.sprintf {|{"kind":"spare","node":%d}|} v

let json_tactic = function
  | Crash -> {|{"kind":"crash"}|}
  | Coin_split { parity } -> Printf.sprintf {|{"kind":"coin_split","parity":%d}|} parity
  | Coin_split_crash -> {|{"kind":"coin_split_crash"}|}
  | Coin_push { toward; rushing } ->
      Printf.sprintf {|{"kind":"coin_push","toward":%d,"rushing":%b}|} toward rushing
  | Equivocate { ep_w0; ep_w1; ep_decided_late; ep_flip_mod } ->
      Printf.sprintf {|{"kind":"equivocate","w0":%d,"w1":%d,"decided_late":%b,"flip_mod":%d}|}
        ep_w0 ep_w1 ep_decided_late ep_flip_mod
  | Starve_threshold { target } -> Printf.sprintf {|{"kind":"starve","target":%d}|} target
  | Chaos { drop_prob } -> Printf.sprintf {|{"kind":"chaos","drop_prob":%g}|} drop_prob

let json_async = function
  | Ab_fifo -> {|{"kind":"fifo"}|}
  | Ab_uniform -> {|{"kind":"uniform"}|}
  | Ab_avoid vs ->
      Printf.sprintf {|{"kind":"avoid","senders":[%s]}|}
        (String.concat "," (List.map string_of_int vs))
  | Ab_balance -> {|{"kind":"balance"}|}
  | Ab_split { parity } -> Printf.sprintf {|{"kind":"split","parity":%d}|} parity

let json_silences = function
  | None -> "null"
  | Some { sw_group; sw_len; sw_waves; sw_start } ->
      Printf.sprintf {|{"group":%d,"len":%d,"waves":%d,"start":%d}|} sw_group sw_len sw_waves
        sw_start

let to_json g =
  Printf.sprintf {|{"timing":%s,"target":%s,"tactic":%s,"silences":%s,"async":%s}|}
    (json_timing g.g_timing) (json_target g.g_target) (json_tactic g.g_tactic)
    (json_silences g.g_silences) (json_async g.g_async)

let encode = to_json

(* ------------------------------------------------------------------ *)
(* The corruption-schedule interpreter (shared by every sync lowering)  *)
(* ------------------------------------------------------------------ *)

let need_rng = function
  | Some rng -> rng
  | None -> invalid_arg "Strategy: this genome draws randomness; pass ~rng"

(* Victims of the scheduled (timing x targeting) corruption this round.
   Each branch fixes the draw sequence of the catalog points that use it;
   the runs test_setups pins depend on not reordering the PRNG calls
   here. *)
let scheduled_victims g ~rng ~designated (view : ('s, 'm) A.view) =
  let pick ~k =
    match g.g_target with
    | Tg_sample ->
        Array.to_list
          (Ba_prng.Rng.sample_without_replacement (need_rng rng)
             ~k:(min k view.A.budget_left) ~n:view.A.n)
    | Tg_live_shuffle ->
        let live = Array.of_list (A.live_honest view) in
        Ba_prng.Rng.shuffle (need_rng rng) live;
        let c = min k (min view.A.budget_left (Array.length live)) in
        Array.to_list (Array.sub live 0 c)
    | Tg_designated_shuffle ->
        let candidates = ref [] in
        for v = view.A.n - 1 downto 0 do
          if designated v && not view.A.corrupted.(v) then candidates := v :: !candidates
        done;
        let arr = Array.of_list !candidates in
        Ba_prng.Rng.shuffle (need_rng rng) arr;
        Array.to_list (Array.sub arr 0 (min k (min view.A.budget_left (Array.length arr))))
    | Tg_fixed victims -> victims
    | Tg_spare spared ->
        let candidates =
          Array.of_list (List.filter (fun v -> v <> spared) (A.live_honest view))
        in
        Ba_prng.Rng.shuffle (need_rng rng) candidates;
        Array.to_list
          (Array.sub candidates 0 (min k (min view.A.budget_left (Array.length candidates))))
  in
  match g.g_timing with
  | T_never -> []
  | T_burst round -> if view.A.round = round then pick ~k:view.A.budget_left else []
  | T_staggered { per_round; from_round } ->
      if view.A.round >= from_round then pick ~k:per_round else []
  | T_random p ->
      if view.A.budget_left > 0 && Ba_prng.Rng.bernoulli (need_rng rng) p then begin
        match A.live_honest view with
        | [] -> []
        | live -> [ Ba_prng.Rng.choose (need_rng rng) (Array.of_list live) ]
      end
      else []

(* [] lowers to the shared no-op action, the very value
   [Ba_sim.Adversary.silent] returns. *)
let crash_action = function
  | [] -> A.no_op_action
  | victims -> { A.corrupt = victims; byz_msg = (fun ~src:_ ~dst:_ -> None) }

let rec take k = function
  | [] -> []
  | v :: rest -> if k <= 0 then [] else v :: take (k - 1) rest

(* ------------------------------------------------------------------ *)
(* Shared reactive split machinery (coin + skeleton tactics)            *)
(* ------------------------------------------------------------------ *)

(* Split test: with remaining honest sum [x'] and [i] equivocating designated
   Byzantine nodes, receivers' sums span [x' - i, x' + i]; the tie rule maps
   sum >= 0 to bit 1, so a split needs x' + i >= 0 and x' - i < 0. *)
let splittable ~x' ~i = x' + i >= 0 && x' - i < 0

(* Cheapest set of majority-side flippers to corrupt so the receivers'
   reachable sums straddle zero; None if unaffordable. *)
let split_plan ~flips ~existing ~budget =
  let x = List.fold_left (fun acc (_, f) -> acc + f) 0 flips in
  let majority_sign = if x >= 0 then 1 else -1 in
  let majority = List.filter (fun (_, f) -> f = majority_sign) flips in
  let available = min budget (List.length majority) in
  let rec search k =
    if k > available then None
    else begin
      let x' = x - (k * majority_sign) in
      if splittable ~x' ~i:(existing + k) then Some k else search (k + 1)
    end
  in
  match search 0 with
  | None -> None
  | Some k -> Some (List.filteri (fun idx _ -> idx < k) majority |> List.map fst)

(* Crash-fault variant: deletions only. Crashing k majority-side flippers
   mid-round lets each receiver see any subset of the k suppressed flips,
   so receiver sums span [X - k, X] (for X >= 0; mirrored otherwise): a
   split needs k > X >= 0, i.e. k = X + 1 crashes (and X < 0 costs
   |X| ... 0 >= X + k needs k = |X|, but the tie rule maps sum 0 to bit 1,
   so k = |X| already flips some receivers to >= 0 while full delivery
   keeps others < 0). *)
let crash_split_plan ~flips ~budget =
  let x = List.fold_left (fun acc (_, f) -> acc + f) 0 flips in
  let majority_sign = if x >= 0 then 1 else -1 in
  let majority = List.filter (fun (_, f) -> f = majority_sign) flips in
  let k_needed = if x >= 0 then x + 1 else -x in
  if k_needed <= min budget (List.length majority) then
    Some (List.filteri (fun idx _ -> idx < k_needed) majority |> List.map fst)
  else None

(* Designated flippers that flipped against the push this round, ascending
   id (the rushing coin-push corrupts these first: replacing a -push flip
   with +push moves the sum by 2 per corruption, twice the blind rate). *)
let opposing_flippers ~flips ~push ~budget =
  take budget (List.filter (fun (_, f) -> f = -push) (List.rev flips) |> List.map fst)

(* ------------------------------------------------------------------ *)
(* Common-coin lowering                                                *)
(* ------------------------------------------------------------------ *)

let flips_of_view ~designated view =
  (* (node, flip) for every live honest designated flipper this round. *)
  let acc = ref [] in
  Array.iteri
    (fun v m ->
      if designated v then
        match m with
        | Some (Common_coin.Flip f) when f = 1 || f = -1 -> acc := (v, f) :: !acc
        | Some _ | None -> ())
    view.A.honest_msgs;
  !acc

let count_corrupted_designated ~designated view =
  let c = ref 0 in
  Array.iteri (fun v corrupted -> if corrupted && designated v then incr c) view.A.corrupted;
  !c

let push_of ~toward = if toward = 1 then 1 else -1

let to_coin ?name:adv_name ?rng g ~designated =
  check_valid g;
  let nm = match adv_name with Some s -> s | None -> name g in
  let sched view = scheduled_victims g ~rng ~designated view in
  match g.g_tactic with
  | Crash -> { A.adv_name = nm; act = (fun view -> crash_action (sched view)) }
  | Coin_split { parity } ->
      { A.adv_name = nm;
        act =
          (fun view ->
            let scheduled = sched view in
            let flips = flips_of_view ~designated view in
            let existing = count_corrupted_designated ~designated view in
            match split_plan ~flips ~existing ~budget:view.A.budget_left with
            | None -> crash_action scheduled
            | Some victims ->
                { A.corrupt = scheduled @ victims;
                  byz_msg =
                    (fun ~src ~dst ->
                      if designated src then
                        Some (Common_coin.Flip (if dst mod 2 = parity then 1 else -1))
                      else None) }) }
  | Coin_push { toward; rushing } ->
      let push = push_of ~toward in
      { A.adv_name = nm;
        act =
          (fun view ->
            let scheduled = sched view in
            let corrupt =
              if rushing then
                let flips = flips_of_view ~designated view in
                scheduled @ opposing_flippers ~flips ~push ~budget:view.A.budget_left
              else scheduled
            in
            { A.corrupt;
              byz_msg =
                (fun ~src ~dst:_ ->
                  if designated src then Some (Common_coin.Flip push) else None) }) }
  | Coin_split_crash | Equivocate _ | Starve_threshold _ | Chaos _ ->
      invalid_arg
        (Printf.sprintf "Strategy.to_coin: tactic %s needs skeleton messages"
           (tactic_name g.g_tactic))

(* ------------------------------------------------------------------ *)
(* Generic (message-agnostic) lowering                                 *)
(* ------------------------------------------------------------------ *)

let to_generic ?name:adv_name ?rng g =
  check_valid g;
  (match g.g_tactic with
  | Crash -> ()
  | t ->
      invalid_arg
        (Printf.sprintf "Strategy.to_generic: tactic %s forges messages; use a typed lowering"
           (tactic_name t)));
  let nm = match adv_name with Some s -> s | None -> name g in
  { A.adv_name = nm;
    act =
      (fun view -> crash_action (scheduled_victims g ~rng ~designated:(fun _ -> true) view)) }

(* ------------------------------------------------------------------ *)
(* Skeleton lowering                                                   *)
(* ------------------------------------------------------------------ *)

(* The phase's assigned value b_i: the val of any honest node whose decided
   flag is set (unique among honest nodes by Lemma 3). The views handed to
   the adversary reflect state after the round-1 recv, so during the coin
   round decided flags are exactly the line-14 assignments. *)
let assigned_value view =
  let b = ref None in
  Array.iter
    (fun nv ->
      match nv with
      | Some { Ba_sim.Protocol.nv_decided = true; nv_val; _ } when !b = None -> b := Some nv_val
      | Some _ | None -> ())
    view.A.views;
  !b

let committee_flips ~designated ~phase view =
  let acc = ref [] in
  Array.iteri
    (fun v m ->
      if designated ~phase v then
        match m with
        | Some { Skeleton.m_flip = Some f; _ } when f = 1 || f = -1 -> acc := (v, f) :: !acc
        | Some _ | None -> ())
    view.A.honest_msgs;
  !acc

let corrupted_in_committee ~designated ~phase view =
  let c = ref 0 in
  Array.iteri
    (fun v corrupted -> if corrupted && designated ~phase v then incr c)
    view.A.corrupted;
  !c

let all_live_decided view =
  Array.for_all
    (fun nv ->
      match nv with
      | Some { Ba_sim.Protocol.nv_decided; _ } -> nv_decided
      | None -> true)
    view.A.views

let split_action ~config ~designated ~phase ~parity ~extra ~victims =
  { A.corrupt = extra @ victims;
    byz_msg =
      (fun ~src ~dst ->
        if designated ~phase src then
          Some
            { Skeleton.m_phase = phase;
              m_sub = Skeleton.coin_sub config;
              m_val = 0;
              m_decided = false;
              m_flip = Some (if dst mod 2 = parity then 1 else -1) }
        else None) }

let to_skeleton ?name:adv_name ?rng g ~config ~designated =
  check_valid g;
  let nm = match adv_name with Some s -> s | None -> name g in
  (* The schedule's designated set is phase-local: committees rotate, so
     "designated" at scheduling time means the current phase's members. *)
  let sched ~phase view =
    scheduled_victims g ~rng ~designated:(fun v -> designated ~phase v) view
  in
  match g.g_tactic with
  | Crash ->
      { A.adv_name = nm;
        act =
          (fun view ->
            let phase, _sub = Skeleton.phase_of_round config ~round:view.A.round in
            crash_action (sched ~phase view)) }
  | Coin_split { parity } ->
      { A.adv_name = nm;
        act =
          (fun view ->
            let phase, sub = Skeleton.phase_of_round config ~round:view.A.round in
            let scheduled = sched ~phase view in
            if sub <> Skeleton.coin_sub config then crash_action scheduled
            else if all_live_decided view then
              (* Every honest node resolves round 2 via case 1/2; the coin is
                 dead weight — save the budget. *)
              crash_action scheduled
            else begin
              let flips = committee_flips ~designated ~phase view in
              let existing = corrupted_in_committee ~designated ~phase view in
              let x = List.fold_left (fun acc (_, f) -> acc + f) 0 flips in
              let b_i = assigned_value view in
              let natural_split = splittable ~x':x ~i:existing in
              let natural_value = if x >= 0 then 1 else 0 in
              let must_act =
                (* A coin that comes up common and opposite to b_i keeps the
                   honest nodes split for free; common-and-equal (or common
                   with no b_i) would make the phase good. *)
                match b_i with
                | Some b -> (not natural_split) && natural_value = b
                | None -> not natural_split
              in
              if natural_split then
                split_action ~config ~designated ~phase ~parity ~extra:scheduled ~victims:[]
              else if must_act then begin
                match split_plan ~flips ~existing ~budget:view.A.budget_left with
                | Some victims ->
                    split_action ~config ~designated ~phase ~parity ~extra:scheduled ~victims
                | None -> crash_action scheduled
              end
              else crash_action scheduled
            end) }
  | Coin_split_crash ->
      { A.adv_name = nm;
        act =
          (fun view ->
            let phase, sub = Skeleton.phase_of_round config ~round:view.A.round in
            let scheduled = sched ~phase view in
            if sub <> Skeleton.coin_sub config then crash_action scheduled
            else if all_live_decided view then crash_action scheduled
            else begin
              let flips = committee_flips ~designated ~phase view in
              let x = List.fold_left (fun acc (_, f) -> acc + f) 0 flips in
              let b_i = assigned_value view in
              let natural_value = if x >= 0 then 1 else 0 in
              let must_act = match b_i with Some b -> natural_value = b | None -> true in
              if not must_act then crash_action scheduled
              else begin
                match crash_split_plan ~flips ~budget:view.A.budget_left with
                | None -> crash_action scheduled
                | Some victims ->
                    (* Record each victim's suppressed broadcast so it can be
                       replayed to the chosen half of the receivers. *)
                    let last_words = Hashtbl.create 8 in
                    List.iter
                      (fun v ->
                        match view.A.honest_msgs.(v) with
                        | Some m -> Hashtbl.add last_words v m
                        | None -> ())
                      victims;
                    { A.corrupt = scheduled @ victims;
                      byz_msg =
                        (fun ~src ~dst ->
                          (* Even receivers get the dying flips (sum stays X),
                             odd receivers lose them (sum X - k). *)
                          if dst mod 2 = 0 then Hashtbl.find_opt last_words src else None) }
              end
            end) }
  | Coin_push { toward; rushing } ->
      let push = push_of ~toward in
      { A.adv_name = nm;
        act =
          (fun view ->
            let phase, sub = Skeleton.phase_of_round config ~round:view.A.round in
            let scheduled = sched ~phase view in
            let coin_round = sub = Skeleton.coin_sub config in
            let corrupt =
              if rushing && coin_round then
                let flips = committee_flips ~designated ~phase view in
                scheduled @ opposing_flippers ~flips ~push ~budget:view.A.budget_left
              else scheduled
            in
            { A.corrupt;
              byz_msg =
                (fun ~src ~dst:_ ->
                  if coin_round && designated ~phase src then
                    Some
                      { Skeleton.m_phase = phase;
                        m_sub = Skeleton.coin_sub config;
                        m_val = 0;
                        m_decided = false;
                        m_flip = Some push }
                  else None) }) }
  | Equivocate { ep_w0; ep_w1; ep_decided_late; ep_flip_mod } ->
      { A.adv_name = nm;
        act =
          (fun view ->
            let phase, sub = Skeleton.phase_of_round config ~round:view.A.round in
            let corrupt = sched ~phase view in
            { A.corrupt = corrupt;
              byz_msg =
                (fun ~src:_ ~dst ->
                  Some
                    { Skeleton.m_phase = phase;
                      m_sub = sub;
                      m_val = (if dst mod (ep_w0 + ep_w1) < ep_w0 then 0 else 1);
                      m_decided = ep_decided_late && sub <> Skeleton.R1;
                      m_flip =
                        (if sub = Skeleton.coin_sub config then
                           Some (if dst mod ep_flip_mod < ep_flip_mod / 2 then 1 else -1)
                         else None) }) }) }
  | Starve_threshold { target } ->
      (* Two-stage attack on the early-termination mechanism. Round 1: corrupt
         the whole budget, pick the honest majority value [b], and boost
         exactly [n - 2t] honest nodes (always including [target]) over the
         [n - t] round-1 threshold so they alone decide. Round 2: those
         [n - 2t] real decided-votes plus [t] fakes reach [n - t] — but the
         fakes go to [target] only, so [target] finishes while everyone else
         sits at [n - 2t >= t + 1] (case 2). A literal "broadcast once more"
         would now strand the others below the finish threshold forever; the
         extra-phase realization must still converge. *)
      { A.adv_name = nm;
        act =
          (fun view ->
            let n = view.A.n and t = view.A.t in
            let phase, sub = Skeleton.phase_of_round config ~round:view.A.round in
            let corrupt = sched ~phase view in
            match sub with
            | Skeleton.R1 ->
                (* Honest round-1 vote counts, excluding nodes corrupted right
                   now (their broadcasts are suppressed). *)
                let hc = [| 0; 0 |] in
                Array.iteri
                  (fun v m ->
                    if not (List.mem v corrupt) then
                      match m with
                      | Some { Skeleton.m_sub = Skeleton.R1; m_val; _ }
                        when m_val = 0 || m_val = 1 ->
                          hc.(m_val) <- hc.(m_val) + 1
                      | Some _ | None -> ())
                  view.A.honest_msgs;
                let b = if hc.(1) >= hc.(0) then 1 else 0 in
                if hc.(b) >= n - t || hc.(b) < n - (2 * t) then crash_action corrupt
                else begin
                  (* Boost the first n-2t live honest nodes (target first). *)
                  let boosted = Hashtbl.create 16 in
                  Hashtbl.add boosted target ();
                  let quota = ref ((n - (2 * t)) - 1) in
                  Array.iteri
                    (fun v _ ->
                      if
                        !quota > 0 && v <> target
                        && (not view.A.corrupted.(v))
                        && (not (List.mem v corrupt))
                        && not view.A.halted.(v)
                      then begin
                        Hashtbl.add boosted v ();
                        decr quota
                      end)
                    view.A.honest_msgs;
                  { A.corrupt;
                    byz_msg =
                      (fun ~src:_ ~dst ->
                        if Hashtbl.mem boosted dst then
                          Some
                            { Skeleton.m_phase = phase;
                              m_sub = Skeleton.R1;
                              m_val = b;
                              m_decided = false;
                              m_flip = None }
                        else None) }
                end
            | Skeleton.R2 -> (
                match assigned_value view with
                | None -> crash_action corrupt
                | Some b_i ->
                    let honest_decided = ref 0 in
                    Array.iter
                      (fun m ->
                        match m with
                        | Some { Skeleton.m_sub = Skeleton.R2; m_decided = true; m_val; _ }
                          when m_val = b_i ->
                            incr honest_decided
                        | Some _ | None -> ())
                      view.A.honest_msgs;
                    let byz_count =
                      Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 view.A.corrupted
                    in
                    if !honest_decided >= n - t || !honest_decided + byz_count < n - t then
                      crash_action corrupt
                    else
                      { A.corrupt;
                        byz_msg =
                          (fun ~src:_ ~dst ->
                            if dst = target then
                              Some
                                { Skeleton.m_phase = phase;
                                  m_sub = Skeleton.R2;
                                  m_val = b_i;
                                  m_decided = true;
                                  m_flip = None }
                            else None) })
            | Skeleton.RC -> crash_action corrupt) }
  | Chaos { drop_prob } ->
      { A.adv_name = nm;
        act =
          (fun view ->
            let corrupt = scheduled_victims g ~rng ~designated:(fun _ -> true) view in
            let phase, _sub = Skeleton.phase_of_round config ~round:view.A.round in
            let rng = need_rng rng in
            { A.corrupt;
              byz_msg =
                (fun ~src ~dst ->
                  (* Per-(src,dst) deterministic-ish chaos: draw fresh randomness. *)
                  ignore src;
                  ignore dst;
                  if Ba_prng.Rng.bernoulli rng drop_prob then None
                  else
                    Some
                      { Skeleton.m_phase =
                          max 1 (phase + Ba_prng.Rng.int_in_range rng ~lo:(-1) ~hi:1);
                        m_sub =
                          (match Ba_prng.Rng.int rng 3 with
                          | 0 -> Skeleton.R1
                          | 1 -> Skeleton.R2
                          | _ -> Skeleton.RC);
                        m_val = Ba_prng.Rng.int rng 4 - 1;
                        m_decided = Ba_prng.Rng.bool rng;
                        m_flip =
                          (if Ba_prng.Rng.bool rng then
                             Some (Ba_prng.Rng.int_in_range rng ~lo:(-2) ~hi:2)
                           else None) }) }) }

(* ------------------------------------------------------------------ *)
(* Fault-plan placement lowering                                       *)
(* ------------------------------------------------------------------ *)

(* Rotating send-omission waves: wave j silences sw_group consecutive nodes
   for rounds [start + j*len, start + (j+1)*len). A silenced node keeps
   receiving and stepping (it stays round-synchronized) and resumes sending
   afterwards — the crash-recovery schedule of DESIGN.md §9. At most
   sw_group nodes are silent in any round, so sw_group is what experiments
   charge against the adversary's budget. *)
let to_silences { sw_group; sw_len; sw_waves; sw_start } =
  List.concat_map
    (fun j ->
      let lo = sw_start + (j * sw_len) in
      List.init sw_group (fun i ->
          { Ba_sim.Faults.s_node = (j * sw_group) + i; s_from = lo; s_until = lo + sw_len }))
    (List.init sw_waves Fun.id)
