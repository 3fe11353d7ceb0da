(* Engine delivery checked against a textbook reference round loop, on
   every topology plan.

   The reference builds every inbox the plain way. On a restricted plan
   (DESIGN.md §13) it fills per-recipient [(src, payload)] lists in one
   src-ascending pass and copies them into per-recipient arrays. On the
   dense plan it runs the per-link loop over all n - 1 peers, recipients
   ascending then senders ascending, into a fresh n-slot array per
   recipient read through [Plane.of_array]. Every delivery is metered one
   message at a time; there are no shared buffers and no batched metering.
   A QCheck property runs it and [Engine.run] side by side over random
   small configurations, with Byzantine senders whose payloads vary by
   recipient and draw from the adversary's stream, catalog crash attacks
   lowered from [Strategy] genomes, and fault plans that drop, duplicate,
   corrupt and silence. The outcome and every metrics counter must
   agree. *)

module Engine = Ba_sim.Engine
module Faults = Ba_sim.Faults
module Metrics = Ba_sim.Metrics
module Plane = Ba_sim.Plane
module Protocol = Ba_sim.Protocol
module Adversary = Ba_sim.Adversary
module Run = Ba_sim.Run
module Topology = Ba_sim.Topology
module Strategy = Ba_adversary.Strategy
module Rng = Ba_prng.Rng

(* ---------------- reference round loop ---------------- *)

let reference_run ?faults ?congest_limit_bits ~topology ~max_rounds
    ~(protocol : ('s, 'm) Protocol.t) ~(adversary : ('s, 'm) Adversary.t) ~n ~t ~inputs ~seed () =
  let faults =
    match faults with
    | Some plan when not (Faults.is_none plan) -> Some (Faults.instantiate plan ~n ~seed)
    | Some _ | None -> None
  in
  let topo =
    if Topology.is_dense topology then None else Some (Topology.instantiate topology ~n ~seed)
  in
  let node_rngs = Rng.split_n (Rng.create seed) n in
  let ctx_of v = { Protocol.n; t; me = v; rng = node_rngs.(v) } in
  let states = Array.init n (fun v -> protocol.init (ctx_of v) ~input:inputs.(v)) in
  let corrupted = Array.make n false in
  let halted = Array.make n false in
  let used = ref 0 in
  let metrics = Metrics.create () in
  let meter p ~byzantine =
    let bits = protocol.msg_bits p in
    Metrics.record_message metrics ~bits ~words:(protocol.msg_words p) ~byzantine;
    match congest_limit_bits with
    | Some limit when bits > limit -> Metrics.record_congest_violation metrics
    | Some _ | None -> ()
  in
  let live v = (not corrupted.(v)) && not halted.(v) in
  let finished () = List.for_all (fun v -> not (live v)) (List.init n Fun.id) in
  let round = ref 0 in
  while (not (finished ())) && !round < max_rounds do
    incr round;
    let r = !round in
    Metrics.record_round metrics;
    let honest =
      Array.init n (fun v -> if live v then protocol.send (ctx_of v) states.(v) ~round:r else None)
    in
    Option.iter
      (fun inst ->
        for v = 0 to n - 1 do
          if live v && Option.is_some honest.(v) && Faults.silenced inst ~node:v ~round:r then begin
            honest.(v) <- None;
            Metrics.record_crash_silence metrics
          end
        done)
      faults;
    let action =
      adversary.act
        { Adversary.round = r;
          n;
          t;
          corrupted = Array.copy corrupted;
          budget_left = t - !used;
          halted = Array.copy halted;
          honest_msgs = Array.copy honest;
          states = Array.init n (fun v -> if live v then Some states.(v) else None);
          views = Array.init n (fun v -> if live v then protocol.inspect states.(v) else None) }
    in
    List.iter
      (fun v ->
        if v >= 0 && v < n && (not corrupted.(v)) && !used < t then begin
          corrupted.(v) <- true;
          incr used;
          honest.(v) <- None
        end)
      action.corrupt;
    let deliver ~src ~dst raw ~byzantine =
      let m =
        match faults with
        | Some inst -> Faults.deliver inst ~metrics ~round:r ~src ~dst raw
        | None -> raw
      in
      Option.iter (fun p -> meter p ~byzantine) m;
      m
    in
    (match topo with
    | None ->
        for u = 0 to n - 1 do
          if live u then begin
            let data = Array.make n None in
            data.(u) <- honest.(u);
            for v = 0 to n - 1 do
              if v <> u then
                let byzantine = corrupted.(v) in
                let raw = if byzantine then action.byz_msg ~src:v ~dst:u else honest.(v) in
                data.(v) <- deliver ~src:v ~dst:u raw ~byzantine
            done;
            states.(u) <-
              protocol.recv (ctx_of u) states.(u) ~round:r
                ~inbox:(Plane.of_array ?encode:protocol.codec data)
          end
        done
    | Some topo ->
        let inboxes = Array.make n [] in
        let send ~src ~dst raw ~byzantine =
          Option.iter
            (fun p -> inboxes.(dst) <- (src, p) :: inboxes.(dst))
            (deliver ~src ~dst raw ~byzantine)
        in
        for v = 0 to n - 1 do
          if corrupted.(v) then
            Array.iter
              (fun u -> if live u then send ~src:v ~dst:u (action.byz_msg ~src:v ~dst:u) ~byzantine:true)
              (Topology.recipients topo ~round:r ~src:v)
          else if live v then
            match honest.(v) with
            | Some p ->
                inboxes.(v) <- (v, p) :: inboxes.(v);
                Array.iter
                  (fun u -> if live u then send ~src:v ~dst:u (Some p) ~byzantine:false)
                  (Topology.recipients topo ~round:r ~src:v)
            | None -> ()
        done;
        for u = 0 to n - 1 do
          if live u then begin
            let entries = Array.of_list (List.rev inboxes.(u)) in
            let srcs = Array.map fst entries in
            let msgs = Array.map (fun (_, p) -> Some p) entries in
            let codes = Option.map (fun enc -> Array.map (fun (_, p) -> enc p) entries) protocol.codec in
            let inbox = Plane.sparse_slice ?codes ~n ~srcs ~msgs ~lo:0 ~hi:(Array.length srcs) () in
            states.(u) <- protocol.recv (ctx_of u) states.(u) ~round:r ~inbox
          end
        done);
    for v = 0 to n - 1 do
      if live v && protocol.halted states.(v) then halted.(v) <- true
    done
  done;
  { Run.protocol_name = protocol.name;
    adversary_name = adversary.adv_name;
    n;
    t;
    inputs = Array.copy inputs;
    span = Run.Rounds !round;
    completed = finished ();
    outputs = Array.init n (fun v -> if corrupted.(v) then None else protocol.output states.(v));
    corrupted;
    corruptions_used = !used;
    metrics }

(* ---------------- a protocol that notices every delivery ----------------

   Each recv folds the whole inbox (sender ids, payload fields, the
   packed-code tally kernels and a few point lookups) into a running
   digest, and the digest is the node's output, so any difference in who
   heard what, in which order, changes the outcome. Nodes send only on
   some rounds and halt at staggered rounds, so live sets shrink. *)

type msg = { m_round : int; m_val : int; m_decided : bool; m_flip : int option; m_tag : int }

type state = { acc : int; value : int; stop : bool }

let mix acc x = ((acc * 1_000_003) + x + 17) land 0x3FFF_FFFF_FFFF

let msg_code m =
  Plane.code ~phase:m.m_round ~sub:0 ~decided:m.m_decided ~vote:m.m_val ~flip:m.m_flip

let digest_protocol =
  let send (ctx : Protocol.ctx) s ~round =
    if (s.acc + round + ctx.me) mod 5 = 0 then None
    else
      Some
        { m_round = round;
          m_val = s.value;
          m_decided = s.acc land 1 = 1;
          m_flip = Some (if Rng.bool ctx.rng then 1 else -1);
          m_tag = s.acc land 0xff }
  in
  let recv (ctx : Protocol.ctx) s ~round ~inbox =
    let acc = ref s.acc in
    Plane.iteri
      (fun src m ->
        acc := mix !acc src;
        Option.iter (fun m -> acc := mix (mix !acc m.m_val) (m.m_round + m.m_tag)) m)
      inbox;
    let z, o = Plane.vote_counts inbox ~phase:round ~sub:0 ~decided_only:false in
    let dz, d1 = Plane.vote_counts inbox ~phase:round ~sub:0 ~decided_only:true in
    let sum = Plane.signed_sum inbox ~phase:round ~sub:0 ~members:(fun v -> v mod 3 <> 0) in
    let probe v = match Plane.get inbox v with Some m -> m.m_tag + 1 | None -> 0 in
    let acc = List.fold_left mix !acc [ z; o; dz; d1; sum; probe ctx.me; probe ((ctx.me + 1) mod ctx.n) ] in
    { acc;
      value = (if o > z then 1 else if z > o then 0 else s.value);
      stop = round >= 3 + (ctx.me mod 4) }
  in
  { Protocol.name = "digest";
    init = (fun ctx ~input -> { acc = mix input ctx.me; value = input; stop = false });
    send;
    recv;
    output = (fun s -> if s.stop then Some s.acc else None);
    halted = (fun s -> s.stop);
    msg_bits = (fun m -> 4 + (m.m_tag land 7));
    msg_words = (fun m -> 1 + (m.m_tag land 1));
    codec = Some msg_code;
    inspect =
      (fun s ->
        Some { Protocol.nv_phase = 0; nv_val = s.value; nv_decided = s.stop; nv_finished = s.stop }) }

(* Corrupts the scheduled nodes, plus the lowest live sender of a 1-vote
   from round 2 on, and equivocates: a Byzantine payload depends on the
   recipient and on a draw from the adversary's own stream, so both the
   set of [byz_msg] calls and their order must match. *)
let equivocator ~schedule ~seed =
  let rng = Rng.create seed in
  let act (view : (state, msg) Adversary.view) =
    let scheduled = List.filter_map (fun (r, v) -> if r = view.round then Some v else None) schedule in
    let chosen =
      if view.round < 2 then []
      else
        let rec first v =
          if v >= view.n then []
          else
            match view.honest_msgs.(v) with
            | Some m when m.m_val = 1 -> [ v ]
            | Some _ | None -> first (v + 1)
        in
        first 0
    in
    let round = view.round in
    { Adversary.corrupt = scheduled @ chosen;
      byz_msg =
        (fun ~src ~dst ->
          match (src + dst + Rng.int rng 4) mod 4 with
          | 0 -> None
          | 1 -> Some { m_round = round; m_val = dst land 1; m_decided = true; m_flip = Some 1; m_tag = src }
          | 2 -> Some { m_round = round + 1; m_val = 0; m_decided = false; m_flip = None; m_tag = dst }
          | _ -> Some { m_round = round; m_val = 1 - (dst land 1); m_decided = false; m_flip = Some (-1); m_tag = 3 }) }
  in
  { Adversary.adv_name = "equivocator"; act }

(* ---------------- the differential property ---------------- *)

(* The test's own equivocator on a corruption schedule, or a crash-tactic
   [Strategy] genome (the catalog's message-agnostic attacks and random
   timing/targeting points) lowered through [Strategy.to_generic]. *)
type attack = Equivocator of (int * int) list | Genome of Strategy.genome

type config = {
  c_n : int;
  c_t : int;
  c_plan : Topology.plan;
  c_attack : attack;
  c_drop : float;
  c_dup : float;
  c_corrupt : float;
  c_silences : (int * int * int) list;
  c_congest : int option;
  c_seed : int;
}

let plan_name = function
  | Topology.Dense -> "dense"
  | Topology.Sampled { degree } -> Printf.sprintf "sampled %d" degree
  | Topology.Committees { count } -> Printf.sprintf "committees %d" count

let attack_name = function
  | Equivocator schedule ->
      Printf.sprintf "equivocator schedule=[%s]"
        (String.concat "; " (List.map (fun (r, v) -> Printf.sprintf "r%d:%d" r v) schedule))
  | Genome g -> "genome " ^ Strategy.to_json g

let print_config c =
  Printf.sprintf "n=%d t=%d %s %s drop=%g dup=%g corrupt=%g silences=[%s] congest=%s seed=%d"
    c.c_n c.c_t (plan_name c.c_plan) (attack_name c.c_attack)
    c.c_drop c.c_dup c.c_corrupt
    (String.concat "; " (List.map (fun (v, a, b) -> Printf.sprintf "%d@[%d,%d)" v a b) c.c_silences))
    (match c.c_congest with Some b -> string_of_int b | None -> "-")
    c.c_seed

let crash_catalog ~t =
  List.filter (fun (_, g) -> g.Strategy.g_tactic = Strategy.Crash) (Strategy.catalog ~t)

let gen_genome ~n ~t =
  let open QCheck.Gen in
  let node = int_range 0 (n - 1) in
  let composed =
    let* timing =
      oneof
        [ return Strategy.T_never;
          map (fun r -> Strategy.T_burst r) (int_range 1 4);
          map2
            (fun per_round from_round -> Strategy.T_staggered { per_round; from_round })
            (int_range 0 3) (int_range 1 3);
          map (fun p -> Strategy.T_random p) (oneofl [ 0.2; 0.6 ]) ]
    and* target =
      oneof
        [ return Strategy.Tg_sample;
          return Strategy.Tg_live_shuffle;
          return Strategy.Tg_designated_shuffle;
          map (fun vs -> Strategy.Tg_fixed vs) (list_size (int_range 0 3) node);
          map (fun v -> Strategy.Tg_spare v) node ]
    in
    return { Strategy.base with g_timing = timing; g_target = target }
  in
  oneof [ oneofl (List.map snd (crash_catalog ~t)); composed ]

(* A fifth of the configurations have no corruption budget and a third no
   fault plan, so restricted runs often have clean rounds, whose slices
   read the round's broadcasts by sender id. With a budget, the
   equivocator's first corruption often lands mid-run, so one run reads
   both slice kinds. *)
let gen_config =
  let open QCheck.Gen in
  let* n = int_range 2 32 in
  let* t = frequency [ (1, return 0); (4, int_range 1 (n - 1)) ] in
  let* plan =
    oneof
      [ return Topology.Dense;
        map (fun d -> Topology.Sampled { degree = d }) (int_range 1 (n - 1));
        map (fun c -> Topology.Committees { count = c }) (int_range 1 n) ]
  in
  let* attack =
    frequency
      [ (3, map (fun s -> Equivocator s)
              (list_size (int_range 0 4) (pair (int_range 1 6) (int_range 0 (n - 1)))));
        ((if t > 0 then 1 else 0), map (fun g -> Genome g) (gen_genome ~n ~t)) ]
  in
  let* faulty = frequency [ (2, return true); (1, return false) ] in
  let prob = if faulty then oneofl [ 0.0; 0.0; 0.1; 0.3 ] else return 0.0 in
  let* drop = prob and* dup = prob and* corrupt = prob in
  let* silences =
    list_size (if faulty then int_range 0 3 else return 0)
      (let* v = int_range 0 (n - 1) and* from = int_range 1 5 and* len = int_range 1 3 in
       return (v, from, from + len))
  in
  let* congest = opt (int_range 4 11) in
  let* seed = int_range 0 1_000_000 in
  return
    { c_n = n; c_t = t; c_plan = plan; c_attack = attack; c_drop = drop; c_dup = dup;
      c_corrupt = corrupt; c_silences = silences; c_congest = congest; c_seed = seed }

let mutate rng m = { m with m_val = Rng.int rng 3; m_tag = m.m_tag + 1 }

let counters m =
  [ ("rounds", Metrics.rounds m); ("messages", Metrics.messages m);
    ("byzantine", Metrics.byzantine_messages m); ("bits", Metrics.bits m);
    ("words", Metrics.words m); ("max bits", Metrics.max_bits_per_message m);
    ("congest", Metrics.congest_violations m); ("drops", Metrics.link_drops m);
    ("duplicates", Metrics.link_duplicates m); ("corruptions", Metrics.link_corruptions m);
    ("silences", Metrics.crash_silences m) ]

let prop_matches_reference =
  QCheck.Test.make ~name:"matches reference round" ~count:1000
    (QCheck.make ~print:print_config gen_config)
    (fun c ->
      let n = c.c_n and t = c.c_t in
      let faults =
        Faults.make ~drop:c.c_drop ~duplicate:c.c_dup ~corrupt:c.c_corrupt ~mutate
          ~silences:
            (List.map (fun (v, a, b) -> { Faults.s_node = v; s_from = a; s_until = b }) c.c_silences)
          ()
      in
      let inputs = Array.init n (fun v -> (v * 7 + c.c_seed) land 1) in
      let seed = Int64.of_int c.c_seed in
      let adversary () =
        match c.c_attack with
        | Equivocator schedule -> equivocator ~schedule ~seed:(Int64.add seed 99L)
        | Genome g -> Strategy.to_generic ~rng:(Rng.create (Int64.add seed 99L)) g
      in
      let expected =
        reference_run ~faults ?congest_limit_bits:c.c_congest ~topology:c.c_plan ~max_rounds:8
          ~protocol:digest_protocol ~adversary:(adversary ()) ~n ~t ~inputs ~seed ()
      in
      let got =
        Engine.to_run
          (Engine.run ~max_rounds:8 ~faults ?congest_limit_bits:c.c_congest ~topology:c.c_plan
             ~protocol:digest_protocol ~adversary:(adversary ()) ~n ~t ~inputs ~seed ())
      in
      let same_counters = counters expected.metrics = counters got.metrics in
      if not same_counters then
        QCheck.Test.fail_reportf "metrics differ: reference [%s] engine [%s]"
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (counters expected.metrics)))
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (counters got.metrics)));
      { got with metrics = expected.metrics } = expected)

(* The property must see what it claims to: Byzantine traffic, every
   fault kind and every plan. On the dense plan the engine has three
   delivery cases, each checked on its own fixture: the shared plane
   (nothing corrupted, no faults), Byzantine senders without faults, and
   link faults without corruption. A sampled run reads sender-indexed
   slices in its clean rounds (no fault plan, nothing corrupted yet) and
   per-edge slices after that, so it has two more: a clean run with t = 0,
   and a fault-free run whose first corruption lands mid-run. *)
let test_property_reaches_every_path () =
  let n = 16 and t = 5 in
  let faults =
    Faults.make ~drop:0.1 ~duplicate:0.3 ~corrupt:0.3 ~mutate
      ~silences:[ { Faults.s_node = 2; s_from = 1; s_until = 3 } ]
      ()
  in
  let inputs = Array.init n (fun v -> v land 1) in
  let run ?faults ~schedule plan =
    Engine.run ~max_rounds:8 ?faults ~topology:plan ~protocol:digest_protocol
      ~adversary:(equivocator ~schedule ~seed:5L)
      ~n ~t ~inputs ~seed:2026L ()
  in
  let check label (name, v) ok =
    Alcotest.(check bool) (Printf.sprintf "%s: %s = %d" label name v) true (ok v)
  in
  let positive = ( < ) 0 and zero = ( = ) 0 in
  List.iter
    (fun plan ->
      let o = run ~faults ~schedule:[ (1, 3) ] plan in
      let m = o.Engine.metrics in
      List.iter
        (fun kv -> check (plan_name plan) kv positive)
        [ ("byzantine", Metrics.byzantine_messages m); ("drops", Metrics.link_drops m);
          ("duplicates", Metrics.link_duplicates m); ("corruptions", Metrics.link_corruptions m);
          ("silences", Metrics.crash_silences m); ("corrupted", o.corruptions_used) ])
    [ Topology.Dense; Topology.Sampled { degree = 4 }; Topology.Committees { count = 3 } ];
  (* dense shared plane: the equivocator corrupts nobody before round 2 *)
  let shared = Engine.run ~max_rounds:1 ~protocol:digest_protocol
      ~adversary:(equivocator ~schedule:[] ~seed:5L) ~n ~t ~inputs ~seed:2026L ()
  in
  List.iter
    (fun (kv, ok) -> check "dense shared" kv ok)
    [ (("messages", Metrics.messages shared.metrics), positive);
      (("byzantine", Metrics.byzantine_messages shared.metrics), zero);
      (("corrupted", shared.corruptions_used), zero) ];
  let byz = run ~schedule:[ (1, 3) ] Topology.Dense in
  List.iter
    (fun (kv, ok) -> check "dense Byzantine" kv ok)
    [ (("byzantine", Metrics.byzantine_messages byz.metrics), positive);
      (("fault events", Metrics.fault_events byz.metrics), zero) ];
  let faulty = Engine.run ~max_rounds:8 ~faults ~protocol:digest_protocol
      ~adversary:Adversary.silent ~n ~t ~inputs ~seed:2026L ()
  in
  List.iter
    (fun (kv, ok) -> check "dense faults" kv ok)
    [ (("drops", Metrics.link_drops faulty.metrics), positive);
      (("duplicates", Metrics.link_duplicates faulty.metrics), positive);
      (("corruptions", Metrics.link_corruptions faulty.metrics), positive);
      (("corrupted", faulty.corruptions_used), zero) ];
  let sampled = Topology.Sampled { degree = 4 } in
  let clean = Engine.run ~max_rounds:8 ~topology:sampled ~protocol:digest_protocol
      ~adversary:(equivocator ~schedule:[ (1, 3) ] ~seed:5L) ~n ~t:0 ~inputs ~seed:2026L ()
  in
  List.iter
    (fun (kv, ok) -> check "sampled clean" kv ok)
    [ (("messages", Metrics.messages clean.metrics), positive);
      (("corrupted", clean.corruptions_used), zero);
      (("fault events", Metrics.fault_events clean.metrics), zero) ];
  (* the equivocator's own pick corrupts from round 2 on *)
  let mixed = Engine.run ~max_rounds:8 ~record:true ~topology:sampled ~protocol:digest_protocol
      ~adversary:(equivocator ~schedule:[] ~seed:5L) ~n ~t ~inputs ~seed:2026L ()
  in
  let first_corruption =
    List.fold_left
      (fun acc rr -> if acc = 0 && rr.Engine.rr_new_corruptions <> [] then rr.rr_round else acc)
      0 mixed.records
  in
  List.iter
    (fun (kv, ok) -> check "sampled mid-run corruption" kv ok)
    [ (("first corruption round", first_corruption), ( < ) 1);
      (("rounds after it", mixed.rounds - first_corruption), positive);
      (("byzantine", Metrics.byzantine_messages mixed.metrics), positive);
      (("fault events", Metrics.fault_events mixed.metrics), zero) ]

let () =
  Alcotest.run "ba_restricted"
    [ ("reference",
       [ Alcotest.test_case "fixture reaches every path" `Quick test_property_reaches_every_path;
         QCheck_alcotest.to_alcotest prop_matches_reference ]) ]
