(* Sparse message plane (DESIGN.md §13): packed-code boundary pinning for
   the tally kernels (satellite of the topology refactor — the sentinel and
   bit-layout contracts the engine and sparse slices both rely on), sparse
   slices vs dense references, topology determinism, and the sampled
   protocol family (ks-sample / word-budget) end to end. *)

module Plane = Ba_sim.Plane
module Topology = Ba_sim.Topology
module Ks = Ba_sparse.Ks_agreement
module Wb = Ba_sparse.Word_budget

(* ---------------- packed-code boundaries ---------------- *)

let test_code_sentinels () =
  Alcotest.(check int) "absent is -1" (-1) Plane.absent;
  Alcotest.(check int) "opaque is -2" (-2) Plane.opaque;
  Alcotest.(check bool) "sentinels distinct" true (Plane.absent <> Plane.opaque);
  let c = Plane.code ~phase:0 ~sub:0 ~decided:false ~vote:0 ~flip:None in
  Alcotest.(check int) "all-zero header packs to 0" 0 c;
  Alcotest.(check bool) "real codes are non-negative" true
    (Plane.code ~phase:3 ~sub:2 ~decided:true ~vote:1 ~flip:(Some (-1)) >= 0)

let test_code_phase_boundary () =
  (* The phase field is 44 bits; 2^44 is the last accepted value and
     anything beyond (or negative) must pack as opaque, never wrap into a
     matchable code. *)
  let max_phase = 1 lsl 44 in
  Alcotest.(check bool) "phase 2^44 still encodes" true
    (Plane.code ~phase:max_phase ~sub:0 ~decided:false ~vote:0 ~flip:None >= 0);
  Alcotest.(check int) "phase 2^44 + 1 is opaque" Plane.opaque
    (Plane.code ~phase:(max_phase + 1) ~sub:0 ~decided:false ~vote:0 ~flip:None);
  Alcotest.(check int) "negative phase is opaque" Plane.opaque
    (Plane.code ~phase:(-1) ~sub:0 ~decided:false ~vote:0 ~flip:None);
  Alcotest.(check int) "max_int phase is opaque" Plane.opaque
    (Plane.code ~phase:max_int ~sub:0 ~decided:false ~vote:0 ~flip:None)

let test_code_sub_raises () =
  List.iter
    (fun sub ->
      Alcotest.check_raises
        (Printf.sprintf "sub %d rejected" sub)
        (Invalid_argument "Plane.code: sub out of range")
        (fun () ->
          ignore (Plane.code ~phase:0 ~sub ~decided:false ~vote:0 ~flip:None)))
    [ -1; 4; 100 ]

let test_code_normalization () =
  (* Non-binary votes and invalid flips normalize to "not countable" /
     "no flip" rather than corrupting neighbouring fields. *)
  let base ~vote ~flip = Plane.code ~phase:5 ~sub:1 ~decided:true ~vote ~flip in
  List.iter
    (fun vote ->
      Alcotest.(check int)
        (Printf.sprintf "vote %d packs as not-countable (2)" vote)
        2
        (base ~vote ~flip:None land 3))
    [ -1; 2; 7; max_int ];
  List.iter
    (fun flip ->
      Alcotest.(check int)
        "invalid flip packs as none" 0
        ((base ~vote:0 ~flip lsr 5) land 3))
    [ Some 0; Some 2; Some (-2); Some max_int ];
  Alcotest.(check int) "flip +1" 1 ((base ~vote:0 ~flip:(Some 1) lsr 5) land 3);
  Alcotest.(check int) "flip -1" 2 ((base ~vote:0 ~flip:(Some (-1)) lsr 5) land 3)

(* A tiny raw-header message type so planes can carry adversarial codes
   (including values that pack to opaque) without skeleton baggage. *)
type hdr = { h_phase : int; h_vote : int; h_decided : bool; h_flip : int option }

let hdr_code h =
  Plane.code ~phase:h.h_phase ~sub:0 ~decided:h.h_decided ~vote:h.h_vote ~flip:h.h_flip

let test_kernels_skip_sentinels () =
  (* An inbox mixing countable votes, garbage votes, and an out-of-range
     (opaque) phase: the kernels must count exactly the well-formed slots —
     on the flat plane and on a sparse slice built from the same codes. *)
  let msgs =
    [| Some { h_phase = 1; h_vote = 0; h_decided = false; h_flip = Some 1 };
       Some { h_phase = 1; h_vote = 1; h_decided = true; h_flip = Some (-1) };
       Some { h_phase = (1 lsl 44) + 7; h_vote = 1; h_decided = true; h_flip = Some 1 };
       None;
       Some { h_phase = 1; h_vote = 7; h_decided = true; h_flip = Some 5 };
       Some { h_phase = 2; h_vote = 1; h_decided = false; h_flip = Some 1 };
       Some { h_phase = 1; h_vote = 0; h_decided = true; h_flip = None } |]
  in
  let check label plane =
    Alcotest.(check (pair int int))
      (label ^ ": phase-1 votes") (2, 1)
      (Plane.vote_counts plane ~phase:1 ~sub:0 ~decided_only:false);
    Alcotest.(check (pair int int))
      (label ^ ": phase-1 decided votes") (1, 1)
      (Plane.vote_counts plane ~phase:1 ~sub:0 ~decided_only:true);
    Alcotest.(check (pair int int))
      (label ^ ": phase-2 votes") (0, 1)
      (Plane.vote_counts plane ~phase:2 ~sub:0 ~decided_only:false);
    (* opaque phase can never match any queried phase *)
    Alcotest.(check (pair int int))
      (label ^ ": opaque never matches") (0, 0)
      (Plane.vote_counts plane ~phase:(1 lsl 44) ~sub:0 ~decided_only:false);
    Alcotest.(check int)
      (label ^ ": signed sum skips invalid flips") 0
      (Plane.signed_sum plane ~phase:1 ~sub:0 ~members:(fun _ -> true))
  in
  check "flat" (Plane.of_array ~encode:hdr_code msgs);
  let slab = Array.make (Array.length msgs) Plane.absent in
  let shared = Plane.shared ~encode:hdr_code ~slab msgs in
  check "shared" shared;
  check "shard view" (Plane.shard_view shared);
  (* the same deliveries as a sparse slice (delivered slots only) *)
  let delivered =
    Array.of_list
      (List.filteri (fun i _ -> msgs.(i) <> None) (Array.to_list (Array.init 7 Fun.id)))
  in
  let srcs = delivered in
  let sliced = Array.map (fun v -> msgs.(v)) srcs in
  let codes =
    Array.map (fun m -> match m with Some h -> hdr_code h | None -> Plane.absent) sliced
  in
  check "sparse slice"
    (Plane.sparse_slice ~codes ~n:7 ~srcs ~msgs:sliced ~lo:0 ~hi:(Array.length srcs) ())

(* ---------------- sparse slices vs dense reference ---------------- *)

let random_hdr rng =
  { h_phase =
      (match Ba_prng.Rng.int rng 8 with
      | 0 -> (1 lsl 44) + Ba_prng.Rng.int rng 3
      | _ -> Ba_prng.Rng.int rng 4);
    h_vote = (match Ba_prng.Rng.int rng 4 with 0 -> -1 | 1 -> 0 | 2 -> 1 | _ -> 7);
    h_decided = Ba_prng.Rng.bool rng;
    h_flip =
      (match Ba_prng.Rng.int rng 4 with
      | 0 -> None
      | 1 -> Some 1
      | 2 -> Some (-1)
      | _ -> Some 3) }

let test_slice_matches_dense_reference () =
  let rng = Ba_prng.Rng.create 0x5Fa55EL in
  for _trial = 1 to 40 do
    let n = 2 + Ba_prng.Rng.int rng 40 in
    (* random delivered subset, ascending *)
    let delivered = Array.init n (fun _ -> Ba_prng.Rng.int rng 3 > 0) in
    let srcs =
      Array.of_list
        (List.filter (fun v -> delivered.(v)) (List.init n Fun.id))
    in
    let msgs = Array.map (fun _ -> Some (random_hdr rng)) srcs in
    let codes =
      Array.map (function Some h -> hdr_code h | None -> Plane.absent) msgs
    in
    let slice =
      Plane.sparse_slice ~codes ~n ~srcs ~msgs ~lo:0 ~hi:(Array.length srcs) ()
    in
    (* dense reference: same deliveries in an n-slot array *)
    let full = Array.make n None in
    Array.iteri (fun k v -> full.(v) <- msgs.(k)) srcs;
    let dense = Plane.of_array ~encode:hdr_code full in
    Alcotest.(check int) "length is n" n (Plane.length slice);
    for v = 0 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "get %d agrees" v)
        true
        (Plane.get slice v = Plane.get dense v)
    done;
    for phase = 0 to 3 do
      List.iter
        (fun decided_only ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "vote_counts phase=%d decided=%b" phase decided_only)
            (Plane.vote_counts dense ~phase ~sub:0 ~decided_only)
            (Plane.vote_counts slice ~phase ~sub:0 ~decided_only))
        [ false; true ];
      let members v = v mod 3 <> 1 in
      Alcotest.(check int)
        (Printf.sprintf "signed_sum phase=%d" phase)
        (Plane.signed_sum dense ~phase ~sub:0 ~members)
        (Plane.signed_sum slice ~phase ~sub:0 ~members)
    done;
    (* iteri on a slice visits exactly the delivered slots, ascending *)
    let visited = ref [] in
    Plane.iteri (fun v m -> visited := (v, m <> None) :: !visited) slice;
    let visited = List.rev !visited in
    Alcotest.(check (list (pair int bool)))
      "iteri visits delivered slots ascending"
      (Array.to_list (Array.map (fun v -> (v, true)) srcs))
      visited;
    Alcotest.(check bool)
      "to_array equals dense layout" true
      (Plane.to_array slice = full)
  done

let test_slice_validation () =
  let srcs = [| 1; 3 |] in
  let msgs = [| Some 0; Some 1 |] in
  let ok ~lo ~hi = Plane.sparse_slice ~n:5 ~srcs ~msgs ~lo ~hi () in
  let rejected label make =
    Alcotest.(check bool) label true
      (try
         ignore (make ());
         false
       with Invalid_argument _ -> true)
  in
  ignore (ok ~lo:0 ~hi:2);
  List.iter
    (fun (lo, hi) ->
      rejected (Printf.sprintf "bounds lo=%d hi=%d rejected" lo hi) (fun () -> ok ~lo ~hi))
    [ (-1, 2); (0, 3); (2, 1) ];
  (* per edge, payloads and codes must cover the slice; by sender, every
     sender id below [n] *)
  let codes = [| 0; 0 |] and broadcast = Array.make 5 (Some 0) and sender_codes = Array.make 5 0 in
  ignore (Plane.sparse_slice ~codes ~n:5 ~srcs ~msgs ~lo:0 ~hi:2 ());
  ignore (Plane.sparse_slice ~codes:sender_codes ~by_sender:true ~n:5 ~srcs ~msgs:broadcast ~lo:0 ~hi:2 ());
  rejected "short msgs rejected" (fun () ->
      Plane.sparse_slice ~n:5 ~srcs ~msgs:[| Some 0 |] ~lo:0 ~hi:2 ());
  rejected "short codes rejected" (fun () ->
      Plane.sparse_slice ~codes:[| 0 |] ~n:5 ~srcs ~msgs ~lo:0 ~hi:2 ());
  rejected "short sender-indexed msgs rejected" (fun () ->
      Plane.sparse_slice ~by_sender:true ~n:5 ~srcs ~msgs:(Array.make 4 (Some 0)) ~lo:0 ~hi:2 ());
  rejected "short sender-indexed codes rejected" (fun () ->
      Plane.sparse_slice ~codes:(Array.make 4 0) ~by_sender:true ~n:5 ~srcs ~msgs:broadcast ~lo:0
        ~hi:2 ())

(* ---------------- topology ---------------- *)

let test_topology_recipients () =
  let n = 40 in
  let dense = Topology.instantiate Topology.Dense ~n ~seed:9L in
  let all_but v = List.filter (fun u -> u <> v) (List.init n Fun.id) in
  Alcotest.(check (list int))
    "dense reaches all others" (all_but 7)
    (Array.to_list (Topology.recipients dense ~round:1 ~src:7));
  let degree = 6 in
  let sampled = Topology.instantiate (Topology.Sampled { degree }) ~n ~seed:9L in
  for round = 1 to 5 do
    for src = 0 to n - 1 do
      let r = Topology.recipients sampled ~round ~src in
      Alcotest.(check int) "sampled degree" degree (Array.length r);
      let l = Array.to_list r in
      Alcotest.(check (list int)) "sorted distinct" (List.sort_uniq compare l) l;
      Alcotest.(check bool) "never self" false (List.mem src l);
      List.iter (fun u -> Alcotest.(check bool) "in range" true (u >= 0 && u < n)) l
    done
  done;
  (* pure function of (seed, round, src) *)
  let again = Topology.instantiate (Topology.Sampled { degree }) ~n ~seed:9L in
  Alcotest.(check (list int)) "deterministic in (seed, round, src)"
    (Array.to_list (Topology.recipients sampled ~round:3 ~src:11))
    (Array.to_list (Topology.recipients again ~round:3 ~src:11));
  let other_seed = Topology.instantiate (Topology.Sampled { degree }) ~n ~seed:10L in
  Alcotest.(check bool) "seed changes samples" true
    (List.exists
       (fun round ->
         Topology.recipients sampled ~round ~src:11
         <> Topology.recipients other_seed ~round ~src:11)
       [ 1; 2; 3; 4; 5 ])

(* [recipients_into] writes a sampled set in draw order; sorted, it must be
   exactly [recipients]. Half the sampled degrees are near-dense
   (2k >= n - 1), where the sampler takes its Fisher-Yates branch. The
   slots around the written range stay untouched. *)
let prop_recipients_into_permutes =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 2 300 in
    let* plan =
      frequency
        [ (2, map (fun d -> Topology.Sampled { degree = d }) (int_range 1 (n - 1)));
          (2, map (fun d -> Topology.Sampled { degree = d }) (int_range (n / 2) (n - 1)));
          (1, return Topology.Dense);
          (1, map (fun c -> Topology.Committees { count = c }) (int_range 1 n)) ]
    in
    let* round = int_range 1 50 and* src = int_range 0 (n - 1) and* pos = int_range 0 3 in
    let* seed = int_range 0 1_000_000 in
    return (n, plan, round, src, pos, seed)
  in
  let print (n, plan, round, src, pos, seed) =
    let plan =
      match plan with
      | Topology.Dense -> "dense"
      | Topology.Sampled { degree } -> Printf.sprintf "sampled %d" degree
      | Topology.Committees { count } -> Printf.sprintf "committees %d" count
    in
    Printf.sprintf "n=%d %s round=%d src=%d pos=%d seed=%d" n plan round src pos seed
  in
  QCheck.Test.make ~name:"recipients_into permutes recipients" ~count:500 (QCheck.make ~print gen)
    (fun (n, plan, round, src, pos, seed) ->
      let topo = Topology.instantiate plan ~n ~seed:(Int64.of_int seed) in
      let out = Array.make (pos + Topology.degree_bound topo + 2) (-1) in
      let len = Topology.recipients_into topo ~round ~src out ~pos in
      let drawn = Array.sub out pos len in
      let expected = Topology.recipients topo ~round ~src in
      Topology.sort_recipients topo out ~pos ~len;
      let untouched = ref true in
      Array.iteri (fun i x -> if (i < pos || i >= pos + len) && x <> -1 then untouched := false) out;
      !untouched
      && List.sort compare (Array.to_list drawn) = Array.to_list expected
      && Array.sub out pos len = expected)

let test_topology_validate () =
  List.iter
    (fun (plan, n) ->
      Alcotest.(check bool) "invalid plan rejected" true
        (try
           Topology.validate plan ~n;
           false
         with Invalid_argument _ -> true))
    [ (Topology.Sampled { degree = 0 }, 8);
      (Topology.Sampled { degree = 8 }, 8);
      (Topology.Committees { count = 0 }, 8);
      (Topology.Committees { count = 9 }, 8) ]

(* ---------------- sampled engine ---------------- *)

let sparse_case ~protocol ~adversary ~faults ~n ~t ~seed label =
  let open Ba_experiments.Setups in
  let run =
    match faults with
    | None -> make ~protocol ~adversary ~n ~t
    | Some faults -> make_faulty ~faults ~protocol ~adversary ~n ~t
  in
  let inputs = inputs Split ~n ~t in
  let exec () = run.exec ~record:true ~inputs ~seed () in
  let base = exec () in
  Alcotest.(check bool) (label ^ ": identical outcome on rerun") true (base = exec ())

let test_sampled_engine_reproducible () =
  let open Ba_experiments.Setups in
  sparse_case ~protocol:(Ks_sample { degree = 5 }) ~adversary:Silent ~faults:None
    ~n:37 ~t:0 ~seed:51L "ks-sample/silent";
  sparse_case ~protocol:(Ks_sample { degree = 5 }) ~adversary:Static_crash
    ~faults:None ~n:37 ~t:4 ~seed:52L "ks-sample/static-crash";
  sparse_case ~protocol:(Word_budget { degree = 5 }) ~adversary:Silent ~faults:None
    ~n:37 ~t:0 ~seed:53L "word-budget/silent";
  let faults = { no_faults with fs_drop = 0.08; fs_duplicate = 0.05 } in
  sparse_case ~protocol:(Ks_sample { degree = 5 }) ~adversary:Silent
    ~faults:(Some faults) ~n:37 ~t:0 ~seed:54L "ks-sample/faulty-links"

(* ---------------- protocol family ---------------- *)

let run_once ~protocol ~n ~t ~pattern ~seed =
  let open Ba_experiments.Setups in
  let run = make ~protocol ~adversary:Silent ~n ~t in
  let inputs = inputs pattern ~n ~t in
  run.exec ~record:false ~inputs ~seed ()

let test_ks_validity_unanimous () =
  List.iter
    (fun b ->
      let o =
        run_once ~protocol:(Ba_experiments.Setups.Ks_sample { degree = 0 }) ~n:64 ~t:0
          ~pattern:(Ba_experiments.Setups.Unanimous b) ~seed:77L
      in
      Alcotest.(check bool) "completed" true o.Ba_sim.Engine.completed;
      Array.iter
        (fun out -> Alcotest.(check (option int)) "unanimous output" (Some b) out)
        o.outputs)
    [ 0; 1 ]

let test_ks_agreement_over_seeds () =
  for seed = 1 to 15 do
    List.iter
      (fun protocol ->
        let o =
          run_once ~protocol ~n:64 ~t:0 ~pattern:Ba_experiments.Setups.Split
            ~seed:(Int64.of_int seed)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d completed" o.Ba_sim.Engine.protocol_name seed)
          true o.completed;
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d agreement" o.protocol_name seed)
          true
          (Ba_sim.Engine.agreement_holds o))
      [ Ba_experiments.Setups.Ks_sample { degree = 0 };
        Ba_experiments.Setups.Word_budget { degree = 0 } ]
  done

let test_word_budget_saves_words () =
  (* The whole point of the variant: same dynamics, fewer metered words on
     the same sampled plane. Compare totals across a few seeds so one lucky
     early decision can't flip the check. *)
  let total protocol =
    List.fold_left
      (fun acc seed ->
        let o =
          run_once ~protocol ~n:128 ~t:0 ~pattern:Ba_experiments.Setups.Split
            ~seed:(Int64.of_int seed)
        in
        acc + Ba_sim.Metrics.words o.Ba_sim.Engine.metrics)
      0 [ 1; 2; 3; 4; 5 ]
  in
  let ks = total (Ba_experiments.Setups.Ks_sample { degree = 11 }) in
  let wb = total (Ba_experiments.Setups.Word_budget { degree = 11 }) in
  Alcotest.(check bool)
    (Printf.sprintf "word-budget words (%d) < ks-sample words (%d)" wb ks)
    true (wb < ks)

let test_word_budget_speaks () =
  let quiet =
    { Wb.w_ks = Ks.init_state 0; w_changed = false }
  in
  let changed = { quiet with Wb.w_changed = true } in
  let deciding =
    { quiet with
      Wb.w_ks = { quiet.Wb.w_ks with Ks.s_countdown = Some 2 } }
  in
  Alcotest.(check bool) "round 1 always speaks" true
    (Wb.speaks ~heartbeat:4 quiet ~round:1);
  Alcotest.(check bool) "round 2 always speaks" true
    (Wb.speaks ~heartbeat:4 quiet ~round:2);
  Alcotest.(check bool) "mid-window unchanged is silent" false
    (Wb.speaks ~heartbeat:4 quiet ~round:4);
  Alcotest.(check bool) "heartbeat round speaks" true
    (Wb.speaks ~heartbeat:4 quiet ~round:5);
  Alcotest.(check bool) "changed speaks anywhere" true
    (Wb.speaks ~heartbeat:4 changed ~round:4);
  Alcotest.(check bool) "countdown speaks anywhere" true
    (Wb.speaks ~heartbeat:4 deciding ~round:4)

let test_make_validation () =
  let raises label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "ks: n < 2" (fun () -> Ks.make ~n:1 ~t:0 ());
  raises "ks: degree 0" (fun () -> Ks.make ~degree:0 ~n:8 ~t:0 ());
  raises "ks: degree n" (fun () -> Ks.make ~degree:8 ~n:8 ~t:0 ());
  raises "ks: decide_streak 0" (fun () -> Ks.make ~decide_streak:0 ~n:8 ~t:0 ());
  raises "wb: heartbeat 0" (fun () -> Wb.make ~heartbeat:0 ~n:8 ~t:0 ());
  raises "wb: degree n" (fun () -> Wb.make ~degree:8 ~n:8 ~t:0 ());
  Alcotest.(check int) "default degree is isqrt" 8 (Ks.default_degree ~n:64);
  Alcotest.(check int) "default degree rounds down" 2 (Ks.default_degree ~n:4);
  Alcotest.(check int) "default degree clamps at n-1" 1 (Ks.default_degree ~n:2)

let () =
  Alcotest.run "ba_sparse"
    [ ( "packed codes",
        [ Alcotest.test_case "sentinels" `Quick test_code_sentinels;
          Alcotest.test_case "phase boundary" `Quick test_code_phase_boundary;
          Alcotest.test_case "sub range raises" `Quick test_code_sub_raises;
          Alcotest.test_case "vote/flip normalization" `Quick test_code_normalization;
          Alcotest.test_case "kernels skip sentinels on every repr" `Quick
            test_kernels_skip_sentinels ] );
      ( "sparse slices",
        [ Alcotest.test_case "slice kernels match dense reference" `Quick
            test_slice_matches_dense_reference;
          Alcotest.test_case "slice validation" `Quick test_slice_validation ] );
      ( "topology",
        [ Alcotest.test_case "recipient sets" `Quick test_topology_recipients;
          QCheck_alcotest.to_alcotest prop_recipients_into_permutes;
          Alcotest.test_case "plan validation" `Quick test_topology_validate ] );
      ( "sampled engine",
        [ Alcotest.test_case "outcomes reproducible per seed" `Quick
            test_sampled_engine_reproducible ] );
      ( "protocols",
        [ Alcotest.test_case "ks validity under unanimity" `Quick
            test_ks_validity_unanimous;
          Alcotest.test_case "agreement across seeds" `Slow test_ks_agreement_over_seeds;
          Alcotest.test_case "word budget saves words" `Quick
            test_word_budget_saves_words;
          Alcotest.test_case "speaks gating" `Quick test_word_budget_speaks;
          Alcotest.test_case "make validation" `Quick test_make_validation ] ) ]
