(* PRNG substrate: determinism, stream independence, sampling correctness. *)

let check = Alcotest.check

let test_splitmix_deterministic () =
  let a = Ba_prng.Splitmix64.create 1L and b = Ba_prng.Splitmix64.create 1L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ba_prng.Splitmix64.next a) (Ba_prng.Splitmix64.next b)
  done

let test_splitmix_mix_bijective_samples () =
  (* mix is a bijection; distinct inputs must give distinct outputs. *)
  let seen = Hashtbl.create 64 in
  for i = 0 to 1000 do
    let v = Ba_prng.Splitmix64.mix (Int64.of_int i) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_splitmix_split_independent () =
  let g = Ba_prng.Splitmix64.create 7L in
  let child = Ba_prng.Splitmix64.split g in
  let a = Ba_prng.Splitmix64.next g and b = Ba_prng.Splitmix64.next child in
  Alcotest.(check bool) "parent and child differ" true (a <> b)

let test_xoshiro_deterministic () =
  let a = Ba_prng.Xoshiro256.create 99L and b = Ba_prng.Xoshiro256.create 99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ba_prng.Xoshiro256.next a) (Ba_prng.Xoshiro256.next b)
  done

let test_xoshiro_jump_disjoint () =
  let a = Ba_prng.Xoshiro256.create 3L in
  let b = Ba_prng.Xoshiro256.copy a in
  Ba_prng.Xoshiro256.jump b;
  let seen = Hashtbl.create 512 in
  for _ = 1 to 256 do
    Hashtbl.add seen (Ba_prng.Xoshiro256.next a) ()
  done;
  let collisions = ref 0 in
  for _ = 1 to 256 do
    if Hashtbl.mem seen (Ba_prng.Xoshiro256.next b) then incr collisions
  done;
  Alcotest.(check int) "jumped stream does not overlap" 0 !collisions

let test_rng_copy_same_stream () =
  let a = Ba_prng.Rng.create 5L in
  ignore (Ba_prng.Rng.bits64 a);
  let b = Ba_prng.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copies agree" (Ba_prng.Rng.bits64 a) (Ba_prng.Rng.bits64 b)
  done

let test_int_bounds () =
  let g = Ba_prng.Rng.create 11L in
  for _ = 1 to 10000 do
    let v = Ba_prng.Rng.int g 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Ba_prng.Rng.int g 0))

let test_int_uniform_chi2 () =
  (* Chi-squared sanity on 8 buckets: statistic should be far below the
     p=1e-6 tail (~44 for 7 dof). *)
  let g = Ba_prng.Rng.create 13L in
  let buckets = Array.make 8 0 in
  let n = 80000 in
  for _ = 1 to n do
    let v = Ba_prng.Rng.int g 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = float_of_int n /. 8. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f < 44" chi2) true (chi2 < 44.)

let test_float_range () =
  let g = Ba_prng.Rng.create 17L in
  for _ = 1 to 10000 do
    let v = Ba_prng.Rng.float g in
    Alcotest.(check bool) "0 <= v < 1" true (v >= 0. && v < 1.)
  done

let test_sign_balance () =
  let g = Ba_prng.Rng.create 19L in
  let pos = ref 0 in
  let n = 100000 in
  for _ = 1 to n do
    if Ba_prng.Rng.sign g = 1 then incr pos
  done;
  let p = float_of_int !pos /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "p=%f near 1/2" p) true (p > 0.49 && p < 0.51)

let test_int_in_range () =
  let g = Ba_prng.Rng.create 23L in
  for _ = 1 to 1000 do
    let v = Ba_prng.Rng.int_in_range g ~lo:(-3) ~hi:3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_shuffle_is_permutation () =
  let g = Ba_prng.Rng.create 29L in
  let a = Array.init 100 Fun.id in
  Ba_prng.Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_sample_without_replacement () =
  let g = Ba_prng.Rng.create 31L in
  for _ = 1 to 200 do
    let k = Ba_prng.Rng.int g 20 in
    let s = Ba_prng.Rng.sample_without_replacement g ~k ~n:20 in
    Alcotest.(check int) "size k" k (Array.length s);
    let distinct = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" k (List.length distinct);
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20)) s
  done

let test_sample_covers_all () =
  let g = Ba_prng.Rng.create 37L in
  let s = Ba_prng.Rng.sample_without_replacement g ~k:10 ~n:10 in
  Alcotest.(check (array int)) "k = n returns everything" (Array.init 10 Fun.id) s

let test_binomial_geometric () =
  let g = Ba_prng.Rng.create 41L in
  let s = Ba_stats.Summary.create () in
  for _ = 1 to 20000 do
    Ba_stats.Summary.add_int s (Ba_prng.Rng.binomial g ~n:10 ~p:0.3)
  done;
  let m = Ba_stats.Summary.mean s in
  Alcotest.(check bool) (Printf.sprintf "binomial mean %f ~ 3" m) true (m > 2.85 && m < 3.15);
  let sg = Ba_stats.Summary.create () in
  for _ = 1 to 20000 do
    Ba_stats.Summary.add_int sg (Ba_prng.Rng.geometric g 0.25)
  done;
  let mg = Ba_stats.Summary.mean sg in
  (* failures before success: mean (1-p)/p = 3 *)
  Alcotest.(check bool) (Printf.sprintf "geometric mean %f ~ 3" mg) true (mg > 2.8 && mg < 3.2)

(* ---------------- known answers ----------------

   Fixed values recorded from the record-field generators this module
   first shipped with. The "deterministic" cases above only compare two
   streams of the same code, so a change to the generators' output would
   pass them; these pin the streams themselves. *)

let int64s = Alcotest.(list int64)

let take k f = List.init k (fun _ -> f ())

let test_splitmix_known () =
  let g = Ba_prng.Splitmix64.create 1L in
  check int64s "next, seed 1"
    [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL; 0x71C18690EE42C90BL ]
    (take 4 (fun () -> Ba_prng.Splitmix64.next g));
  check int64s "mix"
    [ 0x0000000000000000L; 0x5692161D100B05E5L; 0xB2C058E4EBB5112CL; 0xB4D055FCF2CBBD7BL ]
    (List.map Ba_prng.Splitmix64.mix [ 0L; 1L; 0x0123456789ABCDEFL; -1L ]);
  let parent = Ba_prng.Splitmix64.create 7L in
  let child = Ba_prng.Splitmix64.split parent in
  check int64s "split child" [ 0xF33DC6BD55FFA86BL; 0xE1332A7DB412C5A9L ]
    (take 2 (fun () -> Ba_prng.Splitmix64.next child));
  check int64s "split parent" [ 0x044C3CD7F43C661CL; 0xE6984080BAB12A02L ]
    (take 2 (fun () -> Ba_prng.Splitmix64.next parent))

let test_xoshiro_known () =
  let g = Ba_prng.Xoshiro256.create 99L in
  check int64s "next, seed 99"
    [ 0x2C768082A975FE84L; 0xCCC4218DAA89F206L; 0x7D1DFA2025CF86C4L; 0x0B0690577E943B05L ]
    (take 4 (fun () -> Ba_prng.Xoshiro256.next g));
  let j = Ba_prng.Xoshiro256.create 3L in
  Ba_prng.Xoshiro256.jump j;
  check int64s "next after jump, seed 3"
    [ 0x7531DAA3F4357F48L; 0xDD428119661CF9C8L; 0xA58021D2374D9B39L; 0x8FDA2FED1B1D4856L ]
    (take 4 (fun () -> Ba_prng.Xoshiro256.next j))

let ints = Alcotest.(list int)

let test_rng_int_known () =
  let g = Ba_prng.Rng.create 11L in
  check ints "bound 2" [ 0; 0; 0; 0; 1; 0; 0; 0; 1; 0; 0; 1 ] (take 12 (fun () -> Ba_prng.Rng.int g 2));
  check ints "bound 7" [ 2; 1; 1; 2; 4; 4; 1; 2; 4; 6; 4; 0 ] (take 12 (fun () -> Ba_prng.Rng.int g 7));
  check ints "bound 1000"
    [ 492; 21; 572; 367; 924; 931; 609; 571; 471; 786; 681; 932 ]
    (take 12 (fun () -> Ba_prng.Rng.int g 1000));
  (* Just above 2^61 about a quarter of the raw 63-bit draws fall at or
     above the largest multiple of the bound and are redrawn. *)
  let bound = (1 lsl 61) + 1 in
  let g = Ba_prng.Rng.create 12L in
  let raws = Ba_prng.Rng.copy g in
  check ints "bound 2^61 + 1"
    [ 714575065761333343; 1609189465641595336; 90298305897117468; 898147731269317056;
      1393197900215932453; 590355611394410786; 920961739109371155; 1728146216658696463 ]
    (take 8 (fun () -> Ba_prng.Rng.int g bound));
  let next_raw = Ba_prng.Rng.bits64 (Ba_prng.Rng.copy g) in
  let consumed = ref 0 in
  while Ba_prng.Rng.bits64 raws <> next_raw do
    incr consumed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rejection path ran (%d raw draws for 8 values)" !consumed)
    true (!consumed > 8)

let test_rng_draws_known () =
  let g = Ba_prng.Rng.create 17L in
  check Alcotest.(list string) "float (hex)"
    [ "0x1.bbc6ca43c480bp-1"; "0x1.c09037261d047p-1"; "0x1.ffc0f6a636ep-6"; "0x1.3a20de716e911p-1" ]
    (take 4 (fun () -> Printf.sprintf "%h" (Ba_prng.Rng.float g)));
  check Alcotest.(list bool) "bool"
    [ false; true; false; false; false; true; true; false; false; true; false; false ]
    (take 12 (fun () -> Ba_prng.Rng.bool g));
  check Alcotest.(list bool) "bernoulli 0.3"
    [ false; true; false; false; false; false; true; false; false; false; true; true ]
    (take 12 (fun () -> Ba_prng.Rng.bernoulli g 0.3));
  let g = Ba_prng.Rng.create 5L in
  let c1 = Ba_prng.Rng.split g in
  let c2 = Ba_prng.Rng.split g in
  check int64s "split child 1" [ 0x2CF3FF21E9CAB05FL; 0xAED74831624CE8F8L ]
    (take 2 (fun () -> Ba_prng.Rng.bits64 c1));
  check int64s "split child 2" [ 0x43093BE3EA49CE1EL; 0x68DCBA14459275D7L ]
    (take 2 (fun () -> Ba_prng.Rng.bits64 c2));
  check int64s "split parent" [ 0x4AC202CAF347FC1EL; 0x9C874B1EF6A1C5E6L ]
    (take 2 (fun () -> Ba_prng.Rng.bits64 g))

(* Recipient sets at seed 2026 for (round, src) = (1, 0), (1, 5), (2, 5)
   and (3, n - 1): the rejection sampler below and above 16 draws, the
   near-dense Fisher-Yates branch (2k >= n - 1), and committee links. *)
let test_recipients_known () =
  let module Topology = Ba_sim.Topology in
  let cases plan n expected =
    let t = Topology.instantiate plan ~n ~seed:2026L in
    List.iter2
      (fun (round, src) want ->
        check ints
          (Printf.sprintf "n=%d round %d src %d" n round src)
          want
          (Array.to_list (Topology.recipients t ~round ~src)))
      [ (1, 0); (1, 5); (2, 5); (3, n - 1) ]
      expected
  in
  cases (Topology.Sampled { degree = 5 }) 64
    [ [ 5; 18; 36; 37; 41 ]; [ 9; 15; 16; 17; 18 ]; [ 16; 29; 36; 51; 55 ]; [ 6; 7; 11; 12; 34 ] ];
  cases (Topology.Sampled { degree = 20 }) 200
    [ [ 3; 7; 19; 26; 38; 43; 47; 62; 80; 87; 99; 117; 123; 125; 140; 158; 173; 184; 187; 188 ];
      [ 24; 26; 34; 36; 39; 41; 50; 55; 76; 88; 89; 95; 104; 120; 124; 125; 141; 152; 156; 183 ];
      [ 2; 18; 25; 27; 47; 59; 72; 81; 92; 108; 112; 115; 132; 145; 147; 150; 160; 175; 181; 194 ];
      [ 2; 3; 6; 17; 18; 23; 54; 62; 73; 87; 112; 116; 118; 124; 141; 143; 156; 163; 168; 169 ] ];
  cases (Topology.Sampled { degree = 10 }) 20
    [ [ 1; 2; 4; 5; 7; 8; 9; 11; 15; 16 ]; [ 0; 4; 7; 9; 10; 11; 12; 14; 15; 17 ];
      [ 1; 3; 4; 8; 9; 12; 13; 14; 17; 19 ]; [ 0; 1; 3; 6; 7; 8; 11; 15; 16; 17 ] ];
  cases (Topology.Committees { count = 3 }) 12
    [ [ 3; 6; 9 ]; [ 0; 2; 3; 6; 8; 9; 11 ]; [ 1; 2; 4; 7; 8; 10; 11 ]; [ 2; 5; 8 ] ]

let prop_split_streams_differ =
  QCheck.Test.make ~name:"split streams decorrelated" ~count:200 QCheck.int64 (fun seed ->
      let g = Ba_prng.Rng.create seed in
      let c1 = Ba_prng.Rng.split g in
      let c2 = Ba_prng.Rng.split g in
      Ba_prng.Rng.bits64 c1 <> Ba_prng.Rng.bits64 c2)

let prop_int_in_bound =
  QCheck.Test.make ~name:"int always within bound" ~count:1000
    QCheck.(pair int64 (int_range 1 1000000))
    (fun (seed, bound) ->
      let g = Ba_prng.Rng.create seed in
      let v = Ba_prng.Rng.int g bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "ba_prng"
    [ ("splitmix64",
       [ Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
         Alcotest.test_case "mix has no collisions" `Quick test_splitmix_mix_bijective_samples;
         Alcotest.test_case "split independent" `Quick test_splitmix_split_independent;
         Alcotest.test_case "known answers" `Quick test_splitmix_known ]);
      ("xoshiro256",
       [ Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
         Alcotest.test_case "jump is disjoint" `Quick test_xoshiro_jump_disjoint;
         Alcotest.test_case "known answers" `Quick test_xoshiro_known ]);
      ("rng",
       [ Alcotest.test_case "copy preserves stream" `Quick test_rng_copy_same_stream;
         Alcotest.test_case "int bounds" `Quick test_int_bounds;
         Alcotest.test_case "int uniform (chi2)" `Quick test_int_uniform_chi2;
         Alcotest.test_case "float range" `Quick test_float_range;
         Alcotest.test_case "sign balance" `Quick test_sign_balance;
         Alcotest.test_case "int_in_range" `Quick test_int_in_range;
         Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
         Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
         Alcotest.test_case "sample covers all" `Quick test_sample_covers_all;
         Alcotest.test_case "binomial/geometric means" `Quick test_binomial_geometric;
         Alcotest.test_case "int known answers" `Quick test_rng_int_known;
         Alcotest.test_case "float/bool/split known answers" `Quick test_rng_draws_known ]);
      ("sampler",
       [ Alcotest.test_case "recipient sets known answers" `Quick test_recipients_known ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_split_streams_differ;
         QCheck_alcotest.to_alcotest prop_int_in_bound ]) ]
