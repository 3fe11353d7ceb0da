(* Batched message-plane (DESIGN.md §10): the tally kernels must agree with
   a naive fold over the decoded messages on adversarial inputs (garbage
   phases, non-binary votes, invalid flips, absent slots), on solo, shared,
   patched and sparse planes (§13), and suite documents must be
   byte-identical at any trial fan-out domain count. *)

open Ba_core

(* ---------------- randomized message material ---------------- *)

let subs = [| Skeleton.R1; Skeleton.R2; Skeleton.RC |]

let random_msg rng =
  let m_phase =
    (* mostly in the queried range, sometimes far outside the 44-bit packing
       range (must behave as opaque, i.e. never match a queried phase) *)
    match Ba_prng.Rng.int rng 8 with
    | 0 -> (1 lsl 50) + Ba_prng.Rng.int rng 3
    | _ -> Ba_prng.Rng.int rng 4
  in
  let m_val =
    match Ba_prng.Rng.int rng 4 with 0 -> -1 | 1 -> 0 | 2 -> 1 | _ -> 7
  in
  let m_flip =
    match Ba_prng.Rng.int rng 4 with
    | 0 -> None
    | 1 -> Some 1
    | 2 -> Some (-1)
    | _ -> Some 3 (* invalid: packs as "no flip" *)
  in
  { Skeleton.m_phase;
    m_sub = subs.(Ba_prng.Rng.int rng 3);
    m_val;
    m_decided = Ba_prng.Rng.bool rng;
    m_flip }

let random_inbox rng n =
  Array.init n (fun _ ->
      if Ba_prng.Rng.int rng 5 = 0 then None else Some (random_msg rng))

(* Naive references: fold over the decoded messages, mirroring the packing
   normalization (only binary votes countable, only +-1 flips summable,
   out-of-range phases can never match an in-range query). *)

let naive_counts data ~phase ~sub ~decided_only =
  Array.fold_left
    (fun (c0, c1) m ->
      match m with
      | Some m
        when m.Skeleton.m_phase = phase && m.m_sub = sub
             && ((not decided_only) || m.m_decided) -> (
          match m.m_val with 0 -> (c0 + 1, c1) | 1 -> (c0, c1 + 1) | _ -> (c0, c1))
      | _ -> (c0, c1))
    (0, 0) data

let naive_signed_sum data ~phase ~sub ~members =
  let acc = ref 0 in
  Array.iteri
    (fun v m ->
      match m with
      | Some m when m.Skeleton.m_phase = phase && m.m_sub = sub && members v -> (
          match m.m_flip with Some ((1 | -1) as f) -> acc := !acc + f | _ -> ())
      | _ -> ())
    data;
  !acc

let sub_index = function Skeleton.R1 -> 0 | Skeleton.R2 -> 1 | Skeleton.RC -> 2

let check_one_inbox data plane =
  for phase = 0 to 3 do
    Array.iter
      (fun sub ->
        let si = sub_index sub in
        List.iter
          (fun decided_only ->
            let c0, c1 =
              Ba_sim.Plane.vote_counts plane ~phase ~sub:si ~decided_only
            in
            let e0, e1 = naive_counts data ~phase ~sub ~decided_only in
            Alcotest.(check (pair int int))
              (Printf.sprintf "vote_counts phase=%d sub=%d decided=%b" phase si
                 decided_only)
              (e0, e1) (c0, c1))
          [ false; true ];
        let members v = v mod 3 = 0 in
        Alcotest.(check int)
          (Printf.sprintf "signed_sum phase=%d sub=%d" phase si)
          (naive_signed_sum data ~phase ~sub ~members)
          (Ba_sim.Plane.signed_sum plane ~phase ~sub:si ~members))
      subs
  done

(* A sparse slice must read like [data] restricted to its delivered
   senders: every slot through [get], [to_array] and the kernels, and the
   delivered slots only, ascending, through [iteri]. *)
let check_sparse data plane =
  check_one_inbox data plane;
  Alcotest.(check int) "sparse length" (Array.length data) (Ba_sim.Plane.length plane);
  Array.iteri
    (fun v m -> Alcotest.(check bool) (Printf.sprintf "sparse get %d" v) true (Ba_sim.Plane.get plane v = m))
    data;
  let visits = ref [] in
  Ba_sim.Plane.iteri (fun v m -> visits := (v, m) :: !visits) plane;
  let delivered = List.filter (fun (_, m) -> m <> None) (List.mapi (fun v m -> (v, m)) (Array.to_list data)) in
  Alcotest.(check bool) "sparse iteri" true (List.rev !visits = delivered);
  Alcotest.(check bool) "sparse to_array" true (Ba_sim.Plane.to_array plane = data)

(* One recipient's deliveries from a random subset of [data]'s senders,
   as the engine stores them both ways: per edge, at slots [lo, hi) of a
   slab other recipients' slices share, and by sender, over an n-slot
   broadcast array whose undelivered slots hold payloads the slice must
   never read. Returns [data] restricted to the delivered senders and the
   two slices. *)
let sparse_slices rng data =
  let encode = Skeleton.msg_code in
  let code = function Some m -> encode m | None -> Ba_sim.Plane.absent in
  let n = Array.length data in
  let delivered = Array.map (fun m -> m <> None && Ba_prng.Rng.int rng 3 > 0) data in
  let full = Array.mapi (fun v m -> if delivered.(v) then m else None) data in
  let srcs = List.filter (fun v -> delivered.(v)) (List.init n Fun.id) in
  let junk () = List.init (Ba_prng.Rng.int rng 4) (fun _ -> Ba_prng.Rng.int rng n) in
  let before = junk () in
  let lo = List.length before in
  let hi = lo + List.length srcs in
  let slab_srcs = Array.of_list (before @ srcs @ junk ()) in
  let slab_msgs =
    Array.mapi (fun k v -> if k >= lo && k < hi then data.(v) else Some (random_msg rng)) slab_srcs
  in
  let per_edge =
    Ba_sim.Plane.sparse_slice ~codes:(Array.map code slab_msgs) ~n ~srcs:slab_srcs
      ~msgs:slab_msgs ~lo ~hi ()
  in
  let broadcast = Array.mapi (fun v m -> if delivered.(v) then m else Some (random_msg rng)) data in
  let by_sender =
    Ba_sim.Plane.sparse_slice ~codes:(Array.map code broadcast) ~by_sender:true ~n
      ~srcs:slab_srcs ~msgs:broadcast ~lo ~hi ()
  in
  (full, per_edge, by_sender)

let test_kernels_vs_naive () =
  let rng = Ba_prng.Rng.create 0xBA7C4EDL in
  let slab = Array.make 64 Ba_sim.Plane.absent in
  for _trial = 1 to 60 do
    let n = 1 + Ba_prng.Rng.int rng 64 in
    let data = random_inbox rng n in
    (* solo plane: codes computed on the fly from the codec *)
    check_one_inbox data
      (Ba_sim.Plane.of_array ~encode:Skeleton.msg_code data);
    (* shared plane: codes packed once into the reused slab *)
    check_one_inbox data
      (Ba_sim.Plane.shared ~encode:Skeleton.msg_code ~slab data);
    (* sparse slices, per edge and by sender, over the same deliveries *)
    let full, per_edge, by_sender = sparse_slices rng data in
    check_sparse full per_edge;
    check_sparse full by_sender
  done

(* Every boxed accessor of [plane] must read [data] exactly as a solo plane
   over it does. *)
let check_boxed data plane =
  let reference = Ba_sim.Plane.of_array data in
  Alcotest.(check int) "length" (Ba_sim.Plane.length reference) (Ba_sim.Plane.length plane);
  Array.iteri
    (fun v m -> Alcotest.(check bool) (Printf.sprintf "get %d" v) true (Ba_sim.Plane.get plane v = m))
    data;
  let visits p =
    let acc = ref [] in
    Ba_sim.Plane.iteri (fun v m -> acc := (v, m) :: !acc) p;
    List.rev !acc
  in
  Alcotest.(check bool) "iteri" true (visits plane = visits reference);
  Alcotest.(check bool) "to_array" true (Ba_sim.Plane.to_array plane = Ba_sim.Plane.to_array reference)

(* Recipient after recipient reads one shared base through its own patch,
   as in a dense Byzantine or faulty round. Patches hold absent, opaque,
   non-binary-vote and bad-flip payloads; each view is checked against the
   naive fold and against a solo plane over the patched copy, and the base
   must still answer for the unpatched slab afterwards. *)
let test_patched_vs_naive () =
  let rng = Ba_prng.Rng.create 0x9A7C4EDL in
  let slab = Array.make 64 Ba_sim.Plane.absent in
  let encode = Skeleton.msg_code in
  for _trial = 1 to 20 do
    let n = 1 + Ba_prng.Rng.int rng 64 in
    let base_data = random_inbox rng n in
    let base = Ba_sim.Plane.shared ~encode ~slab base_data in
    let slots = Array.make n 0 and msgs = Array.make n None in
    let codes = Array.make n Ba_sim.Plane.absent in
    for _recipient = 1 to 8 do
      let len = ref 0 in
      for v = 0 to n - 1 do
        if Ba_prng.Rng.int rng 4 = 0 then begin
          let m = if Ba_prng.Rng.int rng 5 = 0 then None else Some (random_msg rng) in
          slots.(!len) <- v;
          msgs.(!len) <- m;
          codes.(!len) <- (match m with Some m -> encode m | None -> Ba_sim.Plane.absent);
          incr len
        end
      done;
      let plane = Ba_sim.Plane.patched ~codes base ~slots ~msgs ~len:!len in
      let data = Array.copy base_data in
      for k = 0 to !len - 1 do
        data.(slots.(k)) <- msgs.(k)
      done;
      check_one_inbox data plane;
      check_one_inbox data (Ba_sim.Plane.of_array ~encode data);
      check_boxed data plane
    done;
    check_one_inbox base_data base;
    check_boxed base_data base
  done

(* The base memo must never hold a patched answer: a patched query first,
   then the base query, then the patched one again. *)
let test_patched_keeps_base_memo () =
  let n = 10 in
  let msg v = { Skeleton.m_phase = 1; m_sub = Skeleton.R1; m_val = v; m_decided = true; m_flip = Some 1 } in
  let data = Array.make n (Some (msg 0)) in
  let base = Ba_sim.Plane.shared ~encode:Skeleton.msg_code ~slab:(Array.make n 0) data in
  (* slot 3 now votes 1, slot 7 is dropped *)
  let plane =
    Ba_sim.Plane.patched
      ~codes:[| Skeleton.msg_code (msg 1); Ba_sim.Plane.absent |]
      base ~slots:[| 3; 7 |] ~msgs:[| Some (msg 1); None |] ~len:2
  in
  let counts p = Ba_sim.Plane.vote_counts p ~phase:1 ~sub:0 ~decided_only:false in
  let sum p = Ba_sim.Plane.signed_sum p ~phase:1 ~sub:0 ~members:(fun _ -> true) in
  Alcotest.(check (pair int int)) "patched first" (n - 2, 1) (counts plane);
  Alcotest.(check int) "patched sum first" (n - 1) (sum plane);
  Alcotest.(check (pair int int)) "base after patched" (n, 0) (counts base);
  Alcotest.(check int) "base sum after patched" n (sum base);
  Alcotest.(check (pair int int)) "patched again" (n - 2, 1) (counts plane);
  Alcotest.(check bool) "base slot unpatched" true (Ba_sim.Plane.get base 7 = Some (msg 0))

let test_kernels_memoized_repeat () =
  (* Repeated identical queries hit the memo on shared planes; the answer
     must not change. *)
  let rng = Ba_prng.Rng.create 99L in
  let data = random_inbox rng 48 in
  let slab = Array.make 48 Ba_sim.Plane.absent in
  let plane = Ba_sim.Plane.shared ~encode:Skeleton.msg_code ~slab data in
  let q () = Ba_sim.Plane.vote_counts plane ~phase:1 ~sub:0 ~decided_only:false in
  let first = q () in
  for _ = 1 to 5 do
    Alcotest.(check (pair int int)) "memoized query is stable" first (q ())
  done

(* ---------------- suite document byte-equality ---------------- *)

let test_suite_json_across_domains () =
  let registry = Ba_experiments.Experiments.registry in
  let doc ~domains =
    let entries =
      List.map
        (fun id ->
          match Ba_harness.Registry.find registry id with
          | None -> Alcotest.fail (id ^ " not registered")
          | Some d ->
              let r =
                d.Ba_harness.Registry.run ~policy:Ba_harness.Supervisor.default
                  ~domains ~quick:true ~seed:2026L
              in
              (d, r, None))
        [ "E1"; "E8"; "E14"; "E18" ]
    in
    Ba_harness.Json.to_string ~pretty:true
      (Ba_harness.Registry.suite_json ~seed:2026L ~profile:"quick" ~entries ())
  in
  let base = doc ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "suite JSON, domains=%d" domains)
        base (doc ~domains))
    [ 2; 4 ]

let () =
  Alcotest.run "engine_batched"
    [ ( "tally kernels",
        [ Alcotest.test_case "kernels vs naive on adversarial inboxes" `Quick
            test_kernels_vs_naive;
          Alcotest.test_case "memoized queries are stable" `Quick
            test_kernels_memoized_repeat;
          Alcotest.test_case "patched views vs naive and solo" `Quick test_patched_vs_naive;
          Alcotest.test_case "patched queries keep the base memo" `Quick
            test_patched_keeps_base_memo ] );
      ( "shard determinism",
        [ Alcotest.test_case "suite JSON byte-identical at domains 1/2/4"
            `Slow test_suite_json_across_domains ] ) ]
