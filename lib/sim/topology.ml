(* Per-round delivery topologies for the message plane (DESIGN.md §13).

   The engine's historical behaviour — every sender reaches every live
   recipient — is the [Dense] plan and stays on the packed-slab fast path
   untouched. The two restricted plans compute, for each (round, sender), a
   deterministic recipient set:

   - [Sampled { degree }]: King–Saia-style uniform sampling — [degree]
     distinct recipients drawn per sender per round from a salted SplitMix64
     stream keyed by (seed, round, sender). Re-keying per (round, src) makes
     the sets independent of evaluation order.
   - [Committees { count }]: round-robin committee-to-committee links —
     node [v] belongs to committee [v mod count] and reaches its own
     committee plus the round's designated committee [(round - 1) mod
     count]. No randomness; no protocol or experiment routes over it —
     only the topology tests (test_sparse, test_restricted, test_prng)
     use it.

   Sampling draws nothing from the per-node protocol streams or the
   adversary stream: corrupting a node never perturbs anyone's recipient
   sets (the "oblivious sampler" property the soundness argument of
   DESIGN.md §13 leans on). *)

type plan =
  | Dense
  | Sampled of { degree : int }
  | Committees of { count : int }

(* An instance owns its sampling scratch, so it belongs to one run on one
   domain: [tp_gen] is reseeded in place for every (round, src), and
   [x] is already drawn in the current call iff its 64-bit stamp in
   [tp_stamp] equals [tp_epoch] (a fresh epoch per call clears the set in
   O(1)). The stamps live in [Bytes], which the GC never scans; an n-slot
   [int array] would be rescanned on every major cycle. *)
type t = {
  tp_plan : plan;
  tp_n : int;
  tp_salt : int64;
  tp_gen : Ba_prng.Xoshiro256.t;
  tp_stamp : Bytes.t;
  tp_count : int array;  (** bucket counts for [sort_sample] *)
  tp_tmp : int array;  (** [sort_sample]'s scatter buffer *)
  mutable tp_epoch : int;
  mutable tp_key_round : int;  (** the round [tp_key] was derived for *)
  mutable tp_key : int64;
}

let is_dense = function Dense -> true | Sampled _ | Committees _ -> false

let validate plan ~n =
  if n < 1 then invalid_arg "Topology.validate: n < 1";
  match plan with
  | Dense -> ()
  | Sampled { degree } ->
      if degree < 1 || degree > n - 1 then
        invalid_arg
          (Printf.sprintf "Topology.validate: sampled degree %d outside [1, n-1=%d]" degree (n - 1))
  | Committees { count } ->
      if count < 1 || count > n then
        invalid_arg (Printf.sprintf "Topology.validate: committee count %d outside [1, n=%d]" count n)

(* Salt tag for the topology stream: independent of the fault stream
   (0xFA175EED) and the per-node splitter streams derived from the seed. *)
let topology_salt = 0x70B0_106FL

let instantiate plan ~n ~seed =
  validate plan ~n;
  let k = match plan with Sampled { degree } -> min degree (n - 1) | Dense | Committees _ -> 0 in
  { tp_plan = plan;
    tp_n = n;
    tp_salt = Ba_prng.Splitmix64.mix (Int64.add (Ba_prng.Splitmix64.mix seed) topology_salt);
    tp_gen = Ba_prng.Xoshiro256.create 0L;
    tp_stamp = Bytes.make (match plan with Sampled _ -> 8 * n | Dense | Committees _ -> 0) '\000';
    tp_count = Array.make (k + 1) 0;
    tp_tmp = Array.make k 0;
    tp_epoch = 0;
    tp_key_round = 0;
    tp_key = 0L }

let degree_bound t =
  let n = t.tp_n in
  match t.tp_plan with
  | Dense -> n - 1
  | Sampled { degree } -> min degree (n - 1)
  | Committees { count } ->
      (* the sender's own committee minus itself, plus one other *)
      let size = (n + count - 1) / count in
      min (n - 1) ((2 * size) - 1)

(* The (round, src) stream: xoshiro256++ seeded with
   mix (mix (salt + round) + src), the same stream [Rng.create] would give
   that seed. Re-keying per (round, src) makes the sets independent of
   evaluation order; the round key is cached across a round's senders. *)
let reseed t ~round ~src =
  if round <> t.tp_key_round then begin
    t.tp_key_round <- round;
    t.tp_key <- Ba_prng.Splitmix64.mix (Int64.add t.tp_salt (Int64.of_int round))
  end;
  Ba_prng.Xoshiro256.reseed t.tp_gen
    (Ba_prng.Splitmix64.mix (Int64.add t.tp_key (Int64.of_int src)))

let insertion_sort (a : int array) ~lo ~hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* In-place ascending sort of the [k] sampled values at [a.(pos) ..].
   They are uniform in [0, n), so above 16 values one counting pass by
   bucket [x * k / n] (computed as a multiply and shift, [< k] for
   [x < n]) leaves them nearly sorted and insertion sort finishes in
   expected O(k). A comparison sort on random input mispredicts about
   every other branch and took twice as long at k = 91. *)
let sort_sample t (a : int array) ~pos ~k =
  if k > 16 then begin
    let count = t.tp_count and tmp = t.tp_tmp in
    let scale = (k lsl 32) / t.tp_n in
    Array.fill count 0 (k + 1) 0;
    for i = pos to pos + k - 1 do
      let b = (a.(i) * scale) lsr 32 in
      count.(b + 1) <- count.(b + 1) + 1
    done;
    for b = 1 to k do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for i = pos to pos + k - 1 do
      let b = (a.(i) * scale) lsr 32 in
      tmp.(count.(b)) <- a.(i);
      count.(b) <- count.(b) + 1
    done;
    Array.blit tmp 0 a pos k
  end;
  insertion_sort a ~lo:pos ~hi:(pos + k)

(* [k] distinct values from [0, n) \ {skip} into [out.(pos) ..], in draw
   order. Rejection sampling for the sparse regime (k well below n):
   expected O(k) draws, membership by epoch stamp. Near-dense requests
   fall back to a partial Fisher-Yates over the explicit candidate set —
   O(n), only reachable at test scale. *)
let sample_into t ~k ~skip out ~pos =
  let bound = t.tp_n and g = t.tp_gen in
  if 2 * k >= bound - 1 then begin
    let all = Array.make (bound - 1) 0 in
    let idx = ref 0 in
    for v = 0 to bound - 1 do
      if v <> skip then begin
        all.(!idx) <- v;
        incr idx
      end
    done;
    for i = 0 to k - 1 do
      let j = i + Ba_prng.Xoshiro256.int_below g (bound - 1 - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Array.blit all 0 out pos k
  end
  else begin
    t.tp_epoch <- t.tp_epoch + 1;
    let stamp = Int64.of_int t.tp_epoch in
    let filled = ref 0 in
    while !filled < k do
      let raw = Ba_prng.Xoshiro256.int_below g (bound - 1) in
      let x = if raw >= skip then raw + 1 else raw in
      if Bytes.get_int64_ne t.tp_stamp (8 * x) <> stamp then begin
        Bytes.set_int64_ne t.tp_stamp (8 * x) stamp;
        out.(pos + !filled) <- x;
        incr filled
      end
    done
  end

let recipients_into t ~round ~src out ~pos =
  if round < 1 then invalid_arg "Topology.recipients: rounds are 1-based";
  if src < 0 || src >= t.tp_n then invalid_arg "Topology.recipients: src out of range";
  let n = t.tp_n in
  match t.tp_plan with
  | Dense ->
      for i = 0 to n - 2 do
        out.(pos + i) <- (if i >= src then i + 1 else i)
      done;
      n - 1
  | Sampled { degree } ->
      let k = min degree (n - 1) in
      reseed t ~round ~src;
      sample_into t ~k ~skip:src out ~pos;
      k
  | Committees { count } ->
      let mine = src mod count in
      let tgt = (round - 1) mod count in
      let k = ref 0 in
      for u = 0 to n - 1 do
        if u <> src && (u mod count = mine || u mod count = tgt) then begin
          out.(pos + !k) <- u;
          incr k
        end
      done;
      !k

(* Only a sampled set is written out of order; the dense and committee
   sets are generated ascending. *)
let sort_recipients t out ~pos ~len =
  match t.tp_plan with
  | Sampled _ -> sort_sample t out ~pos ~k:len
  | Dense | Committees _ -> ()

let recipients t ~round ~src =
  let out = Array.make (degree_bound t) 0 in
  let k = recipients_into t ~round ~src out ~pos:0 in
  sort_recipients t out ~pos:0 ~len:k;
  if k = Array.length out then out else Array.sub out 0 k
