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
     count]. No randomness; used for committee-routed baselines and the
     small-instance verifier's topology tests.

   Sampling draws nothing from the per-node protocol streams or the
   adversary stream: corrupting a node never perturbs anyone's recipient
   sets (the "oblivious sampler" property the soundness argument of
   DESIGN.md §13 leans on). *)

type plan =
  | Dense
  | Sampled of { degree : int }
  | Committees of { count : int }

type t = { tp_plan : plan; tp_n : int; tp_salt : int64 }

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
  { tp_plan = plan;
    tp_n = n;
    tp_salt = Ba_prng.Splitmix64.mix (Int64.add (Ba_prng.Splitmix64.mix seed) topology_salt) }

let edge_rng t ~round ~src =
  let h = Ba_prng.Splitmix64.mix (Int64.add t.tp_salt (Int64.of_int round)) in
  Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.add h (Int64.of_int src)))

(* [k] distinct values from [0, bound) \ {skip}, sorted ascending. Rejection
   sampling for the sparse regime (k well below bound): expected O(k) draws,
   membership by linear scan for tiny k and a scratch table otherwise.
   Near-dense requests fall back to a partial Fisher-Yates over the explicit
   candidate set — O(bound), only reachable at test scale. *)
let sample_distinct rng ~k ~bound ~skip =
  if k = 0 then [||]
  else if 2 * k >= bound - 1 then begin
    let all = Array.make (bound - 1) 0 in
    let idx = ref 0 in
    for v = 0 to bound - 1 do
      if v <> skip then begin
        all.(!idx) <- v;
        incr idx
      end
    done;
    for i = 0 to k - 1 do
      let j = i + Ba_prng.Rng.int rng (bound - 1 - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    let out = Array.sub all 0 k in
    Array.sort compare out;
    out
  end
  else begin
    let out = Array.make k 0 in
    let filled = ref 0 in
    let seen = if k > 16 then Some (Hashtbl.create (4 * k)) else None in
    while !filled < k do
      let raw = Ba_prng.Rng.int rng (bound - 1) in
      let x = if raw >= skip then raw + 1 else raw in
      let dup =
        match seen with
        | Some h -> Hashtbl.mem h x
        | None ->
            let d = ref false in
            for j = 0 to !filled - 1 do
              if out.(j) = x then d := true
            done;
            !d
      in
      if not dup then begin
        (match seen with Some h -> Hashtbl.add h x () | None -> ());
        out.(!filled) <- x;
        incr filled
      end
    done;
    Array.sort compare out;
    out
  end

let recipients t ~round ~src =
  if round < 1 then invalid_arg "Topology.recipients: rounds are 1-based";
  if src < 0 || src >= t.tp_n then invalid_arg "Topology.recipients: src out of range";
  let n = t.tp_n in
  match t.tp_plan with
  | Dense ->
      Array.init (n - 1) (fun i -> if i >= src then i + 1 else i)
  | Sampled { degree } ->
      sample_distinct (edge_rng t ~round ~src) ~k:(min degree (n - 1)) ~bound:n ~skip:src
  | Committees { count } ->
      let mine = src mod count in
      let tgt = (round - 1) mod count in
      let out = ref [] in
      for u = n - 1 downto 0 do
        if u <> src && (u mod count = mine || u mod count = tgt) then out := u :: !out
      done;
      Array.of_list !out
