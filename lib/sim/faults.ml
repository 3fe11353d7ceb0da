type silence = { s_node : int; s_from : int; s_until : int }

type 'msg plan = {
  drop : float;
  duplicate : float;
  corrupt : float;
  mutate : (Ba_prng.Rng.t -> 'msg -> 'msg) option;
  silences : silence list;
}

let none = { drop = 0.0; duplicate = 0.0; corrupt = 0.0; mutate = None; silences = [] }

let is_none p =
  p.drop = 0.0 && p.duplicate = 0.0 && p.corrupt = 0.0 && p.silences = []

let check_prob name p =
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faults.make: %s must be a probability in [0,1]" name)

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?mutate ?(silences = []) () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "corrupt" corrupt;
  if corrupt > 0.0 && Option.is_none mutate then
    invalid_arg "Faults.make: corrupt > 0 needs a mutator for the protocol's message type";
  List.iter
    (fun s ->
      if s.s_node < 0 then invalid_arg "Faults.make: silence node < 0";
      if s.s_from < 1 || s.s_until < s.s_from then
        invalid_arg "Faults.make: silence window must satisfy 1 <= from <= until")
    silences;
  { drop; duplicate; corrupt; mutate; silences }

type 'msg instance = {
  plan : 'msg plan;
  rng : Ba_prng.Rng.t;
  n : int;
  (* [pending.(src * n + dst) = Some m]: a duplicate of [m] queued in round
     [pending_round.(src * n + dst)], re-delivered in the next round iff the
     link is otherwise idle. Both are empty when the plan cannot duplicate.
     The slot holds the delivered option itself, so queueing allocates
     nothing. *)
  pending : 'msg option array;
  pending_round : int array;
  (* what the last edited link delivered (see [replacement]) *)
  mutable swapped : 'msg option;
}

(* The fault stream is salted so it is independent of the per-node protocol
   streams derived from the same run seed. *)
let fault_salt = 0xFA175EEDL

let instantiate plan ~n ~seed =
  if n <= 0 then invalid_arg "Faults.instantiate: n <= 0";
  List.iter
    (fun s ->
      if s.s_node >= n then
        invalid_arg (Printf.sprintf "Faults.instantiate: silence node %d >= n=%d" s.s_node n))
    plan.silences;
  let links = if plan.duplicate > 0.0 then n * n else 0 in
  { plan;
    rng = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.add seed fault_salt));
    n;
    pending = Array.make links None;
    pending_round = Array.make links 0;
    swapped = None }

let silenced inst ~node ~round =
  List.exists
    (fun s -> s.s_node = node && round >= s.s_from && round < s.s_until)
    inst.plan.silences

let silenced_in_round plan ~round =
  List.fold_left
    (fun acc s -> if round >= s.s_from && round < s.s_until then acc + 1 else acc)
    0 plan.silences

type edit = Kept | Dropped | Replaced

type 'msg delivery = { d_payload : 'msg option; d_mutated : bool; d_duplicate : bool }

(* Flag bits of one draw's outcome. *)
let dropped = 1
let mutated = 2
let duplicated = 4

(* The one fault-draw sequence for a non-self link: drop, then corrupt,
   then duplicate, from the salted stream. Drops and corruptions are
   metered here, and a mutated payload is left in [swapped]; what a
   duplicate means (and when it is metered) is the caller's. *)
let draw inst ~metrics m =
  let p = inst.plan in
  if p.drop > 0.0 && Ba_prng.Rng.bernoulli inst.rng p.drop then begin
    Metrics.record_link_drop metrics;
    dropped
  end
  else begin
    let flags =
      if p.corrupt > 0.0 && Ba_prng.Rng.bernoulli inst.rng p.corrupt then (
        match p.mutate with
        | Some f ->
            Metrics.record_link_corruption metrics;
            inst.swapped <- Some (f inst.rng m);
            mutated
        | None -> 0)
      else 0
    in
    if p.duplicate > 0.0 && Ba_prng.Rng.bernoulli inst.rng p.duplicate then flags lor duplicated
    else flags
  end

let deliver_edit inst ~metrics ~round ~src ~dst payload =
  if src = dst then Kept
  else begin
    let k = (src * inst.n) + dst in
    let stale =
      if Array.length inst.pending = 0 then None
      else
        match inst.pending.(k) with
        | None -> None
        | Some _ as m ->
            inst.pending.(k) <- None;
            if inst.pending_round.(k) + 1 = round then m else None
    in
    let edit =
      match payload with
      | None -> Kept
      | Some m ->
          let d = draw inst ~metrics m in
          if d land dropped <> 0 then begin
            inst.swapped <- None;
            Dropped
          end
          else begin
            (* A drawn duplicate is re-delivered next round iff the link is
               then idle; it is metered only if that happens. *)
            if d land duplicated <> 0 then begin
              inst.pending.(k) <- (if d land mutated <> 0 then inst.swapped else payload);
              inst.pending_round.(k) <- round
            end;
            if d land mutated <> 0 then Replaced else Kept
          end
    in
    let idle = match edit with Dropped -> true | Kept | Replaced -> Option.is_none payload in
    if idle && Option.is_some stale then begin
      Metrics.record_link_duplicate metrics;
      inst.swapped <- stale;
      Replaced
    end
    else edit
  end

let replacement inst = inst.swapped

let deliver inst ~metrics ~round ~src ~dst payload =
  match deliver_edit inst ~metrics ~round ~src ~dst payload with
  | Kept -> payload
  | Dropped | Replaced -> inst.swapped

(* Async plane application: same plan, same salted stream and draws, but
   no round structure — the duplicate buffer does not apply. A duplicate is
   instead reported to the caller, which re-enqueues the copy as a fresh
   scheduler-visible message (metered here, at queue time, since delivery
   of the copy is then indistinguishable from any other delivery). *)
let apply_async inst ~metrics ~src ~dst payload =
  if src = dst then { d_payload = Some payload; d_mutated = false; d_duplicate = false }
  else begin
    let d = draw inst ~metrics payload in
    let duplicate = d land duplicated <> 0 in
    if duplicate then Metrics.record_link_duplicate metrics;
    { d_payload =
        (if d land dropped <> 0 then None
         else if d land mutated <> 0 then inst.swapped
         else Some payload);
      d_mutated = d land mutated <> 0;
      d_duplicate = duplicate }
  end
