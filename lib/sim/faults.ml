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
  (* [pending.(src).(dst) = Some (r, m)]: a duplicate of [m] queued in round
     [r], re-delivered in round [r + 1] iff the link is otherwise idle.
     Allocated only when the plan can duplicate. *)
  pending : (int * 'msg) option array array option;
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
  { plan;
    rng = Ba_prng.Rng.create (Ba_prng.Splitmix64.mix (Int64.add seed fault_salt));
    pending =
      (if plan.duplicate > 0.0 then Some (Array.init n (fun _ -> Array.make n None)) else None) }

let silenced inst ~node ~round =
  List.exists
    (fun s -> s.s_node = node && round >= s.s_from && round < s.s_until)
    inst.plan.silences

let silenced_in_round plan ~round =
  List.fold_left
    (fun acc s -> if round >= s.s_from && round < s.s_until then acc + 1 else acc)
    0 plan.silences

type 'msg delivery = { d_payload : 'msg option; d_mutated : bool; d_duplicate : bool }

(* The one fault-draw sequence for a non-self link: drop, then corrupt,
   then duplicate, from the salted stream. Drops and corruptions are
   metered here; what a duplicate means (and when it is metered) is the
   caller's. *)
let draw inst ~metrics m =
  let p = inst.plan in
  if p.drop > 0.0 && Ba_prng.Rng.bernoulli inst.rng p.drop then begin
    Metrics.record_link_drop metrics;
    { d_payload = None; d_mutated = false; d_duplicate = false }
  end
  else begin
    let m, mutated =
      if p.corrupt > 0.0 && Ba_prng.Rng.bernoulli inst.rng p.corrupt then (
        match p.mutate with
        | Some f ->
            Metrics.record_link_corruption metrics;
            (f inst.rng m, true)
        | None -> (m, false))
      else (m, false)
    in
    let duplicate = p.duplicate > 0.0 && Ba_prng.Rng.bernoulli inst.rng p.duplicate in
    { d_payload = Some m; d_mutated = mutated; d_duplicate = duplicate }
  end

let deliver inst ~metrics ~round ~src ~dst payload =
  if src = dst then payload
  else begin
    let stale =
      match inst.pending with
      | None -> None
      | Some buf -> (
          match buf.(src).(dst) with
          | Some (r, m) ->
              buf.(src).(dst) <- None;
              if r + 1 = round then Some m else None
          | None -> None)
    in
    let fresh =
      match payload with
      | None -> None
      | Some m ->
          let d = draw inst ~metrics m in
          (* A drawn duplicate is re-delivered next round iff the link is
             then idle; it is metered only if that happens. *)
          (match (d.d_payload, inst.pending) with
          | Some m, Some buf when d.d_duplicate -> buf.(src).(dst) <- Some (round, m)
          | (Some _ | None), _ -> ());
          d.d_payload
    in
    match (fresh, stale) with
    | (Some _ as m), _ -> m
    | None, Some m ->
        Metrics.record_link_duplicate metrics;
        Some m
    | None, None -> None
  end

(* Async plane application: same plan, same salted stream and draws, but
   no round structure — the duplicate buffer does not apply. A duplicate is
   instead reported to the caller, which re-enqueues the copy as a fresh
   scheduler-visible message (metered here, at queue time, since delivery
   of the copy is then indistinguishable from any other delivery). *)
let apply_async inst ~metrics ~src ~dst payload =
  if src = dst then { d_payload = Some payload; d_mutated = false; d_duplicate = false }
  else begin
    let d = draw inst ~metrics payload in
    if d.d_duplicate then Metrics.record_link_duplicate metrics;
    d
  end
