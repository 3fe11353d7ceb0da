(* Batched message plane (DESIGN.md sections 10 and 13).

   One round's deliveries, as seen by a recipient. Four representations:

   - shared (flat): every dense round packs the honest broadcast slab once
     into a reusable int-code array and memoizes aggregation results, so a
     round whose recipients all see that slab costs O(n) instead of O(n^2)
     for protocols whose recv is a tally;
   - solo (flat): [of_array] over a caller-owned array, codes derived on
     the fly, nothing memoized;
   - patched: a recipient whose inbox differs from the shared slab at a
     few slots (Byzantine payloads, link-fault edits) reads the shared
     plane through its own sorted patch. Tallies take the base's memoized
     answer and correct it at the patched slots, so a round with t
     Byzantine senders costs O(n + t n), not O(n^2). The base memo only
     ever stores unpatched answers;
   - sparse slice: under a restricted Topology a recipient's inbox is the
     short list of senders whose sampled recipient set contained it. The
     slice holds the sorted source ids of just those deliveries, so tally
     kernels cost O(in-degree) — the whole point of the sparse plane. Each
     delivery's payload and code sit either at its own slab slot (per-edge:
     a fault or a Byzantine sender can make edges of one sender differ) or
     at its sender id (sender-indexed: every edge carries its sender's
     broadcast, so the round's broadcast array serves every slice). Slices
     are solo by construction (one recipient each), so nothing is
     memoized.

   The cache is keyed by plain ints (never closures — lint D005 bans
   physical equality, and structural equality on closures is meaningless),
   which imposes the documented requirement that a [signed_sum] membership
   predicate is determined by its (phase, sub) key for a given plane. *)

let absent = -1
let opaque = -2

(* Code layout (non-negative values only):
     bits 0-1  vote        0 | 1 | 2 = not a countable vote
     bit  2    decided
     bits 3-4  sub-round   protocol-defined, 0..3
     bits 5-6  flip        0 = none | 1 = +1 | 2 = -1
     bits 7+   phase
   Negative codes: [absent] (no message) and [opaque] (a payload whose
   phase no in-range query can ever match, e.g. a Byzantine header). *)

let max_phase = 1 lsl 44

let code ~phase ~sub ~decided ~vote ~flip =
  if phase < 0 || phase > max_phase then opaque
  else begin
    if sub < 0 || sub > 3 then invalid_arg "Plane.code: sub out of range";
    let v = if vote = 0 || vote = 1 then vote else 2 in
    let f = match flip with Some 1 -> 1 | Some (-1) -> 2 | Some _ | None -> 0 in
    (phase lsl 7) lor (f lsl 5) lor (sub lsl 3) lor ((if decided then 1 else 0) lsl 2) lor v
  end

type cache_entry = {
  ck_kind : int; (* 0 = vote_counts, 1 = signed_sum *)
  ck_phase : int;
  ck_sub : int;
  ck_flag : int; (* decided_only for vote_counts; 0 for signed_sum *)
  cr_a : int;
  cr_b : int;
}

type 'msg repr =
  | Flat of {
      f_data : 'msg option array;
      f_codes : int array option; (* packed slab; present only on shared planes *)
      f_encode : ('msg -> int) option;
    }
  | Sparse of {
      sp_n : int; (* sender-id space; [length] of the plane *)
      sp_srcs : int array; (* sorted ascending within [lo, hi) *)
      sp_codes : int array option; (* packed codes; None without codec *)
      sp_msgs : 'msg option array; (* boxed payloads *)
      sp_by_sender : bool; (* payload and code of delivery k at sp_srcs.(k), else at k *)
      sp_lo : int;
      sp_hi : int;
    }
  | Patched of {
      pt_base : 'msg t; (* a flat plane, memoized when shared *)
      pt_slots : int array; (* patched slot ids, strictly ascending in [0, pt_len) *)
      pt_msgs : 'msg option array; (* in step with pt_slots *)
      pt_codes : int array option; (* in step with pt_slots; None without codec *)
      pt_len : int;
    }

and 'msg t = { p_repr : 'msg repr; mutable p_cache : cache_entry list }

let of_array ?encode data =
  { p_repr = Flat { f_data = data; f_codes = None; f_encode = encode }; p_cache = [] }

let shared ?encode ~slab data =
  let codes =
    match encode with
    | None -> None
    | Some f ->
        let n = Array.length data in
        let slab = if Array.length slab >= n then slab else Array.make n absent in
        for i = 0 to n - 1 do
          slab.(i) <- (match data.(i) with None -> absent | Some m -> f m)
        done;
        Some slab
  in
  { p_repr = Flat { f_data = data; f_codes = codes; f_encode = encode }; p_cache = [] }

let sparse_slice ?codes ?(by_sender = false) ~n ~srcs ~msgs ~lo ~hi () =
  if lo < 0 || hi < lo || hi > Array.length srcs then
    invalid_arg "Plane.sparse_slice: bad [lo, hi) slice";
  let need = if by_sender then n else hi in
  if Array.length msgs < need then invalid_arg "Plane.sparse_slice: msgs too short";
  (match codes with
  | Some cs when Array.length cs < need -> invalid_arg "Plane.sparse_slice: codes too short"
  | Some _ | None -> ());
  { p_repr =
      Sparse
        { sp_n = n; sp_srcs = srcs; sp_codes = codes; sp_msgs = msgs; sp_by_sender = by_sender;
          sp_lo = lo; sp_hi = hi };
    p_cache = [] }

(* Where a sparse slice keeps the payload and code of its [k]-th delivery. *)
let sparse_at ~by_sender srcs k = if by_sender then srcs.(k) else k

let patched ?codes base ~slots ~msgs ~len =
  (match base.p_repr with
  | Flat _ -> ()
  | Sparse _ | Patched _ -> invalid_arg "Plane.patched: base must be a flat plane");
  if len < 0 || len > Array.length slots || len > Array.length msgs then
    invalid_arg "Plane.patched: len exceeds the patch buffers";
  (match codes with
  | Some cs when Array.length cs < len -> invalid_arg "Plane.patched: len exceeds codes"
  | Some _ | None -> ());
  { p_repr =
      Patched { pt_base = base; pt_slots = slots; pt_msgs = msgs; pt_codes = codes; pt_len = len };
    p_cache = [] }

let shard_view t = { t with p_cache = [] }

(* Binary search: the index of [v] in the ascending [ids.(lo .. hi-1)], or
   -1. *)
let find_sorted ids ~lo ~hi v =
  let lo = ref lo and hi = ref hi and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = ids.(mid) in
    if x = v then found := mid else if x < v then lo := mid + 1 else hi := mid
  done;
  !found

let rec length t =
  match t.p_repr with
  | Flat f -> Array.length f.f_data
  | Sparse s -> s.sp_n
  | Patched p -> length p.pt_base

let rec get t v =
  match t.p_repr with
  | Flat f -> f.f_data.(v)
  | Patched p ->
      let k = find_sorted p.pt_slots ~lo:0 ~hi:p.pt_len v in
      if k >= 0 then p.pt_msgs.(k) else get p.pt_base v
  | Sparse s ->
      let k = find_sorted s.sp_srcs ~lo:s.sp_lo ~hi:s.sp_hi v in
      if k >= 0 then s.sp_msgs.(sparse_at ~by_sender:s.sp_by_sender s.sp_srcs k) else None

let rec iteri f t =
  match t.p_repr with
  | Flat fl -> Array.iteri f fl.f_data
  | Sparse s ->
      for k = s.sp_lo to s.sp_hi - 1 do
        f s.sp_srcs.(k) s.sp_msgs.(sparse_at ~by_sender:s.sp_by_sender s.sp_srcs k)
      done
  | Patched p ->
      let k = ref 0 in
      iteri
        (fun v m ->
          if !k < p.pt_len && p.pt_slots.(!k) = v then begin
            f v p.pt_msgs.(!k);
            incr k
          end
          else f v m)
        p.pt_base

let rec to_array t =
  match t.p_repr with
  | Flat f -> Array.copy f.f_data
  | Sparse s ->
      let out = Array.make s.sp_n None in
      for k = s.sp_lo to s.sp_hi - 1 do
        out.(s.sp_srcs.(k)) <- s.sp_msgs.(sparse_at ~by_sender:s.sp_by_sender s.sp_srcs k)
      done;
      out
  | Patched p ->
      let out = to_array p.pt_base in
      for k = 0 to p.pt_len - 1 do
        out.(p.pt_slots.(k)) <- p.pt_msgs.(k)
      done;
      out

let flat_code f i =
  match f with
  | Flat { f_codes = Some codes; _ } -> codes.(i)
  | Flat { f_data; f_encode; _ } -> (
      match f_data.(i) with
      | None -> absent
      | Some m -> (
          match f_encode with
          | Some enc -> enc m
          | None -> invalid_arg "Plane: tally kernel on a plane without a codec"))
  | Sparse _ | Patched _ -> assert false

let packed_codes = function
  | Some codes -> codes
  | None -> invalid_arg "Plane: tally kernel on a plane without a codec"

let find_cache t ~kind ~phase ~sub ~flag =
  List.find_opt
    (fun e -> e.ck_kind = kind && e.ck_phase = phase && e.ck_sub = sub && e.ck_flag = flag)
    t.p_cache

let memoize t ~kind ~phase ~sub ~flag compute =
  match t.p_repr with
  | Flat { f_codes = None; _ } | Sparse _ | Patched _ ->
      (* solo plane / per-recipient slice or patch: consumed by one recv,
         nothing to share *)
      compute ()
  | Flat { f_codes = Some _; _ } -> (
      match find_cache t ~kind ~phase ~sub ~flag with
      | Some e -> (e.cr_a, e.cr_b)
      | None ->
          let ((a, b) as r) = compute () in
          t.p_cache <-
            { ck_kind = kind; ck_phase = phase; ck_sub = sub; ck_flag = flag; cr_a = a; cr_b = b }
            :: t.p_cache;
          r)

let vote_counts_scan t ~phase ~sub ~decided_only =
  let c0 = ref 0 and c1 = ref 0 in
  let count c =
    if c >= 0 && c lsr 7 = phase && (c lsr 3) land 3 = sub then begin
      let v = c land 3 in
      if v < 2 && ((not decided_only) || (c lsr 2) land 1 = 1) then
        if v = 0 then incr c0 else incr c1
    end
  in
  (match t.p_repr with
  | Flat f ->
      for i = 0 to Array.length f.f_data - 1 do
        count (flat_code (Flat f) i)
      done
  | Sparse s ->
      let codes = packed_codes s.sp_codes in
      for k = s.sp_lo to s.sp_hi - 1 do
        count codes.(sparse_at ~by_sender:s.sp_by_sender s.sp_srcs k)
      done
  | Patched _ -> assert false);
  (!c0, !c1)

(* What one code adds to a patch correction: the vote it counts (0 or 1,
   else -1) and the flip it sums. The scans above inline the same tests in
   their per-slot loops. *)
let vote_of c ~phase ~sub ~decided_only =
  if c >= 0 && c lsr 7 = phase && (c lsr 3) land 3 = sub then
    let v = c land 3 in
    if v < 2 && ((not decided_only) || (c lsr 2) land 1 = 1) then v else -1
  else -1

let flip_of c ~phase ~sub =
  if c >= 0 && c lsr 7 = phase && (c lsr 3) land 3 = sub then
    match (c lsr 5) land 3 with 1 -> 1 | 2 -> -1 | _ -> 0
  else 0

let rec vote_counts t ~phase ~sub ~decided_only =
  match t.p_repr with
  | Patched p ->
      let c0, c1 = vote_counts p.pt_base ~phase ~sub ~decided_only in
      let codes = packed_codes p.pt_codes in
      let c0 = ref c0 and c1 = ref c1 in
      for k = 0 to p.pt_len - 1 do
        (match vote_of (flat_code p.pt_base.p_repr p.pt_slots.(k)) ~phase ~sub ~decided_only with
        | 0 -> decr c0
        | 1 -> decr c1
        | _ -> ());
        match vote_of codes.(k) ~phase ~sub ~decided_only with
        | 0 -> incr c0
        | 1 -> incr c1
        | _ -> ()
      done;
      (!c0, !c1)
  | Flat _ | Sparse _ ->
      memoize t ~kind:0 ~phase ~sub
        ~flag:(if decided_only then 1 else 0)
        (fun () -> vote_counts_scan t ~phase ~sub ~decided_only)

let signed_sum_scan t ~phase ~sub ~members =
  let sum = ref 0 in
  let add c =
    if c >= 0 && c lsr 7 = phase && (c lsr 3) land 3 = sub then
      match (c lsr 5) land 3 with 1 -> incr sum | 2 -> decr sum | _ -> ()
  in
  (match t.p_repr with
  | Flat f ->
      for i = 0 to Array.length f.f_data - 1 do
        if members i then add (flat_code (Flat f) i)
      done
  | Sparse s ->
      let codes = packed_codes s.sp_codes in
      for k = s.sp_lo to s.sp_hi - 1 do
        if members s.sp_srcs.(k) then add codes.(sparse_at ~by_sender:s.sp_by_sender s.sp_srcs k)
      done
  | Patched _ -> assert false);
  !sum

let rec signed_sum t ~phase ~sub ~members =
  match t.p_repr with
  | Patched p ->
      let codes = packed_codes p.pt_codes in
      let sum = ref (signed_sum p.pt_base ~phase ~sub ~members) in
      for k = 0 to p.pt_len - 1 do
        let v = p.pt_slots.(k) in
        if members v then
          sum := !sum - flip_of (flat_code p.pt_base.p_repr v) ~phase ~sub + flip_of codes.(k) ~phase ~sub
      done;
      !sum
  | Flat _ | Sparse _ ->
      let sum, _ =
        memoize t ~kind:1 ~phase ~sub ~flag:0 (fun () -> (signed_sum_scan t ~phase ~sub ~members, 0))
      in
      sum
