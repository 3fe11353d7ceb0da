(* Pending-message slab with intrusive global and per-src lists. See the
   .mli and DESIGN.md section 15 for the shape; the key facts the engine
   relies on:

   - ids come from one monotonic counter and slots append at every tail,
     so both lists stay id-sorted with no comparisons;
   - removal and enqueue are O(1); the freelist is chained through
     [gnext], so a slot costs nothing extra when parked;
   - growth doubles all parallel arrays at once, using the payload of the
     triggering enqueue as the ['msg] filler — no [option] boxing and no
     per-message allocation once the slab has reached its high-water
     mark;
   - ids are dense, so a Fenwick tree over the id space gives O(log)
     rank-selection ("the k-th oldest pending message" — one draw of the
     uniform scheduler) and a flat id-to-slot table gives O(1) lookup for
     the opaque adversary's deliver-by-id. *)

type 'msg t = {
  n : int;
  mutable cap : int;
  mutable ids : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable births : int array;
  mutable msgs : 'msg array;
  mutable gnext : int array;
  mutable gprev : int array;
  mutable snext : int array;
  mutable sprev : int array;
  mutable ghead : int;
  mutable gtail : int;
  shead : int array;
  stail : int array;
  mutable free : int; (* freelist head, chained through gnext *)
  mutable live : int;
  mutable counter : int;
  mutable scr : int array;
  (* Order statistics over the dense id space: [id2slot] maps an id to its
     live slot (-1 once removed); [fen] is a 1-indexed Fenwick tree of
     live-id indicator bits over [idcap] ids ([idcap] a power of two, so
     doubling only copies — the old root is the new left child). *)
  mutable idcap : int;
  mutable id2slot : int array;
  mutable fen : int array;
}

let create ~n () =
  if n <= 0 then invalid_arg "Mailbox.create: n must be positive";
  {
    n;
    cap = 0;
    ids = [||];
    srcs = [||];
    dsts = [||];
    births = [||];
    msgs = [||];
    gnext = [||];
    gprev = [||];
    snext = [||];
    sprev = [||];
    ghead = -1;
    gtail = -1;
    shead = Array.make n (-1);
    stail = Array.make n (-1);
    free = -1;
    live = 0;
    counter = 0;
    scr = [||];
    idcap = 0;
    id2slot = [||];
    fen = [||];
  }

let lowbit i = i land -i

let fen_add t i d =
  let i = ref (i + 1) in
  while !i <= t.idcap do
    t.fen.(!i) <- t.fen.(!i) + d;
    i := !i + lowbit !i
  done

let ensure_id_cap t =
  if t.counter >= t.idcap then begin
    let ncap = if t.idcap = 0 then 1024 else t.idcap * 2 in
    let id2 = Array.make ncap (-1) in
    Array.blit t.id2slot 0 id2 0 t.idcap;
    let fen = Array.make (ncap + 1) 0 in
    if t.idcap > 0 then begin
      Array.blit t.fen 1 fen 1 t.idcap;
      (* The new root covers the whole id space; every live id is below the
         old capacity, so its count is just the live population. *)
      fen.(ncap) <- t.live
    end;
    t.id2slot <- id2;
    t.fen <- fen;
    t.idcap <- ncap
  end

let size t = t.live
let is_empty t = t.live = 0
let next_id t = t.counter
let capacity t = t.cap
let id t s = t.ids.(s)
let src t s = t.srcs.(s)
let dst t s = t.dsts.(s)
let birth t s = t.births.(s)
let msg t s = t.msgs.(s)
let head t = t.ghead
let next_global t s = t.gnext.(s)
let head_src t v = t.shead.(v)
let next_src t s = t.snext.(s)
let scratch t = t.scr

let grow_int old ncap =
  let a = Array.make ncap (-1) in
  Array.blit old 0 a 0 (Array.length old);
  a

(* [filler] is the payload of the enqueue that triggered growth; new slots
   borrow it until they are first written. *)
let grow t filler =
  let ncap = if t.cap = 0 then 16 else t.cap * 2 in
  let msgs = Array.make ncap filler in
  Array.blit t.msgs 0 msgs 0 t.cap;
  t.msgs <- msgs;
  t.ids <- grow_int t.ids ncap;
  t.srcs <- grow_int t.srcs ncap;
  t.dsts <- grow_int t.dsts ncap;
  t.births <- grow_int t.births ncap;
  t.gnext <- grow_int t.gnext ncap;
  t.gprev <- grow_int t.gprev ncap;
  t.snext <- grow_int t.snext ncap;
  t.sprev <- grow_int t.sprev ncap;
  t.scr <- Array.make ncap 0;
  (* Chain the fresh tail of the slab onto the freelist, newest first so
     low slot numbers are preferred (cache locality on small runs). *)
  for s = ncap - 1 downto t.cap do
    t.gnext.(s) <- t.free;
    t.free <- s
  done;
  t.cap <- ncap

let enqueue t ~src ~dst ~birth m =
  if src < 0 || src >= t.n then invalid_arg "Mailbox.enqueue: src out of range";
  if dst < 0 || dst >= t.n then invalid_arg "Mailbox.enqueue: dst out of range";
  if t.free = -1 then grow t m;
  ensure_id_cap t;
  let s = t.free in
  t.free <- t.gnext.(s);
  let i = t.counter in
  t.counter <- i + 1;
  t.live <- t.live + 1;
  t.id2slot.(i) <- s;
  fen_add t i 1;
  t.ids.(s) <- i;
  t.srcs.(s) <- src;
  t.dsts.(s) <- dst;
  t.births.(s) <- birth;
  t.msgs.(s) <- m;
  (* global tail *)
  t.gnext.(s) <- -1;
  t.gprev.(s) <- t.gtail;
  if t.gtail = -1 then t.ghead <- s else t.gnext.(t.gtail) <- s;
  t.gtail <- s;
  (* per-src tail *)
  t.snext.(s) <- -1;
  t.sprev.(s) <- t.stail.(src);
  if t.stail.(src) = -1 then t.shead.(src) <- s else t.snext.(t.stail.(src)) <- s;
  t.stail.(src) <- s;
  i

let remove t s =
  t.id2slot.(t.ids.(s)) <- -1;
  fen_add t t.ids.(s) (-1);
  let p = t.gprev.(s) and nx = t.gnext.(s) in
  if p = -1 then t.ghead <- nx else t.gnext.(p) <- nx;
  if nx = -1 then t.gtail <- p else t.gprev.(nx) <- p;
  let v = t.srcs.(s) in
  let p = t.sprev.(s) and nx = t.snext.(s) in
  if p = -1 then t.shead.(v) <- nx else t.snext.(p) <- nx;
  if nx = -1 then t.stail.(v) <- p else t.sprev.(nx) <- p;
  t.gnext.(s) <- t.free;
  t.free <- s;
  t.live <- t.live - 1

let remove_src t v =
  let rec loop s =
    if s <> -1 then begin
      let nx = t.snext.(s) in
      remove t s;
      loop nx
    end
  in
  loop t.shead.(v)

(* Fenwick rank-selection: descend from the root (idcap is a power of two)
   to the smallest id whose live-prefix count reaches [k + 1]. *)
let nth_global t k =
  if k < 0 || k >= t.live then -1
  else begin
    let pos = ref 0 in
    let rem = ref (k + 1) in
    let bit = ref t.idcap in
    while !bit > 0 do
      let nxt = !pos + !bit in
      if nxt <= t.idcap && t.fen.(nxt) < !rem then begin
        rem := !rem - t.fen.(nxt);
        pos := nxt
      end;
      bit := !bit lsr 1
    done;
    t.id2slot.(!pos)
  end

let find_by_id t i = if i < 0 || i >= t.counter then -1 else t.id2slot.(i)

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg ("Mailbox.validate: " ^^ fmt) in
  let seen = Array.make (max 1 t.cap) `Unseen in
  (* Global list: ascending ids, consistent prev links, mark slots. *)
  let count = ref 0 in
  let prev = ref (-1) in
  let s = ref t.ghead in
  while !s <> -1 do
    if !s < 0 || !s >= t.cap then fail "global link out of bounds";
    if seen.(!s) <> `Unseen then fail "slot %d linked twice" !s;
    seen.(!s) <- `Live;
    if t.gprev.(!s) <> !prev then fail "gprev mismatch at slot %d" !s;
    if !prev <> -1 && t.ids.(!prev) >= t.ids.(!s) then fail "global ids not ascending";
    incr count;
    prev := !s;
    s := t.gnext.(!s)
  done;
  if t.gtail <> !prev then fail "gtail mismatch";
  if !count <> t.live then fail "size %d but %d slots linked" t.live !count;
  (* Freelist: disjoint from the live set, covers the rest of the slab. *)
  let s = ref t.free in
  while !s <> -1 do
    if !s < 0 || !s >= t.cap then fail "freelist link out of bounds";
    (match seen.(!s) with
    | `Unseen -> seen.(!s) <- `Free
    | `Free -> fail "freelist cycle at slot %d" !s
    | `Live -> fail "slot %d both live and free" !s);
    s := t.gnext.(!s)
  done;
  for s = 0 to t.cap - 1 do
    if seen.(s) = `Unseen then fail "slot %d leaked (neither live nor free)" s
  done;
  (* Per-source lists: field agreement, ascending ids, exact coverage. *)
  let covered = ref 0 in
  Array.iteri
    (fun v h ->
      let prev = ref (-1) in
      let s = ref h in
      while !s <> -1 do
        if seen.(!s) <> `Live then fail "src list of %d holds dead slot %d" v !s;
        if t.srcs.(!s) <> v then fail "src field mismatch at slot %d" !s;
        if t.sprev.(!s) <> !prev then fail "src prev mismatch at slot %d" !s;
        if !prev <> -1 && t.ids.(!prev) >= t.ids.(!s) then
          fail "src ids not ascending for node %d" v;
        incr covered;
        prev := !s;
        s := t.snext.(!s)
      done;
      if t.stail.(v) <> !prev then fail "src tail mismatch for node %d" v)
    t.shead;
  if !covered <> t.live then fail "src lists cover %d of %d live slots" !covered t.live;
  if Array.length t.scr < t.cap then fail "scratch shorter than capacity";
  (* Order-statistics index: the id table must name exactly the live slots,
     and Fenwick rank-selection must reproduce the global list. *)
  if t.counter > t.idcap then fail "id capacity below counter";
  let live_ids = ref 0 in
  for i = 0 to t.counter - 1 do
    match t.id2slot.(i) with
    | -1 -> ()
    | s ->
        if s < 0 || s >= t.cap || seen.(s) <> `Live then
          fail "id2slot.(%d) = %d is not a live slot" i s;
        if t.ids.(s) <> i then fail "id2slot.(%d) names slot with id %d" i t.ids.(s);
        incr live_ids
  done;
  if !live_ids <> t.live then fail "id table holds %d ids, %d live" !live_ids t.live;
  let k = ref 0 in
  let s = ref t.ghead in
  while !s <> -1 do
    if nth_global t !k <> !s then fail "rank %d selects wrong slot" !k;
    incr k;
    s := t.gnext.(!s)
  done
