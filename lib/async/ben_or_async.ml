type mtype = R | P | D

type msg = { m_type : mtype; m_round : int; m_v : int }

let mk_r ~round ~v = { m_type = R; m_round = round; m_v = v }
let mk_p ~round ~v = { m_type = P; m_round = round; m_v = v }
let mk_d ~v = { m_type = D; m_round = 0; m_v = v }

let unknown = 2 (* the "?" value in P-messages *)

(* Per (round, type) vote book: first message from each sender counts. *)
module Votes = struct
  type t = {
    seen : (int * mtype * int, int) Hashtbl.t;  (* (round, type, src) -> value *)
  }

  let create () = { seen = Hashtbl.create 64 }

  let add t ~round ~mtype ~src ~v =
    if not (Hashtbl.mem t.seen (round, mtype, src)) then
      Hashtbl.add t.seen (round, mtype, src) v

  (* Count of distinct senders for (round, type), excluding the given set,
     plus per-value counts (index 2 = "?"). *)
  let tally t ~round ~mtype ~skip =
    let total = ref 0 in
    let counts = [| 0; 0; 0 |] in
    Hashtbl.iter (* lint: allow D004 -- commutative count, order-insensitive *)
      (fun (r, mt, src) v ->
        if r = round && mt = mtype && not (Hashtbl.mem skip src) then begin
          incr total;
          if v >= 0 && v <= 2 then counts.(v) <- counts.(v) + 1
        end)
      t.seen;
    (!total, counts)
end

type stage = Wait_r | Wait_p

type state = {
  x : int;
  round : int;
  stage : stage;
  votes : Votes.t;
  deciders : (int, int) Hashtbl.t;  (* src -> decided value *)
  output : int option;
  max_round_seen : int;
}

let round_reached st = st.round

let r_tally st ~round =
  let _, counts = Votes.tally st.votes ~round ~mtype:R ~skip:st.deciders in
  (counts.(0), counts.(1))

let waiting_for_p st = st.stage = Wait_p

let classify m =
  match m.m_type with
  | R -> `R (m.m_round, m.m_v)
  | P -> `P (m.m_round, m.m_v)
  | D -> `D m.m_v

(* Effective tally for (round, type): regular votes from non-decided
   senders plus every decided sender voting its decided value. *)
let effective st ~round ~mtype =
  let total, counts = Votes.tally st.votes ~round ~mtype ~skip:st.deciders in
  let t2 = ref total and c2 = Array.copy counts in
  Hashtbl.iter (* lint: allow D004 -- commutative count, order-insensitive *)
    (fun _src v ->
      incr t2;
      if v = 0 || v = 1 then c2.(v) <- c2.(v) + 1)
    st.deciders;
  (!t2, c2)

let best_non_unknown counts =
  if counts.(0) >= counts.(1) then (0, counts.(0)) else (1, counts.(1))

(* Advance the state machine as far as the received votes allow; returns
   the accumulated sends. *)
let rec advance (ctx : Async_engine.ctx) st =
  let n = ctx.n and t = ctx.t in
  (* Decision by D-amplification: t+1 decided senders with one value. *)
  let d_counts = [| 0; 0 |] in
  (* lint: allow D004 -- commutative count, order-insensitive *)
  Hashtbl.iter (fun _ v -> if v = 0 || v = 1 then d_counts.(v) <- d_counts.(v) + 1) st.deciders;
  let d_decide = if d_counts.(0) >= t + 1 then Some 0 else if d_counts.(1) >= t + 1 then Some 1 else None
  in
  match (st.output, d_decide) with
  | Some _, _ -> (st, [])
  | None, Some v ->
      let st = { st with output = Some v; x = v } in
      (st, Async_engine.broadcast ~n (mk_d ~v))
  | None, None -> (
      match st.stage with
      | Wait_r ->
          let total, counts = effective st ~round:st.round ~mtype:R in
          if total >= n - t then begin
            let v, m = best_non_unknown counts in
            let p_val = if 2 * m > n + t then v else unknown in
            let st = { st with stage = Wait_p } in
            let st, more = advance ctx st in
            (st, Async_engine.broadcast ~n (mk_p ~round:st.round ~v:p_val) @ more)
          end
          else (st, [])
      | Wait_p ->
          let total, counts = effective st ~round:st.round ~mtype:P in
          if total >= n - t then begin
            let v, m = best_non_unknown counts in
            (* Ben-Or's decision bar is the R step's: more than (n+t)/2
               P-votes, so every node sees at least t+1 of them among its
               n-t and adopts v. A 2t+1 bar lets one node decide while
               another sees fewer than t+1 and coins. *)
            if 2 * m > n + t then begin
              let st = { st with output = Some v; x = v } in
              (st, Async_engine.broadcast ~n (mk_d ~v))
            end
            else begin
              let x =
                if m >= t + 1 then v
                else if Ba_prng.Rng.bool ctx.rng then 1
                else 0
              in
              let round = st.round + 1 in
              let st =
                { st with x; round; stage = Wait_r;
                  max_round_seen = max st.max_round_seen round }
              in
              let st, more = advance ctx st in
              (st, Async_engine.broadcast ~n (mk_r ~round ~v:x) @ more)
            end
          end
          else (st, []))

let protocol : (state, msg) Async_engine.protocol =
  { Async_engine.name = "ben-or-async";
    init =
      (fun (ctx : Async_engine.ctx) ~input ->
        let st =
          { x = input;
            round = 1;
            stage = Wait_r;
            votes = Votes.create ();
            deciders = Hashtbl.create 8;
            output = None;
            max_round_seen = 1 }
        in
        (st, Async_engine.broadcast ~n:ctx.n (mk_r ~round:1 ~v:input)));
    on_message =
      (fun ctx st ~src msg ->
        (match msg.m_type with
        | D ->
            if (msg.m_v = 0 || msg.m_v = 1) && not (Hashtbl.mem st.deciders src) then
              Hashtbl.add st.deciders src msg.m_v
        | R ->
            if msg.m_round >= 1 && (msg.m_v = 0 || msg.m_v = 1) then
              Votes.add st.votes ~round:msg.m_round ~mtype:R ~src ~v:msg.m_v
        | P ->
            if msg.m_round >= 1 && msg.m_v >= 0 && msg.m_v <= 2 then
              Votes.add st.votes ~round:msg.m_round ~mtype:P ~src ~v:msg.m_v);
        advance ctx st);
    output = (fun st -> st.output);
    msg_bits = (fun m -> 4 + (let rec il a x = if x <= 1 then a else il (a + 1) (x / 2) in
                              il 0 (m.m_round + 2))) }

let make ~n ~t =
  if n <= 5 * t then invalid_arg "Ben_or_async.make: the classic protocol needs n > 5t";
  protocol
