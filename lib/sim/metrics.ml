type t = {
  mutable rounds : int;
  mutable honest_msgs : int;
  mutable byz_msgs : int;
  mutable bits : int;
  mutable words : int;
  mutable max_msg_bits : int;
  mutable congest_violations : int;
  mutable link_drops : int;
  mutable link_duplicates : int;
  mutable link_corruptions : int;
  mutable crash_silences : int;
}

let create () =
  { rounds = 0; honest_msgs = 0; byz_msgs = 0; bits = 0; words = 0; max_msg_bits = 0;
    congest_violations = 0; link_drops = 0; link_duplicates = 0; link_corruptions = 0;
    crash_silences = 0 }

let record_message ?(words = 1) m ~bits ~byzantine =
  if words < 0 then invalid_arg "Metrics.record_message: words < 0";
  if byzantine then m.byz_msgs <- m.byz_msgs + 1 else m.honest_msgs <- m.honest_msgs + 1;
  m.bits <- m.bits + bits;
  m.words <- m.words + words;
  if bits > m.max_msg_bits then m.max_msg_bits <- bits

let record_broadcast ?(words = 1) m ~bits ~copies ~byzantine =
  if copies < 0 then invalid_arg "Metrics.record_broadcast: copies < 0";
  if words < 0 then invalid_arg "Metrics.record_broadcast: words < 0";
  if copies > 0 then begin
    if byzantine then m.byz_msgs <- m.byz_msgs + copies
    else m.honest_msgs <- m.honest_msgs + copies;
    m.bits <- m.bits + (bits * copies);
    m.words <- m.words + (words * copies);
    if bits > m.max_msg_bits then m.max_msg_bits <- bits
  end

let record_round m = m.rounds <- m.rounds + 1

let rounds m = m.rounds
let messages m = m.honest_msgs + m.byz_msgs
let byzantine_messages m = m.byz_msgs
let bits m = m.bits
let words m = m.words
let max_bits_per_message m = m.max_msg_bits
let record_congest_violation m = m.congest_violations <- m.congest_violations + 1

let record_congest_violations m k =
  if k < 0 then invalid_arg "Metrics.record_congest_violations: k < 0";
  m.congest_violations <- m.congest_violations + k
let congest_violations m = m.congest_violations
let record_link_drop m = m.link_drops <- m.link_drops + 1
let record_link_duplicate m = m.link_duplicates <- m.link_duplicates + 1
let record_link_corruption m = m.link_corruptions <- m.link_corruptions + 1
let record_crash_silence m = m.crash_silences <- m.crash_silences + 1
let link_drops m = m.link_drops
let link_duplicates m = m.link_duplicates
let link_corruptions m = m.link_corruptions
let crash_silences m = m.crash_silences

let fault_events m = m.link_drops + m.link_duplicates + m.link_corruptions + m.crash_silences

let pp fmt m =
  Format.fprintf fmt "rounds=%d msgs=%d (honest=%d byz=%d) bits=%d words=%d max_msg_bits=%d%s%s"
    m.rounds (messages m) m.honest_msgs m.byz_msgs m.bits m.words m.max_msg_bits
    (if m.congest_violations > 0 then Printf.sprintf " CONGEST-violations=%d" m.congest_violations
     else "")
    (if fault_events m > 0 then
       Printf.sprintf " faults(drop=%d dup=%d corrupt=%d silence=%d)" m.link_drops
         m.link_duplicates m.link_corruptions m.crash_silences
     else "")
