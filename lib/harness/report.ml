type verdict = Pass | Shape_ok | Fail

let verdict_to_string = function Pass -> "pass" | Shape_ok -> "shape_ok" | Fail -> "fail"

let verdict_of_string = function
  | "pass" -> Some Pass
  | "shape_ok" -> Some Shape_ok
  | "fail" -> Some Fail
  | _ -> None

let worst a b =
  match (a, b) with
  | Fail, _ | _, Fail -> Fail
  | Shape_ok, _ | _, Shape_ok -> Shape_ok
  | Pass, Pass -> Pass

type series = { series_name : string; points : (float * float) list }

type crash = { crash_seed : int64; crash_error : string; crash_backtrace : string }

type t = {
  id : string;
  title : string;
  claim : string;
  verdict : verdict;
  summary : string;
  metrics : (string * float) list;
  series : series list;
  trials : int option;
  failures : Supervisor.failure list;
  shard_failures : Campaign.shard_failure list;
  crash : crash option;
  body : string;
}

let make ~id ~title ?(claim = "") ?(metrics = []) ?(series = []) ?trials ?(failures = [])
    ?(shard_failures = []) ?crash ~verdict ~summary ~body () =
  let verdict =
    if failures = [] && shard_failures = [] && crash = None then verdict else Fail
  in
  { id; title; claim; verdict; summary; metrics; series; trials; failures; shard_failures;
    crash; body }

let with_failures r failures =
  match failures with
  | [] -> r
  | _ :: _ -> { r with verdict = Fail; failures = r.failures @ failures }

let with_shard_failures r sfs =
  match sfs with
  | [] -> r
  | _ :: _ -> { r with verdict = Fail; shard_failures = r.shard_failures @ sfs }

let crash_to_json c =
  Json.Obj
    [ ("seed", Json.String (Int64.to_string c.crash_seed));
      ("error", Json.String c.crash_error);
      ("backtrace_digest", Json.String c.crash_backtrace) ]

let crash_of_json j =
  let ( let* ) = Result.bind in
  let str field =
    match Option.bind (Json.member field j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "crash record: missing string field %S" field)
  in
  let* seed = str "seed" in
  let* seed =
    match Int64.of_string_opt seed with
    | Some s -> Ok s
    | None -> Error "crash record: \"seed\" is not a decimal int64"
  in
  let* error = str "error" in
  let* backtrace = str "backtrace_digest" in
  if not (Supervisor.is_digest backtrace) then
    Error "crash record: \"backtrace_digest\" is not 16 lowercase hex chars"
  else Ok { crash_seed = seed; crash_error = error; crash_backtrace = backtrace }

let metric_key s =
  let buf = Buffer.create (String.length s) in
  let last_underscore = ref true in
  String.iter
    (fun c ->
      let c = Char.lowercase_ascii c in
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then begin
        Buffer.add_char buf c;
        last_underscore := false
      end
      else if not !last_underscore then begin
        Buffer.add_char buf '_';
        last_underscore := true
      end)
    s;
  let out = Buffer.contents buf in
  let n = String.length out in
  if n > 0 && out.[n - 1] = '_' then String.sub out 0 (n - 1) else out

let json_of_float f = if Float.is_finite f then Json.Float f else Json.Null

let to_json r =
  Json.Obj
    ([ ("id", Json.String r.id);
      ("claim", Json.String r.claim);
      ("title", Json.String r.title);
      ("verdict", Json.String (verdict_to_string r.verdict));
      ("summary", Json.String r.summary);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, json_of_float v)) r.metrics));
      ("series",
       Json.List
         (List.map
            (fun s ->
              Json.Obj
                [ ("name", Json.String s.series_name);
                  ("points",
                   Json.List
                     (List.map
                        (fun (x, y) -> Json.List [ json_of_float x; json_of_float y ])
                        s.points)) ])
            r.series)) ]
    @
    (* Optional fields are emitted only when present/non-empty: fault-free
       payloads keep the schema-v1 layout byte-for-byte. *)
    (match r.trials with None -> [] | Some n -> [ ("trials", Json.Int n) ])
    @ (match r.failures with
      | [] -> []
      | fs -> [ ("failures", Json.List (List.map Supervisor.failure_to_json fs)) ])
    @ (match r.shard_failures with
      | [] -> []
      | sfs ->
          [ ("shard_failures", Json.List (List.map Campaign.shard_failure_to_json sfs)) ])
    @ match r.crash with None -> [] | Some c -> [ ("crash", crash_to_json c) ])

(* ------------------------------------------------------------------ *)
(* CSV *)

let csv_escape s =
  if String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let csv_float f = if Float.is_finite f then Json.float_repr f else "nan"

let csv_of_reports reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "id,claim,verdict,metric,value\n";
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%s,%s,%s\n" (csv_escape r.id) (csv_escape r.claim)
               (verdict_to_string r.verdict) (csv_escape k) (csv_float v)))
        r.metrics)
    reports;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let pp fmt r =
  Format.fprintf fmt "@[<v>---- %s: %s ----@,%s@,[%s] %s@,@]" r.id r.title r.body
    (verdict_to_string r.verdict) r.summary;
  List.iter (fun f -> Format.fprintf fmt "@[<v>FAILURE %a@,@]" Supervisor.pp_failure f) r.failures;
  List.iter
    (fun (sf : Campaign.shard_failure) ->
      Format.fprintf fmt "@[<v>SHARD FAILURE shard %d (trials [%d, %d), %s after %d attempt%s): %s@,@]"
        sf.sf_shard sf.sf_lo sf.sf_hi
        (Campaign.shard_failure_kind_to_string sf.sf_kind)
        sf.sf_attempts
        (if sf.sf_attempts = 1 then "" else "s")
        sf.sf_error)
    r.shard_failures;
  Option.iter
    (fun c ->
      Format.fprintf fmt "@[<v>CRASH (seed %Ld): %s [bt %s]@,@]" c.crash_seed c.crash_error
        c.crash_backtrace)
    r.crash

let schema_version = 1
