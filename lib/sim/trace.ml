type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type phase =
  | Instant
  | Complete of Time.t

type event = {
  time : Time.t;
  tag : string;
  name : string;
  phase : phase;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

type sink = event -> unit

(* The installed sink is per-OS-domain state (Domain.DLS),
   not globals: testbeds may run concurrently on different domains,
   each under its own recorder, and a shared ref would interleave their
   streams nondeterministically. On the main domain this behaves exactly
   like the old global ref. Freshly spawned domains start with no sink. *)
let sink_key : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_sink s = Domain.DLS.set sink_key s
let enabled () =
  match Domain.DLS.get sink_key with None -> false | Some _ -> true

let dispatch ev =
  match Domain.DLS.get sink_key with None -> () | Some sink -> sink ev

let record ?(pid = 0) ?(tid = 0) ?(args = []) ~time ~tag ~phase name =
  if enabled () then
    dispatch { time; tag; name; phase; pid; tid; args }

let instant ?pid ?tid ?args ~time ~tag name =
  record ?pid ?tid ?args ~time ~tag ~phase:Instant name

let complete ?pid ?tid ?args ~time ~dur ~tag name =
  record ?pid ?tid ?args ~time ~tag ~phase:(Complete dur) name

(* Legacy free-text entry point: the message thunk only runs when a sink
   is installed. *)
let emit ~time ~tag msg =
  if enabled () then
    dispatch { time; tag; name = msg (); phase = Instant; pid = 0; tid = 0; args = [] }

(* ---------- Text sink ---------- *)

let arg_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let formatter_sink ppf ev =
  let phase_suffix =
    match ev.phase with
    | Instant -> ""
    | Complete d -> Printf.sprintf " (%s)" (Time.to_string d)
  in
  let args_suffix =
    match ev.args with
    | [] -> ""
    | args ->
        " "
        ^ String.concat " "
            (List.map (fun (k, v) -> k ^ "=" ^ arg_to_string v) args)
  in
  Format.fprintf ppf "[%a] %s: %s%s%s@." Time.pp ev.time ev.tag ev.name
    phase_suffix args_suffix

(* ---------- Chrome trace_event recorder ---------- *)

module Recorder = struct
  type t = {
    mutable events_rev : event list;
    mutable count : int;
    mutable dropped : int;
    mutable names_rev : (int * string) list; (* pid -> display name *)
  }

  let limit = 2_000_000

  let create () = { events_rev = []; count = 0; dropped = 0; names_rev = [] }

  let sink t ev =
    if t.count < limit then begin
      t.events_rev <- ev :: t.events_rev;
      t.count <- t.count + 1
    end
    else t.dropped <- t.dropped + 1

  let count t = t.count
  let dropped t = t.dropped

  let set_process_name t ~pid name =
    t.names_rev <- (pid, name) :: t.names_rev

  let json_of_arg = function
    | Str s -> Json.String s
    | Int i -> Json.Int i
    | Float f -> Json.Float f
    | Bool b -> Json.Bool b

  (* Timestamps are microseconds in the trace_event format; simulated time
     is integral nanoseconds, so ts is exact with three decimals. *)
  let ts_of time = Json.Float (float_of_int (Time.to_ns time) /. 1e3)

  let json_of_event ev =
    let ph, extra =
      match ev.phase with
      | Instant -> ("i", [ ("s", Json.String "t") ])
      | Complete d ->
          ("X", [ ("dur", Json.Float (float_of_int (Time.to_ns d) /. 1e3)) ])
    in
    let args =
      match ev.args with
      | [] -> []
      | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
    in
    Json.Obj
      ([
         ("name", Json.String ev.name);
         ("cat", Json.String ev.tag);
         ("ph", Json.String ph);
         ("ts", ts_of ev.time);
       ]
      @ extra
      @ [ ("pid", Json.Int ev.pid); ("tid", Json.Int ev.tid) ]
      @ args)

  let metadata_event (pid, name) =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]

  let to_chrome_json t =
    let meta =
      List.sort
        (fun (pa, na) (pb, nb) ->
          match Int.compare pa pb with 0 -> String.compare na nb | c -> c)
        (List.rev t.names_rev)
      |> List.map metadata_event
    in
    let evs = List.rev_map json_of_event t.events_rev in
    Json.Obj
      [
        ("traceEvents", Json.List (meta @ evs));
        ("displayTimeUnit", Json.String "ms");
      ]

  let to_chrome_string t = Json.to_string (to_chrome_json t)
end
