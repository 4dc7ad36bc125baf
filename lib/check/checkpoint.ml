(* Crash-safe periodic snapshots. The format is deliberately dumb:
     "GEMCKPT5" | stamp length (8 bytes, big-endian) | stamp
     | payload length (8 bytes, big-endian) | MD5 of the payload | payload
   where the payload is the marshalled walk state. It is written to
   FILE.tmp and atomically renamed over FILE, so a crash mid-write leaves
   either the previous complete checkpoint or none — never a torn one.
   The stamp is the caller's full run identity (command, workload
   parameters, engine configuration); [read] refuses a stamp mismatch
   because resuming a frontier into a different exploration would
   corrupt the verdict silently. The lengths and the digest are checked
   before anything is unmarshalled, so a truncated or bit-flipped file
   is an [Error], never a crash inside [Marshal]. The magic names the
   payload's layout too: the walk state holds the interpreters'
   configurations and traces, so a change to their records is a new
   magic, and a file in an older one is refused before unmarshalling. *)

module T = Gem_obs.Telemetry

(* Temp-file registry: a FILE.tmp staging file is registered while it
   exists, and one [at_exit] sweep removes whatever is still registered,
   so no exit path (normal, budget stop, signal handler that re-raises,
   injected fault) leaves litter behind. *)
let temp_mutex = Mutex.create ()
let temp_files : (string, unit) Hashtbl.t = Hashtbl.create 8

let () =
  at_exit (fun () ->
      Mutex.protect temp_mutex (fun () ->
          Hashtbl.iter
            (fun f () -> try Sys.remove f with Sys_error _ -> ())
            temp_files;
          Hashtbl.reset temp_files))

let register_temp f =
  Mutex.protect temp_mutex (fun () -> Hashtbl.replace temp_files f ())

let release_temp f =
  Mutex.protect temp_mutex (fun () -> Hashtbl.remove temp_files f)

type ctl = { file : string; every : int }

let ctl ?(every = 50_000) file =
  if every < 1 then invalid_arg "Checkpoint.ctl: every must be positive";
  { file; every }

let file t = t.file
let every t = t.every

let magic = "GEMCKPT5"

(* Formats this build recognizes and refuses: GEMCKPT1 had no lengths or
   digest; GEMCKPT2 payloads predate the element fingerprints kept in
   traces and the key components kept in monitor configurations;
   GEMCKPT3 payloads hold a frontier of pending tasks where the walk now
   keeps a stack of frames; GEMCKPT4 frames carry no key parts, and its
   monitor configurations still carry key components. *)
let old_magics = [ "GEMCKPT1"; "GEMCKPT2"; "GEMCKPT3"; "GEMCKPT4" ]

let write t ~stamp payload =
  let tmp = t.file ^ ".tmp" in
  try
    if Faults.fire Faults.Checkpoint_io then
      raise (Faults.Injected Faults.Checkpoint_io);
    register_temp tmp;
    let body = Marshal.to_string payload [] in
    let len n =
      let b = Bytes.create 8 in
      Bytes.set_int64_be b 0 (Int64.of_int n);
      Bytes.to_string b
    in
    let oc = open_out_bin tmp in
    (try
       List.iter (output_string oc)
         [ magic; len (String.length stamp); stamp; len (String.length body);
           Digest.string body; body ];
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp t.file;
    release_temp tmp;
    T.hit T.Checkpoint_writes;
    Ok ()
  with
  | Faults.Injected _ ->
      Faults.survived ();
      Error "injected checkpoint fault"
  | Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      release_temp tmp;
      Error msg

exception Corrupt of string

let read ~stamp path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let corrupt what = raise (Corrupt (path ^ ": " ^ what)) in
        let remaining () = in_channel_length ic - pos_in ic in
        (* A length field is trusted only if the file still holds that
           many bytes, so a flipped length cannot trigger a huge read. *)
        let field () =
          let n = Int64.to_int (String.get_int64_be (really_input_string ic 8) 0) in
          if n < 0 || n > remaining () then corrupt "truncated or corrupt checkpoint"
          else n
        in
        let m = really_input_string ic (String.length magic) in
        if List.mem m old_magics then
          corrupt
            (Printf.sprintf
               "checkpoint written in the old %s format; rerun to write a new one" m)
        else if m <> magic then corrupt "not a gemcheck checkpoint";
        let written = really_input_string ic (field ()) in
        if written <> stamp then
          Error
            (Printf.sprintf
               "%s: checkpoint stamp mismatch (written for %S, resuming %S) — \
                refusing to resume a different run"
               path written stamp)
        else begin
          let n = field () in
          let digest = really_input_string ic 16 in
          if remaining () <> n then corrupt "truncated or corrupt checkpoint";
          let body = really_input_string ic n in
          if not (Digest.equal (Digest.string body) digest) then
            corrupt "checkpoint payload fails its digest";
          Ok (Marshal.from_string body 0)
        end)
  with
  | Corrupt msg -> Error msg
  | Sys_error msg -> Error msg
  | End_of_file | Failure _ -> Error (path ^ ": truncated or corrupt checkpoint")
