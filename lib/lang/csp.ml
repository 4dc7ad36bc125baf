module Value = Gem_model.Value
module F = Gem_logic.Formula
module Fp = Gem_order.Fingerprint

type comm =
  | Send of { to_ : string; value : Expr.t }
  | Recv of { from_ : string; bind : string }

type guarded = { guard : Expr.t; comm : comm option; body : stmt list }

and stmt =
  | CLocal of string * Expr.t
  | CIfb of Expr.t * stmt list * stmt list
  | CWhile of Expr.t * stmt list
  | CComm of comm
  | CIf of guarded list
  | CDo of guarded list
  | CMark of { klass : string; params : Expr.t list }

type process = {
  proc_name : string;
  locals : (string * Value.t) list;
  code : stmt list;
}

type program = process list

let element_of_process p = p
let main_element = "main"

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

type pstate =
  | Active of stmt list
  (* Parked at a plain communication; the Req event was emitted on arrival
     (the paper's CSP model: a blocked process IS a pending request). *)
  | At_comm of { comm : comm; cont : stmt list; req : int }
  | At_choice of { branches : guarded list; cont : stmt list; loop : bool }
  | Cdone

type proc_rt = { p_def : process; p_locals : Expr.store; p_state : pstate; p_last : int }

type config = { trace : Trace.t; procs : (string * proc_rt) list }

let proc_rt cfg p = List.assoc p cfg.procs

let set_proc cfg name rt =
  { cfg with procs = List.map (fun (n, r) -> if String.equal n name then (n, rt) else (n, r)) cfg.procs }

let chain cfg ~proc ~klass ?(params = []) () =
  let rt = proc_rt cfg proc in
  let h, trace =
    Trace.emit_after cfg.trace ~actor:proc ~after:(Some rt.p_last)
      ~element:(element_of_process proc) ~klass ~params ()
  in
  let cfg = { cfg with trace } in
  (h, set_proc cfg proc { rt with p_last = h })

(* Advance every process through its local (commuting) statements until it
   parks at a communication point, a choice, or termination. Deterministic,
   so it is not a scheduler choice. *)
let rec advance cfg pname stmts =
  let rt = proc_rt cfg pname in
  match stmts with
  | [] -> set_proc cfg pname { rt with p_state = Cdone }
  | CLocal (x, e) :: rest ->
      let v = Expr.eval rt.p_locals e in
      let cfg = set_proc cfg pname { rt with p_locals = Expr.update rt.p_locals x v } in
      advance cfg pname rest
  | CIfb (g, a, b) :: rest ->
      advance cfg pname ((if Expr.eval_bool rt.p_locals g then a else b) @ rest)
  | CWhile (g, body) :: rest ->
      if Expr.eval_bool rt.p_locals g then advance cfg pname (body @ (CWhile (g, body) :: rest))
      else advance cfg pname rest
  | CMark { klass; params } :: rest ->
      let vals = List.mapi (fun i e -> ("p" ^ string_of_int i, Expr.eval rt.p_locals e)) params in
      let _, cfg = chain cfg ~proc:pname ~klass ~params:vals () in
      advance cfg pname rest
  | CComm c :: rest ->
      (* Arrival: emit the request event now. Values are evaluated here;
         the process is blocked until the rendezvous, so nothing can
         change them. *)
      let req, cfg =
        match c with
        | Send { to_; value } ->
            let v = Expr.eval rt.p_locals value in
            chain cfg ~proc:pname ~klass:"ReqOut"
              ~params:[ ("to", Value.Str to_); ("value", v) ] ()
        | Recv { from_; _ } ->
            chain cfg ~proc:pname ~klass:"ReqIn" ~params:[ ("from", Value.Str from_) ] ()
      in
      let rt = proc_rt cfg pname in
      set_proc cfg pname { rt with p_state = At_comm { comm = c; cont = rest; req } }
  | CIf branches :: rest ->
      set_proc cfg pname { rt with p_state = At_choice { branches; cont = rest; loop = false } }
  | CDo branches :: rest ->
      set_proc cfg pname { rt with p_state = At_choice { branches; cont = rest; loop = true } }

let normalize cfg =
  List.fold_left
    (fun cfg (pname, _) ->
      match (proc_rt cfg pname).p_state with
      | Active stmts -> advance cfg pname stmts
      | At_comm _ | At_choice _ | Cdone -> cfg)
    cfg cfg.procs

(* Ready send/receive offers of a parked process, with the continuation to
   run after the communication; [o_req] is the arrival-time request event
   when one was emitted (plain communications only — choice branches emit
   their request at rendezvous, since offering is not committing). *)
type offer = { o_comm : comm; o_next : stmt list; o_req : int option }

let offers cfg pname =
  let rt = proc_rt cfg pname in
  match rt.p_state with
  | At_comm { comm; cont; req } -> [ { o_comm = comm; o_next = cont; o_req = Some req } ]
  | At_choice { branches; cont; loop } ->
      List.filter_map
        (fun b ->
          match b.comm with
          | Some c when Expr.eval_bool rt.p_locals b.guard ->
              let back = if loop then [ CDo branches ] @ cont else cont in
              Some { o_comm = c; o_next = b.body @ back; o_req = None }
          | Some _ | None -> None)
        branches
  | Active _ | Cdone -> []

(* Execute one matched communication. Request events that were not already
   emitted on arrival are emitted now. *)
let communicate cfg ~sender ~value ~s_req ~s_next ~receiver ~bind ~r_req ~r_next =
  let v = Expr.eval (proc_rt cfg sender).p_locals value in
  let reqout, cfg =
    match s_req with
    | Some h -> (h, cfg)
    | None ->
        chain cfg ~proc:sender ~klass:"ReqOut"
          ~params:[ ("to", Value.Str receiver); ("value", v) ]
          ()
  in
  let reqin, cfg =
    match r_req with
    | Some h -> (h, cfg)
    | None ->
        chain cfg ~proc:receiver ~klass:"ReqIn" ~params:[ ("from", Value.Str sender) ] ()
  in
  let endout, cfg = chain cfg ~proc:sender ~klass:"EndOut" ~params:[ ("value", v) ] () in
  let cfg = { cfg with trace = Trace.enable cfg.trace reqin endout } in
  let endin, cfg = chain cfg ~proc:receiver ~klass:"EndIn" ~params:[ ("value", v) ] () in
  let cfg = { cfg with trace = Trace.enable cfg.trace reqout endin } in
  ignore endout;
  ignore endin;
  let srt = proc_rt cfg sender in
  let cfg = set_proc cfg sender { srt with p_state = Active s_next } in
  let rrt = proc_rt cfg receiver in
  let cfg =
    set_proc cfg receiver
      {
        rrt with
        p_locals = Expr.update rrt.p_locals bind v;
        p_state = Active r_next;
      }
  in
  normalize cfg

(* Element footprint of the step from [before] to [after]: elements of
   the emitted events plus the element of every process whose runtime
   changed ([set_proc] keeps unchanged runtimes physically identical).
   Choice guards read only the choosing process's locals, and a partner's
   transition to [Cdone] (the one remote input to distributed
   termination) can enable a termination move but never disable it, so
   disjoint footprints guarantee commutation. *)
let footprint before after =
  List.fold_left2
    (fun acc (n, r) (_, r') -> if r == r' then acc else element_of_process n :: acc)
    (Trace.touched_elements ~before:before.trace after.trace)
    before.procs after.procs

(* The enabled moves, listed without stepping: guard-true boolean
   branches, matched offers and distributed terminations. Guards are
   evaluated here; each thunk takes its step. *)
let steps cfg =
  let procs = List.map fst cfg.procs in
  let ms = ref [] in
  let push label step = ms := (label, step) :: !ms in
  (* Boolean-only choice branches. Labels index the source branch list, so
     they are stable for as long as the process stays parked here. *)
  List.iter
    (fun pname ->
      match (proc_rt cfg pname).p_state with
      | At_choice { branches; cont; loop } ->
          let rt = proc_rt cfg pname in
          List.iteri
            (fun i b ->
              match b.comm with
              | None when Expr.eval_bool rt.p_locals b.guard ->
                  let back = if loop then [ CDo branches ] @ cont else cont in
                  push (pname ^ "#" ^ string_of_int i) (fun () ->
                      normalize
                        (set_proc cfg pname { rt with p_state = Active (b.body @ back) }))
              | None | Some _ -> ())
            branches
      | Active _ | At_comm _ | Cdone -> ())
    procs;
  (* Matched communications, labeled by the pair of offer indices — stable
     while both parties stay parked, since offers only depend on their own
     states. *)
  List.iter
    (fun sender ->
      List.iter
        (fun receiver ->
          if not (String.equal sender receiver) then
            List.iteri
              (fun i so ->
                match so.o_comm with
                | Send { to_; value } when String.equal to_ receiver ->
                    List.iteri
                      (fun j ro ->
                        match ro.o_comm with
                        | Recv { from_; bind } when String.equal from_ sender ->
                            push
                              (Printf.sprintf "%s>%s#%d#%d" sender receiver i j)
                              (fun () ->
                                communicate cfg ~sender ~value ~s_req:so.o_req
                                  ~s_next:so.o_next ~receiver ~bind ~r_req:ro.o_req
                                  ~r_next:ro.o_next)
                        | Recv _ | Send _ -> ())
                      (offers cfg receiver)
                | Send _ | Recv _ -> ())
              (offers cfg sender))
        procs)
    procs;
  (* Distributed termination of repetitions: every I/O partner is done and
     no boolean-only guard holds. *)
  List.iter
    (fun pname ->
      match (proc_rt cfg pname).p_state with
      | At_choice { branches; cont; loop = true } ->
          let rt = proc_rt cfg pname in
          let bool_live =
            List.exists
              (fun b -> b.comm = None && Expr.eval_bool rt.p_locals b.guard)
              branches
          in
          let io_live =
            List.exists
              (fun b ->
                match b.comm with
                | Some (Send { to_ = partner; _ }) | Some (Recv { from_ = partner; _ }) ->
                    Expr.eval_bool rt.p_locals b.guard
                    && (match (proc_rt cfg partner).p_state with
                       | Cdone -> false
                       | Active _ | At_comm _ | At_choice _ -> true)
                | None -> false)
              branches
          in
          if (not bool_live) && not io_live then
            push (pname ^ "!done") (fun () ->
                normalize (set_proc cfg pname { rt with p_state = Active cont }))
      | Active _ | At_comm _ | At_choice _ | Cdone -> ())
    procs;
  List.rev !ms

let terminated cfg =
  List.for_all
    (fun (_, rt) ->
      match rt.p_state with Cdone -> true | Active _ | At_comm _ | At_choice _ -> false)
    cfg.procs

let initial (program : program) =
  let trace = Trace.empty in
  let start, trace = Trace.emit trace ~element:main_element ~klass:"Start" () in
  let trace, procs =
    List.fold_left
      (fun (trace, procs) p ->
        let h, trace =
          Trace.emit_after trace ~actor:p.proc_name ~after:(Some start)
            ~element:(element_of_process p.proc_name) ~klass:"Start" ()
        in
        (trace, (p.proc_name, { p_def = p; p_locals = p.locals; p_state = Active p.code; p_last = h }) :: procs))
      (trace, []) program
  in
  normalize { trace; procs = List.rev procs }

(* ------------------------------------------------------------------ *)
(* Sealing and state keys                                              *)
(* ------------------------------------------------------------------ *)

let all_elements (program : program) =
  main_element :: List.map (fun p -> element_of_process p.proc_name) program

let seal program =
  let extra_elements = all_elements program in
  fun cfg -> Trace.to_computation ~extra_elements cfg.trace

(* Canonical state key for partial-order reduction (see Explore.run).
   Local stores are sorted ([Expr.update] prepends) and marshalling
   disables sharing, so interleavings of commuting moves that converge on
   structurally equal states yield byte-equal keys. *)
let state_key seal cfg =
  let span = Gem_obs.Telemetry.(span_begin Canon_key) in
  let comp = seal cfg in
  let buf = Buffer.create 1024 in
  let id h =
    Explore.add_id buf (Gem_model.Computation.event comp h).Gem_model.Event.id
  in
  Explore.fingerprint_into buf comp;
  List.iter
    (fun (n, rt) ->
      Buffer.add_string buf n;
      id rt.p_last;
      (match rt.p_state with
      | Active stmts ->
          Buffer.add_char buf 'A';
          Buffer.add_string buf (Expr.canon stmts)
      | At_comm { comm; cont; req } ->
          Buffer.add_char buf 'P';
          Buffer.add_string buf (Expr.canon (comm, cont));
          id req
      | At_choice { branches; cont; loop } ->
          Buffer.add_char buf 'C';
          Buffer.add_string buf (Expr.canon (branches, cont, loop))
      | Cdone -> Buffer.add_char buf 'D');
      Buffer.add_string buf (Expr.canon (Expr.sorted_store rt.p_locals)))
    cfg.procs;
  let key = Buffer.contents buf in
  Gem_obs.Telemetry.(span_end Canon_key) span;
  key

(* Incremental fingerprint mirroring [state_key] — see Monitor.fp_key for
   the construction rationale. Local stores are folded commutatively
   (insertion order varies across interleavings; names are unique);
   everything else is order-stable and hashed structurally, with event
   handles replaced by their stable identity fingerprints. *)
let fp_key cfg =
  let span = Gem_obs.Telemetry.(span_begin Canon_key) in
  let idf = Trace.id_fp cfg.trace in
  let acc = ref (Trace.fp cfg.trace) in
  let mix x = acc := Fp.combine !acc x in
  List.iter
    (fun (n, rt) ->
      mix (Fp.of_string n);
      mix (idf rt.p_last);
      (match rt.p_state with
      | Active stmts -> mix (Fp.combine (Fp.of_int 1) (Fp.of_struct stmts))
      | At_comm { comm; cont; req } ->
          mix (Fp.combine (Fp.of_int 2) (Fp.of_struct (comm, cont)));
          mix (idf req)
      | At_choice { branches; cont; loop } ->
          mix (Fp.combine (Fp.of_int 3) (Fp.of_struct (branches, cont, loop)))
      | Cdone -> mix (Fp.of_int 4));
      mix (Expr.store_fp rt.p_locals))
    cfg.procs;
  Gem_obs.Telemetry.(span_end Canon_key) span;
  !acc

(* The element list is built at the first seal: a caller that only keys
   the initial configuration never builds it. *)
let lang program =
  let sealer = lazy (seal program) in
  let seal cfg = Lazy.force sealer cfg in
  {
    Explore.init = initial program;
    steps;
    footprint;
    terminated;
    fp_key;
    exact_key = state_key seal;
    seal;
  }

(* ------------------------------------------------------------------ *)
(* GEM description of CSP                                              *)
(* ------------------------------------------------------------------ *)

let rec marker_decls acc = function
  | [] -> acc
  | CMark { klass; params } :: rest ->
      let decl =
        {
          Gem_spec.Etype.klass;
          schema = List.mapi (fun i _ -> ("p" ^ string_of_int i, Gem_spec.Etype.P_any)) params;
        }
      in
      let acc =
        if List.exists (fun (d : Gem_spec.Etype.event_decl) -> String.equal d.klass klass) acc
        then acc
        else decl :: acc
      in
      marker_decls acc rest
  | CIfb (_, a, b) :: rest -> marker_decls (marker_decls (marker_decls acc a) b) rest
  | CWhile (_, a) :: rest -> marker_decls (marker_decls acc a) rest
  | (CIf gs | CDo gs) :: rest ->
      marker_decls (List.fold_left (fun acc g -> marker_decls acc g.body) acc gs) rest
  | (CLocal _ | CComm _) :: rest -> marker_decls acc rest

let process_etype (p : process) =
  Gem_spec.Etype.make ("CspProcess:" ^ p.proc_name)
    ~events:
      ([
         { Gem_spec.Etype.klass = "Start"; schema = [] };
         {
           klass = "ReqOut";
           schema = [ ("to", Gem_spec.Etype.P_str); ("value", Gem_spec.Etype.P_any) ];
         };
         { klass = "ReqIn"; schema = [ ("from", Gem_spec.Etype.P_str) ] };
         { klass = "EndOut"; schema = [ ("value", Gem_spec.Etype.P_any) ] };
         { klass = "EndIn"; schema = [ ("value", Gem_spec.Etype.P_any) ] };
       ]
       @ List.rev (marker_decls [] p.code))
    ()

let main_etype =
  Gem_spec.Etype.make "Main" ~events:[ { Gem_spec.Etype.klass = "Start"; schema = [] } ] ()

(* [e] is the element-successor of [r]: same element, r before e, nothing
   of that element strictly between. *)
let matched r e =
  let open F in
  elem_lt r e
  &&& neg
        (exists
           [ ("_m", Any) ]
           (same_element "_m" r &&& elem_lt r "_m" &&& elem_lt "_m" e))

let io_simultaneity =
  let open F in
  forall
    [ ("ro", Cls "ReqOut"); ("eo", Cls "EndOut"); ("ri", Cls "ReqIn"); ("ei", Cls "EndIn") ]
    (matched "ro" "eo" &&& matched "ri" "ei" &&& same_element "ro" "eo"
     &&& same_element "ri" "ei"
    ==> (enables "ri" "eo" <=> enables "ro" "ei"))

let io_matching =
  F.conj
    [
      Gem_spec.Abbrev.prerequisite (F.Cls "ReqOut") (F.Cls "EndIn");
      Gem_spec.Abbrev.prerequisite (F.Cls "ReqIn") (F.Cls "EndOut");
    ]

let io_value =
  Gem_spec.Abbrev.message_passing ~send:(F.Cls "ReqOut") ~receive:(F.Cls "EndIn")
    ~send_param:"value" ~receive_param:"value"

let io_addressing =
  let open F in
  conj
    [
      forall
        [ ("ro", Cls "ReqOut"); ("ei", Cls "EndIn") ]
        (enables "ro" "ei"
         ==> sem "addressed-to" [ "ro"; "ei" ]
               (fun comp _hist handles ->
                 match handles with
                 | [ ro; ei ] ->
                     let e_ro = Gem_model.Computation.event comp ro in
                     let e_ei = Gem_model.Computation.event comp ei in
                     Value.equal
                       (Gem_model.Event.param e_ro "to")
                       (Value.Str e_ei.Gem_model.Event.id.element)
                 | _ -> false));
      forall
        [ ("ri", Cls "ReqIn"); ("eo", Cls "EndOut") ]
        (enables "ri" "eo"
         ==> sem "addressed-from" [ "ri"; "eo" ]
               (fun comp _hist handles ->
                 match handles with
                 | [ ri; eo ] ->
                     let e_ri = Gem_model.Computation.event comp ri in
                     let e_eo = Gem_model.Computation.event comp eo in
                     Value.equal
                       (Gem_model.Event.param e_ri "from")
                       (Value.Str e_eo.Gem_model.Event.id.element)
                 | _ -> false));
    ]

let language_spec ?name (program : program) =
  let spec_name = Option.value ~default:"csp-program" name in
  let elements =
    (main_element, main_etype)
    :: List.map (fun p -> (element_of_process p.proc_name, process_etype p)) program
  in
  Gem_spec.Spec.make spec_name ~elements
    ~restrictions:
      [
        ("io-simultaneity", io_simultaneity);
        ("io-matching", io_matching);
        ("io-value", io_value);
        ("io-addressing", io_addressing);
      ]
    ()
