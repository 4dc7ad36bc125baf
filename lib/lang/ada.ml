module Value = Gem_model.Value
module F = Gem_logic.Formula
module Fp = Gem_order.Fingerprint

type stmt =
  | ALocal of string * Expr.t
  | AIf of Expr.t * stmt list * stmt list
  | AWhile of Expr.t * stmt list
  | AMark of { klass : string; params : Expr.t list }
  | ACall of { task : string; entry : string; args : Expr.t list; bind : string option }
  | AAccept of accept
  | ASelect of branch list

and accept = {
  acc_entry : string;
  acc_formals : string list;
  acc_body : stmt list;
  acc_result : Expr.t option;
}

and branch = { when_ : Expr.t; accept : accept }

type task = {
  task_name : string;
  locals : (string * Value.t) list;
  code : stmt list;
}

type program = task list

let element_of_task t = t
let main_element = "main"

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

(* Control items: source statements plus the internal marker that closes a
   rendezvous on the acceptor's side; it carries what is needed to resume
   the caller, including the caller's parked continuation. *)
type item =
  | S of stmt
  | End_rv of {
      caller : string;
      bind : string option;
      entry : string;
      result : Expr.t option;
      caller_cont : item list;
    }

type pending = {
  q_caller : string;
  q_args : Value.t list;
  q_bind : string option;
  q_cont : item list;  (* caller's continuation *)
  q_call_event : int;
  q_enqueue_event : int;
}

type tstate =
  | Active of item list
  | Blocked_call
  | Blocked_accept of accept * item list
  | Blocked_select of branch list * item list
  | Tdone

type task_rt = { t_def : task; t_locals : Expr.store; t_state : tstate; t_last : int }

type config = {
  trace : Trace.t;
  tasks : (string * task_rt) list;
  queues : ((string * string) * pending list) list;  (* (callee, entry) -> FIFO *)
}

let task_rt cfg t = List.assoc t cfg.tasks

let set_task cfg name rt =
  { cfg with tasks = List.map (fun (n, r) -> if String.equal n name then (n, rt) else (n, r)) cfg.tasks }

let queue cfg callee entry =
  Option.value ~default:[] (List.assoc_opt (callee, entry) cfg.queues)

let set_queue cfg callee entry q =
  { cfg with queues = ((callee, entry), q) :: List.remove_assoc (callee, entry) cfg.queues }

let chain cfg ~task ~klass ?(params = []) () =
  let rt = task_rt cfg task in
  let h, trace =
    Trace.emit_after cfg.trace ~actor:task ~after:(Some rt.t_last)
      ~element:(element_of_task task) ~klass ~params ()
  in
  let cfg = { cfg with trace } in
  (h, set_task cfg task { rt with t_last = h })

let items_of stmts = List.map (fun s -> S s) stmts

(* Begin a rendezvous: acceptor [a] accepts [acc] for queued call [p]. *)
let begin_rendezvous cfg a (acc : accept) (p : pending) rest =
  let ab, cfg =
    chain cfg ~task:a ~klass:"AcceptBegin"
      ~params:
        [
          ("entry", Value.Str acc.acc_entry);
          ("caller", Value.Str p.q_caller);
          ("args", Value.List p.q_args);
        ]
      ()
  in
  let cfg = { cfg with trace = Trace.enable cfg.trace p.q_call_event ab } in
  (* The accept consumes the queue entry: a join of the server's readiness
     and the enqueued call. *)
  let cfg = { cfg with trace = Trace.enable cfg.trace p.q_enqueue_event ab } in
  let rt = task_rt cfg a in
  if List.length acc.acc_formals <> List.length p.q_args then
    raise (Expr.Eval_error ("arity mismatch accepting " ^ acc.acc_entry));
  let locals =
    List.fold_left2
      (fun st f v -> Expr.update st f v)
      rt.t_locals acc.acc_formals p.q_args
  in
  let cont =
    items_of acc.acc_body
    @ (End_rv
         {
           caller = p.q_caller;
           bind = p.q_bind;
           entry = acc.acc_entry;
           result = acc.acc_result;
           caller_cont = p.q_cont;
         }
      :: rest)
  in
  set_task cfg a { rt with t_locals = locals; t_state = Active cont }

(* Run task [tname], whose state is [Active items], until (and including)
   its next global action. *)
let step_task cfg tname items =
  let rec go cfg items =
    let rt = task_rt cfg tname in
    match items with
    | [] -> set_task cfg tname { rt with t_state = Tdone }
    | S (ALocal (x, e)) :: rest ->
        let v = Expr.eval rt.t_locals e in
        let cfg = set_task cfg tname { rt with t_locals = Expr.update rt.t_locals x v } in
        go cfg rest
    | S (AIf (g, a, b)) :: rest ->
        go cfg (items_of (if Expr.eval_bool rt.t_locals g then a else b) @ rest)
    | S (AWhile (g, body)) :: rest ->
        if Expr.eval_bool rt.t_locals g then go cfg (items_of body @ (S (AWhile (g, body)) :: rest))
        else go cfg rest
    | S (AMark { klass; params }) :: rest ->
        let vals = List.mapi (fun i e -> ("p" ^ string_of_int i, Expr.eval rt.t_locals e)) params in
        let _, cfg = chain cfg ~task:tname ~klass ~params:vals () in
        go cfg rest
    | S (ACall { task; entry; args; bind }) :: rest ->
        let argvals = List.map (Expr.eval rt.t_locals) args in
        let call, cfg =
          chain cfg ~task:tname ~klass:"Call"
            ~params:
              [
                ("task", Value.Str task);
                ("entry", Value.Str entry);
                ("args", Value.List argvals);
              ]
            ()
        in
        (* Queue insertion is a callee-side state change (the basis of
           ADA's 'Count): an Enqueue event at the callee's element, enabled
           by the Call, serialized with the callee's own events. *)
        let enq, trace =
          Trace.emit_after cfg.trace ~actor:tname ~after:(Some call)
            ~element:(element_of_task task) ~klass:"Enqueue"
            ~params:[ ("entry", Value.Str entry); ("caller", Value.Str tname) ]
            ()
        in
        let cfg = { cfg with trace } in
        let cfg = set_task cfg tname { (task_rt cfg tname) with t_state = Blocked_call } in
        set_queue cfg task entry
          (queue cfg task entry
           @ [
               {
                 q_caller = tname;
                 q_args = argvals;
                 q_bind = bind;
                 q_cont = rest;
                 q_call_event = call;
                 q_enqueue_event = enq;
               };
             ])
    | S (AAccept acc) :: rest -> (
        match queue cfg tname acc.acc_entry with
        | p :: q ->
            let cfg = set_queue cfg tname acc.acc_entry q in
            begin_rendezvous cfg tname acc p rest
        | [] -> set_task cfg tname { rt with t_state = Blocked_accept (acc, rest) })
    | S (ASelect branches) :: rest ->
        set_task cfg tname { rt with t_state = Blocked_select (branches, rest) }
    | End_rv { caller; bind; entry; result; caller_cont } :: rest ->
        let v =
          match result with Some e -> Expr.eval rt.t_locals e | None -> Value.Unit
        in
        let ae, cfg =
          chain cfg ~task:tname ~klass:"AcceptEnd"
            ~params:[ ("entry", Value.Str entry); ("value", v) ]
            ()
        in
        (* Resume the caller: its Return is enabled by the AcceptEnd. *)
        let crt = task_rt cfg caller in
        let ret, trace =
          Trace.emit_after cfg.trace ~actor:caller ~after:(Some ae)
            ~element:(element_of_task caller) ~klass:"Return" ~params:[ ("value", v) ] ()
        in
        let cfg = { cfg with trace } in
        let locals =
          match bind with Some x -> Expr.update crt.t_locals x v | None -> crt.t_locals
        in
        let cfg =
          set_task cfg caller
            { crt with t_locals = locals; t_last = ret; t_state = Active caller_cont }
        in
        set_task cfg tname { (task_rt cfg tname) with t_state = Active rest }
  in
  go cfg items

(* ------------------------------------------------------------------ *)
(* Moves and exploration                                               *)
(* ------------------------------------------------------------------ *)

(* Element footprint of the step from [before] to [after]: elements of
   the emitted events, the element of every task whose runtime changed
   ([set_task] keeps unchanged runtimes physically identical), and the
   callee's element for every entry queue that changed — queues are
   callee-side state (select guards read only the selecting task's own
   queues via ['Count]), so the callee element is their representative. *)
let footprint before after =
  let touches = Trace.touched_elements ~before:before.trace after.trace in
  let touches =
    List.fold_left2
      (fun acc (n, r) (_, r') -> if r == r' then acc else element_of_task n :: acc)
      touches before.tasks after.tasks
  in
  if before.queues == after.queues then touches
  else
    List.fold_left
      (fun acc ((callee, entry), q) ->
        if queue before callee entry = q then acc
        else element_of_task callee :: acc)
      (List.fold_left
         (fun acc ((callee, entry), q) ->
           if queue after callee entry = q then acc
           else element_of_task callee :: acc)
         touches before.queues)
      after.queues

(* The enabled moves, listed without stepping: Active tasks, accepts with
   a queued caller, and open select branches with one (guards are
   evaluated here). Each thunk takes its step. *)
let steps cfg =
  let ms = ref [] in
  let push label step = ms := (label, step) :: !ms in
  List.iter
    (fun (tname, rt) ->
      match rt.t_state with
      | Active items -> push tname (fun () -> step_task cfg tname items)
      | Blocked_accept (acc, rest) -> (
          match queue cfg tname acc.acc_entry with
          | p :: q ->
              push (tname ^ "?" ^ acc.acc_entry) (fun () ->
                  begin_rendezvous (set_queue cfg tname acc.acc_entry q) tname acc p rest)
          | [] -> ())
      | Blocked_select (branches, rest) ->
          let queue_len entry = List.length (queue cfg tname entry) in
          let queue_test entry = queue cfg tname entry <> [] in
          List.iteri
            (fun i b ->
              if Expr.eval_bool ~queue_test ~queue_len rt.t_locals b.when_ then
                match queue cfg tname b.accept.acc_entry with
                | p :: q ->
                    push
                      (Printf.sprintf "%s?%s#%d" tname b.accept.acc_entry i)
                      (fun () ->
                        begin_rendezvous
                          (set_queue cfg tname b.accept.acc_entry q)
                          tname b.accept p rest)
                | [] -> ())
            branches
      | Blocked_call | Tdone -> ())
    cfg.tasks;
  List.rev !ms

let terminated cfg =
  List.for_all
    (fun (_, rt) ->
      match rt.t_state with
      | Tdone -> true
      | Active _ | Blocked_call | Blocked_accept _ | Blocked_select _ -> false)
    cfg.tasks

let initial (program : program) =
  let trace = Trace.empty in
  let start, trace = Trace.emit trace ~element:main_element ~klass:"Start" () in
  let trace, tasks =
    List.fold_left
      (fun (trace, tasks) t ->
        let h, trace =
          Trace.emit_after trace ~actor:t.task_name ~after:(Some start)
            ~element:(element_of_task t.task_name) ~klass:"Start" ()
        in
        ( trace,
          (t.task_name,
           { t_def = t; t_locals = t.locals; t_state = Active (items_of t.code); t_last = h })
          :: tasks ))
      (trace, []) program
  in
  { trace; tasks = List.rev tasks; queues = [] }

let all_elements (program : program) =
  main_element :: List.map (fun t -> element_of_task t.task_name) program

let seal program =
  let extra_elements = all_elements program in
  fun cfg -> Trace.to_computation ~extra_elements cfg.trace

(* Canonical state key for partial-order reduction (see Explore.run).
   Local stores are sorted ([Expr.update] prepends), queues are listed in
   key order with empty queues elided, and marshalling disables sharing —
   so interleavings of commuting moves that converge on structurally
   equal states yield byte-equal keys. *)
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
      id rt.t_last;
      (match rt.t_state with
      | Active items ->
          Buffer.add_char buf 'A';
          Buffer.add_string buf (Expr.canon items)
      | Blocked_call -> Buffer.add_char buf 'B'
      | Blocked_accept (acc, rest) ->
          Buffer.add_char buf 'W';
          Buffer.add_string buf (Expr.canon (acc, rest))
      | Blocked_select (branches, rest) ->
          Buffer.add_char buf 'S';
          Buffer.add_string buf (Expr.canon (branches, rest))
      | Tdone -> Buffer.add_char buf 'D');
      Buffer.add_string buf (Expr.canon (Expr.sorted_store rt.t_locals)))
    cfg.tasks;
  List.iter
    (fun (qkey, pendings) ->
      if pendings <> [] then begin
        Buffer.add_string buf (Expr.canon qkey);
        List.iter
          (fun p ->
            Buffer.add_string buf
              (Expr.canon (p.q_caller, p.q_args, p.q_bind, p.q_cont));
            id p.q_call_event;
            id p.q_enqueue_event)
          pendings
      end)
    (List.sort (fun (a, _) (b, _) -> compare a b) cfg.queues);
  let key = Buffer.contents buf in
  Gem_obs.Telemetry.(span_end Canon_key) span;
  key

(* Incremental fingerprint mirroring [state_key] — see Monitor.fp_key for
   the construction rationale. Local stores and the queue association
   list are folded commutatively (their insertion orders vary across
   interleavings; variable names and (callee, entry) keys are unique, and
   empty queues contribute nothing — matching the exact key's sorted
   rendering with empty queues elided); each queue's pendings are FIFO
   and hashed in order. Event handles are replaced by their stable
   identity fingerprints. *)
let fp_key cfg =
  let span = Gem_obs.Telemetry.(span_begin Canon_key) in
  let idf = Trace.id_fp cfg.trace in
  let acc = ref (Trace.fp cfg.trace) in
  let mix x = acc := Fp.combine !acc x in
  List.iter
    (fun (n, rt) ->
      mix (Fp.of_string n);
      mix (idf rt.t_last);
      (match rt.t_state with
      | Active items -> mix (Fp.combine (Fp.of_int 1) (Fp.of_struct items))
      | Blocked_call -> mix (Fp.of_int 2)
      | Blocked_accept (a, rest) ->
          mix (Fp.combine (Fp.of_int 3) (Fp.of_struct (a, rest)))
      | Blocked_select (branches, rest) ->
          mix (Fp.combine (Fp.of_int 4) (Fp.of_struct (branches, rest)))
      | Tdone -> mix (Fp.of_int 5));
      mix (Expr.store_fp rt.t_locals))
    cfg.tasks;
  mix
    (List.fold_left
       (fun a (qkey, pendings) ->
         if pendings = [] then a
         else
           Fp.cadd a
             (List.fold_left
                (fun q p ->
                  Fp.combine q
                    (Fp.combine
                       (Fp.of_struct (p.q_caller, p.q_args, p.q_bind, p.q_cont))
                       (Fp.combine (idf p.q_call_event) (idf p.q_enqueue_event))))
                (Fp.of_struct qkey) pendings))
       (Fp.of_int 0x9e) cfg.queues);
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
(* GEM description of ADA tasking                                      *)
(* ------------------------------------------------------------------ *)

let rec marker_decls acc = function
  | [] -> acc
  | AMark { klass; params } :: rest ->
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
  | AIf (_, a, b) :: rest -> marker_decls (marker_decls (marker_decls acc a) b) rest
  | AWhile (_, a) :: rest -> marker_decls (marker_decls acc a) rest
  | AAccept a :: rest -> marker_decls (marker_decls acc a.acc_body) rest
  | ASelect bs :: rest ->
      marker_decls (List.fold_left (fun acc b -> marker_decls acc b.accept.acc_body) acc bs) rest
  | (ALocal _ | ACall _) :: rest -> marker_decls acc rest

let task_etype (t : task) =
  Gem_spec.Etype.make ("AdaTask:" ^ t.task_name)
    ~events:
      ([
         { Gem_spec.Etype.klass = "Start"; schema = [] };
         {
           klass = "Call";
           schema =
             [
               ("task", Gem_spec.Etype.P_str);
               ("entry", Gem_spec.Etype.P_str);
               ("args", Gem_spec.Etype.P_any);
             ];
         };
         { klass = "Return"; schema = [ ("value", Gem_spec.Etype.P_any) ] };
         {
           klass = "AcceptBegin";
           schema =
             [
               ("entry", Gem_spec.Etype.P_str);
               ("caller", Gem_spec.Etype.P_str);
               ("args", Gem_spec.Etype.P_any);
             ];
         };
         {
           klass = "Enqueue";
           schema = [ ("entry", Gem_spec.Etype.P_str); ("caller", Gem_spec.Etype.P_str) ];
         };
         {
           klass = "AcceptEnd";
           schema = [ ("entry", Gem_spec.Etype.P_str); ("value", Gem_spec.Etype.P_any) ];
         };
       ]
       @ List.rev (marker_decls [] t.code))
    ()

let main_etype =
  Gem_spec.Etype.make "Main" ~events:[ { Gem_spec.Etype.klass = "Start"; schema = [] } ] ()

let rendezvous_matching =
  F.conj
    [
      Gem_spec.Abbrev.prerequisite (F.Cls "Call") (F.Cls "AcceptBegin");
      Gem_spec.Abbrev.prerequisite (F.Cls "AcceptEnd") (F.Cls "Return");
    ]

let rendezvous_entry =
  let open F in
  forall
    [ ("c", Cls "Call"); ("ab", Cls "AcceptBegin") ]
    (enables "c" "ab"
     ==> ((param "c" "entry" =. param "ab" "entry")
          &&& sem "addressed-task" [ "c"; "ab" ]
                (fun comp _hist handles ->
                  match handles with
                  | [ c; ab ] ->
                      let e_c = Gem_model.Computation.event comp c in
                      let e_ab = Gem_model.Computation.event comp ab in
                      Value.equal
                        (Gem_model.Event.param e_c "task")
                        (Value.Str e_ab.Gem_model.Event.id.element)
                  | _ -> false)))

(* While a task is engaged in a rendezvous it is suspended: nothing happens
   at the caller's element between a Call and the Return that answers it.
   The Return answering a Call is the first Return element-after it. *)
let caller_suspended =
  let open F in
  forall
    [ ("c", Cls "Call"); ("r", Cls "Return"); ("x", Any) ]
    (same_element "c" "r" &&& same_element "c" "x" &&& elem_lt "c" "x" &&& elem_lt "x" "r"
     ==> exists
           [ ("r'", Cls "Return") ]
           (same_element "c" "r'" &&& elem_lt "c" "r'" &&& elem_lt "r'" "r"))

let language_spec ?name (program : program) =
  let spec_name = Option.value ~default:"ada-program" name in
  let elements =
    (main_element, main_etype)
    :: List.map (fun t -> (element_of_task t.task_name, task_etype t)) program
  in
  Gem_spec.Spec.make spec_name ~elements
    ~restrictions:
      [
        ("rendezvous-matching", rendezvous_matching);
        ("rendezvous-entry", rendezvous_entry);
        ("caller-suspended", caller_suspended);
      ]
    ()
