module Value = Gem_model.Value
module F = Gem_logic.Formula

type mstmt =
  | MAssign of { var : string; value : Expr.t; site : string option }
  | MIf of Expr.t * mstmt list * mstmt list
  | MWhile of Expr.t * mstmt list
  | MWait of string
  | MSignal of string
  | MReturn of Expr.t
  | MSkip

type pstmt =
  | PLocal of string * Expr.t
  | PIf of Expr.t * pstmt list * pstmt list
  | PWhile of Expr.t * pstmt list
  | PCall of { monitor : string; entry : string; args : Expr.t list; bind : string option }
  | PRead of { var : string; bind : string }
  | PWrite of { var : string; value : Expr.t }
  | PMark of { klass : string; params : Expr.t list }

type entry = { entry_name : string; formals : string list; body : mstmt list }

type monitor = {
  mon_name : string;
  vars : (string * Value.t) list;
  conditions : string list;
  entries : entry list;
}

type process = {
  proc_name : string;
  locals : (string * Value.t) list;
  code : pstmt list;
}

type program = {
  monitors : monitor list;
  shared : (string * Value.t) list;
  processes : process list;
}

(* Element naming scheme. *)
let element_of_process p = p
let element_of_lock m = m ^ ".lock"
let element_of_entry m e = m ^ "." ^ e
let element_of_var m v = m ^ "." ^ v
let element_of_cond m c = m ^ "." ^ c
let element_of_init m = m ^ ".init"
let main_element = "main"

(* ------------------------------------------------------------------ *)
(* Runtime configurations                                              *)
(* ------------------------------------------------------------------ *)

type tenure = {
  t_mon : string;
  t_entry : string;
  t_proc : string;
  t_env : Expr.store;  (* formal parameters *)
  t_cont : mstmt list;
  t_bind : string option;
  t_pcont : pstmt list;
}

type mon_rt = {
  m_def : monitor;
  m_store : Expr.store;
  m_conds : (string * tenure list) list;  (* FIFO queues *)
  m_urgent : tenure list;  (* LIFO stack *)
  m_entryq : tenure list;  (* FIFO *)
  m_busy : bool;
  m_last_rel : int option;
}

type pstate = Active of pstmt list | In_monitor | Proc_done

type proc_rt = { p_def : process; p_locals : Expr.store; p_state : pstate; p_last : int }

type config = {
  trace : Trace.t;
  procs : (string * proc_rt) list;
  mons : (string * mon_rt) list;
  shared_store : Expr.store;
}

type ctx = { program : program; emit_getvals : bool }

let proc_rt cfg p = List.assoc p cfg.procs
let mon_rt cfg m = List.assoc m cfg.mons

let set_proc cfg name rt =
  { cfg with procs = List.map (fun (n, r) -> if String.equal n name then (n, rt) else (n, r)) cfg.procs }

let set_mon cfg name rt =
  { cfg with mons = List.map (fun (n, r) -> if String.equal n name then (n, rt) else (n, r)) cfg.mons }

(* Emit an event on behalf of process [proc], enabled by its previous
   event; updates the process's control-chain tip. *)
let chain cfg ~proc ~element ~klass ?(params = []) () =
  let rt = proc_rt cfg proc in
  let h, trace =
    Trace.emit_after cfg.trace ~actor:proc ~after:(Some rt.p_last) ~element ~klass ~params ()
  in
  let cfg = { cfg with trace } in
  (h, set_proc cfg proc { rt with p_last = h })

let entry_def (m : monitor) name =
  match List.find_opt (fun e -> String.equal e.entry_name name) m.entries with
  | Some e -> e
  | None -> raise (Expr.Eval_error ("monitor " ^ m.mon_name ^ " has no entry " ^ name))

(* Evaluation inside a monitor body: formals shadow monitor variables.
   Emits Getval events for monitor-variable reads when requested. *)
let eval_in_monitor ctx cfg (t : tenure) e =
  let mon = mon_rt cfg t.t_mon in
  let store = t.t_env @ mon.m_store in
  let queue_test c =
    match List.assoc_opt c mon.m_conds with
    | Some q -> q <> []
    | None -> raise (Expr.Eval_error ("unknown condition " ^ c))
  in
  let queue_len c =
    match List.assoc_opt c mon.m_conds with
    | Some q -> List.length q
    | None -> raise (Expr.Eval_error ("unknown condition " ^ c))
  in
  let v = Expr.eval ~queue_test ~queue_len store e in
  let cfg =
    if not ctx.emit_getvals then cfg
    else
      List.fold_left
        (fun cfg x ->
          if List.mem_assoc x t.t_env then cfg
          else
            match List.assoc_opt x mon.m_store with
            | None -> cfg
            | Some oldval ->
                let _, cfg =
                  chain cfg ~proc:t.t_proc
                    ~element:(element_of_var t.t_mon x)
                    ~klass:"Getval"
                    ~params:[ ("oldval", oldval) ]
                    ()
                in
                cfg)
        cfg (Expr.reads e)
  in
  (v, cfg)

let cond_queue mon c = Option.value ~default:[] (List.assoc_opt c mon.m_conds)

let set_cond_queue mon c q =
  { mon with m_conds = (c, q) :: List.remove_assoc c mon.m_conds }

(* ------------------------------------------------------------------ *)
(* Monitor engine: executes under the lock until it quiesces.          *)
(* ------------------------------------------------------------------ *)

let rec exec_body ctx cfg (t : tenure) =
  match t.t_cont with
  | [] -> finish_entry ctx cfg t Value.Unit
  | MSkip :: rest -> exec_body ctx cfg { t with t_cont = rest }
  | MAssign { var; value; site } :: rest ->
      let v, cfg = eval_in_monitor ctx cfg t value in
      let mon = mon_rt cfg t.t_mon in
      if not (List.mem_assoc var mon.m_store) then
        raise (Expr.Eval_error ("assignment to non-monitor variable " ^ var));
      (* Monitor-variable Assigns uniformly carry a site tag (possibly "")
         so the element's event schema is a single shape. *)
      let params = [ ("newval", v); ("site", Value.Str (Option.value ~default:"" site)) ] in
      let _, cfg =
        chain cfg ~proc:t.t_proc ~element:(element_of_var t.t_mon var) ~klass:"Assign"
          ~params ()
      in
      let cfg =
        set_mon cfg t.t_mon
          { (mon_rt cfg t.t_mon) with m_store = Expr.update mon.m_store var v }
      in
      exec_body ctx cfg { t with t_cont = rest }
  | MIf (g, thens, elses) :: rest ->
      let v, cfg = eval_in_monitor ctx cfg t g in
      let branch = if Value.as_bool v then thens else elses in
      exec_body ctx cfg { t with t_cont = branch @ rest }
  | MWhile (g, body) :: rest ->
      let v, cfg = eval_in_monitor ctx cfg t g in
      if Value.as_bool v then
        exec_body ctx cfg { t with t_cont = body @ (MWhile (g, body) :: rest) }
      else exec_body ctx cfg { t with t_cont = rest }
  | MReturn e :: _ ->
      let v, cfg = eval_in_monitor ctx cfg t e in
      finish_entry ctx cfg t v
  | MWait c :: rest ->
      let _, cfg =
        chain cfg ~proc:t.t_proc ~element:(element_of_cond t.t_mon c) ~klass:"Wait" ()
      in
      let rel, cfg =
        chain cfg ~proc:t.t_proc ~element:(element_of_lock t.t_mon) ~klass:"Rel"
          ~params:[ ("holder", Value.Str t.t_proc) ]
          ()
      in
      let mon = mon_rt cfg t.t_mon in
      let waiter = { t with t_cont = rest } in
      let mon = set_cond_queue mon c (cond_queue mon c @ [ waiter ]) in
      let cfg = set_mon cfg t.t_mon { mon with m_last_rel = Some rel } in
      handover ctx cfg t.t_mon
  | MSignal c :: rest -> (
      let sig_h, cfg =
        chain cfg ~proc:t.t_proc ~element:(element_of_cond t.t_mon c) ~klass:"Signal" ()
      in
      let mon = mon_rt cfg t.t_mon in
      match cond_queue mon c with
      | [] -> exec_body ctx cfg { t with t_cont = rest }
      | waiter :: others ->
          (* Signal-and-urgent-wait: the signaller releases and parks on the
             urgent stack; the first waiter resumes immediately. *)
          let rel, cfg =
            chain cfg ~proc:t.t_proc ~element:(element_of_lock t.t_mon) ~klass:"Rel"
              ~params:[ ("holder", Value.Str t.t_proc) ]
              ()
          in
          let mon = mon_rt cfg t.t_mon in
          let mon = set_cond_queue mon c others in
          let mon =
            { mon with m_urgent = { t with t_cont = rest } :: mon.m_urgent; m_last_rel = Some rel }
          in
          let cfg = set_mon cfg t.t_mon mon in
          (* The waiter's Release is a join: enabled by the Signal (paper
             §8.2: by exactly one Signal — the uniqueness quantifies over
             Signals only) and by the waiter's own chain, preserving the
             waiting transaction's control continuity. *)
          let release, trace =
            Trace.emit_after cfg.trace ~actor:waiter.t_proc ~after:(Some sig_h)
              ~element:(element_of_cond t.t_mon c) ~klass:"Release" ()
          in
          let cfg = { cfg with trace } in
          let wrt = proc_rt cfg waiter.t_proc in
          let cfg = { cfg with trace = Trace.enable cfg.trace wrt.p_last release } in
          let cfg = set_proc cfg waiter.t_proc { wrt with p_last = release } in
          let acq, cfg =
            chain cfg ~proc:waiter.t_proc ~element:(element_of_lock t.t_mon)
              ~klass:"Acq"
              ~params:[ ("holder", Value.Str waiter.t_proc) ]
              ()
          in
          let cfg = { cfg with trace = Trace.enable cfg.trace rel acq } in
          exec_body ctx cfg waiter)

and finish_entry ctx cfg (t : tenure) retv =
  let end_h, cfg =
    chain cfg ~proc:t.t_proc ~element:(element_of_entry t.t_mon t.t_entry) ~klass:"End"
      ~params:[ ("value", retv) ]
      ()
  in
  let rel, cfg =
    chain cfg ~proc:t.t_proc ~element:(element_of_lock t.t_mon) ~klass:"Rel"
      ~params:[ ("holder", Value.Str t.t_proc) ]
      ()
  in
  (* The caller resumes: its Return is enabled by the entry's End. *)
  let ret, trace =
    Trace.emit_after cfg.trace ~actor:t.t_proc ~after:(Some end_h)
      ~element:(element_of_process t.t_proc) ~klass:"Return"
      ~params:[ ("value", retv) ]
      ()
  in
  let cfg = { cfg with trace } in
  let prt = proc_rt cfg t.t_proc in
  let locals =
    match t.t_bind with
    | Some x -> Expr.update prt.p_locals x retv
    | None -> prt.p_locals
  in
  let cfg =
    set_proc cfg t.t_proc
      { prt with p_locals = locals; p_state = Active t.t_pcont; p_last = ret }
  in
  let mon = mon_rt cfg t.t_mon in
  let cfg = set_mon cfg t.t_mon { mon with m_last_rel = Some rel } in
  handover ctx cfg t.t_mon

(* The lock has just been released; pick the next holder: urgent stack
   first (LIFO), then the entry queue (FIFO), else the lock goes free. *)
and handover ctx cfg mname =
  let mon = mon_rt cfg mname in
  match mon.m_urgent with
  | u :: rest ->
      let cfg = set_mon cfg mname { mon with m_urgent = rest } in
      let acq, cfg =
        chain cfg ~proc:u.t_proc ~element:(element_of_lock mname) ~klass:"Acq"
          ~params:[ ("holder", Value.Str u.t_proc) ]
          ()
      in
      let cfg =
        match (mon_rt cfg mname).m_last_rel with
        | Some rel when rel <> acq -> { cfg with trace = Trace.enable cfg.trace rel acq }
        | _ -> cfg
      in
      exec_body ctx cfg u
  | [] -> (
      match mon.m_entryq with
      | t :: rest ->
          let cfg = set_mon cfg mname { mon with m_entryq = rest } in
          let cfg = begin_tenure ctx cfg t in
          cfg
      | [] -> set_mon cfg mname { mon with m_busy = false })

(* Acquire the lock and start executing an entry body. The Acq is enabled
   by whatever last surrendered the monitor (the previous Rel, or the tail
   of initialization) — the lock token's causal chain keeps every monitor
   event temporally ordered. *)
and begin_tenure ctx cfg (t : tenure) =
  let acq, cfg =
    chain cfg ~proc:t.t_proc ~element:(element_of_lock t.t_mon) ~klass:"Acq"
      ~params:[ ("holder", Value.Str t.t_proc) ]
      ()
  in
  let cfg =
    match (mon_rt cfg t.t_mon).m_last_rel with
    | Some rel -> { cfg with trace = Trace.enable cfg.trace rel acq }
    | None -> cfg
  in
  let cfg = set_mon cfg t.t_mon { (mon_rt cfg t.t_mon) with m_busy = true } in
  let _, cfg =
    chain cfg ~proc:t.t_proc ~element:(element_of_entry t.t_mon t.t_entry) ~klass:"Begin"
      ~params:(List.map (fun (x, v) -> ("arg_" ^ x, v)) t.t_env)
      ()
  in
  exec_body ctx cfg t

(* ------------------------------------------------------------------ *)
(* Process macro-steps                                                 *)
(* ------------------------------------------------------------------ *)

(* Run one process until (and including) its next global action. Local
   statements commute with every other process and are bundled in. *)
let step_proc ctx cfg pname stmts =
  let rec go cfg stmts =
    let rt = proc_rt cfg pname in
    match stmts with
    | [] -> set_proc cfg pname { rt with p_state = Proc_done }
    | PLocal (x, e) :: rest ->
        let v = Expr.eval rt.p_locals e in
        let cfg = set_proc cfg pname { rt with p_locals = Expr.update rt.p_locals x v } in
        go cfg rest
    | PIf (g, thens, elses) :: rest ->
        let branch = if Expr.eval_bool rt.p_locals g then thens else elses in
        go cfg (branch @ rest)
    | PWhile (g, body) :: rest ->
        if Expr.eval_bool rt.p_locals g then go cfg (body @ (PWhile (g, body) :: rest))
        else go cfg rest
    | PMark { klass; params } :: rest ->
        let vals = List.mapi (fun i e -> ("p" ^ string_of_int i, Expr.eval rt.p_locals e)) params in
        let _, cfg =
          chain cfg ~proc:pname ~element:(element_of_process pname) ~klass ~params:vals ()
        in
        go cfg rest
    | PRead { var; bind } :: rest ->
        let v =
          match List.assoc_opt var cfg.shared_store with
          | Some v -> v
          | None -> raise (Expr.Eval_error ("unknown shared variable " ^ var))
        in
        let _, cfg =
          chain cfg ~proc:pname ~element:var ~klass:"Getval" ~params:[ ("oldval", v) ] ()
        in
        let rt = proc_rt cfg pname in
        let cfg =
          set_proc cfg pname
            { rt with p_locals = Expr.update rt.p_locals bind v; p_state = Active rest }
        in
        cfg
    | PWrite { var; value } :: rest ->
        if not (List.mem_assoc var cfg.shared_store) then
          raise (Expr.Eval_error ("unknown shared variable " ^ var));
        let v = Expr.eval rt.p_locals value in
        let _, cfg =
          chain cfg ~proc:pname ~element:var ~klass:"Assign" ~params:[ ("newval", v) ] ()
        in
        let cfg = { cfg with shared_store = Expr.update cfg.shared_store var v } in
        let rt = proc_rt cfg pname in
        let cfg = set_proc cfg pname { rt with p_state = Active rest } in
        cfg
    | PCall { monitor; entry; args; bind } :: rest ->
        let mdef =
          match List.find_opt (fun m -> String.equal m.mon_name monitor) ctx.program.monitors with
          | Some m -> m
          | None -> raise (Expr.Eval_error ("unknown monitor " ^ monitor))
        in
        let edef = entry_def mdef entry in
        let argvals = List.map (Expr.eval rt.p_locals) args in
        if List.length argvals <> List.length edef.formals then
          raise (Expr.Eval_error ("arity mismatch calling " ^ monitor ^ "." ^ entry));
        let _, cfg =
          chain cfg ~proc:pname ~element:(element_of_process pname) ~klass:"Call"
            ~params:
              [ ("entry", Value.Str (monitor ^ "." ^ entry)); ("args", Value.List argvals) ]
            ()
        in
        let t =
          {
            t_mon = monitor;
            t_entry = entry;
            t_proc = pname;
            t_env = List.combine edef.formals argvals;
            t_cont = edef.body;
            t_bind = bind;
            t_pcont = rest;
          }
        in
        let cfg = set_proc cfg pname { (proc_rt cfg pname) with p_state = In_monitor } in
        let mon = mon_rt cfg monitor in
        if mon.m_busy then
          set_mon cfg monitor { mon with m_entryq = mon.m_entryq @ [ t ] }
        else begin_tenure ctx cfg t
  in
  go cfg stmts

(* Element footprint of the step that took [before] to [after]: elements
   of the events emitted, plus a representative element for every runtime
   component that changed — the process element for a process runtime, the
   monitor's lock element for a monitor runtime (queue membership, busy
   flag and store all live under the lock), and the variable's own element
   for the shared store. [set_proc]/[set_mon] keep unchanged runtimes
   physically identical, so a pointer comparison detects the changes. *)
let footprint before after =
  let touches = Trace.touched_elements ~before:before.trace after.trace in
  let touches =
    List.fold_left2
      (fun acc (n, r) (_, r') -> if r == r' then acc else element_of_process n :: acc)
      touches before.procs after.procs
  in
  let touches =
    List.fold_left2
      (fun acc (n, m) (_, m') -> if m == m' then acc else element_of_lock n :: acc)
      touches before.mons after.mons
  in
  if before.shared_store == after.shared_store then touches
  else
    List.fold_left
      (fun acc (v, value) ->
        match List.assoc_opt v before.shared_store with
        | Some old when old == value -> acc
        | _ -> v :: acc)
      touches after.shared_store

(* The enabled moves, one per Active process and labelled by it, listed
   without stepping. *)
let steps ctx cfg =
  List.filter_map
    (fun (pname, rt) ->
      match rt.p_state with
      | Active stmts -> Some (pname, fun () -> step_proc ctx cfg pname stmts)
      | In_monitor | Proc_done -> None)
    cfg.procs

let terminated cfg =
  List.for_all
    (fun (_, rt) -> match rt.p_state with Proc_done -> true | Active _ | In_monitor -> false)
    cfg.procs

(* ------------------------------------------------------------------ *)
(* Initial configuration                                               *)
(* ------------------------------------------------------------------ *)

let initial ctx =
  let program = ctx.program in
  let trace = Trace.empty in
  let start, trace = Trace.emit trace ~element:main_element ~klass:"Start" () in
  (* Monitor initialization: Init event then initial Assigns, chained. *)
  let trace, mons =
    List.fold_left
      (fun (trace, mons) m ->
        let init_h, trace =
          Trace.emit_after trace ~after:(Some start) ~element:(element_of_init m.mon_name)
            ~klass:"Init" ()
        in
        let trace, init_tail =
          List.fold_left
            (fun (trace, prev) (v, value) ->
              let h, trace =
                Trace.emit_after trace ~after:(Some prev)
                  ~element:(element_of_var m.mon_name v) ~klass:"Assign"
                  ~params:[ ("newval", value); ("site", Value.Str "init") ]
                  ()
              in
              (trace, h))
            (trace, init_h) m.vars
        in
        let rt =
          {
            m_def = m;
            m_store = m.vars;
            m_conds = List.map (fun c -> (c, [])) m.conditions;
            m_urgent = [];
            m_entryq = [];
            m_busy = false;
            (* Initialization "releases" the monitor: the first Acq chains
               off the init tail, ordering init before every entry. *)
            m_last_rel = Some init_tail;
          }
        in
        (trace, (m.mon_name, rt) :: mons))
      (trace, []) program.monitors
  in
  (* Shared variables: initial Assigns chained off Start. *)
  let trace, _ =
    List.fold_left
      (fun (trace, prev) (v, value) ->
        let h, trace =
          Trace.emit_after trace ~after:(Some prev) ~element:v ~klass:"Assign"
            ~params:[ ("newval", value) ]
            ()
        in
        (trace, h))
      (trace, start) program.shared
  in
  let trace, procs =
    List.fold_left
      (fun (trace, procs) p ->
        let h, trace =
          Trace.emit_after trace ~actor:p.proc_name ~after:(Some start)
            ~element:(element_of_process p.proc_name) ~klass:"Start" ()
        in
        let rt =
          { p_def = p; p_locals = p.locals; p_state = Active p.code; p_last = h }
        in
        (trace, (p.proc_name, rt) :: procs))
      (trace, []) program.processes
  in
  {
    trace;
    procs = List.rev procs;
    mons = List.rev mons;
    shared_store = program.shared;
  }

(* ------------------------------------------------------------------ *)
(* Sealing and state keys                                              *)
(* ------------------------------------------------------------------ *)

let groups_of_program program =
  List.map
    (fun m ->
      let members =
        Gem_model.Group.Elem (element_of_lock m.mon_name)
        :: Gem_model.Group.Elem (element_of_init m.mon_name)
        :: List.map (fun e -> Gem_model.Group.Elem (element_of_entry m.mon_name e.entry_name)) m.entries
        @ List.map (fun (v, _) -> Gem_model.Group.Elem (element_of_var m.mon_name v)) m.vars
        @ List.map (fun c -> Gem_model.Group.Elem (element_of_cond m.mon_name c)) m.conditions
      in
      Gem_model.Group.make m.mon_name members
        ~ports:
          [
            { Gem_model.Group.port_element = element_of_lock m.mon_name; port_class = "Acq" };
            { port_element = element_of_init m.mon_name; port_class = "Init" };
          ])
    program.monitors

let all_elements program =
  (main_element
   :: List.map (fun p -> element_of_process p.proc_name) program.processes)
  @ List.map fst program.shared
  @ List.concat_map
      (fun m ->
        element_of_lock m.mon_name :: element_of_init m.mon_name
        :: List.map (fun e -> element_of_entry m.mon_name e.entry_name) m.entries
        @ List.map (fun (v, _) -> element_of_var m.mon_name v) m.vars
        @ List.map (fun c -> element_of_cond m.mon_name c) m.conditions)
      program.monitors

(* The program's elements and groups are built once per partial
   application, not once per sealed configuration. *)
let seal program =
  let extra_elements = all_elements program and groups = groups_of_program program in
  fun cfg -> Trace.to_computation ~extra_elements ~groups cfg.trace

(* The runtime components of the state key, in a fixed order: each
   process, each monitor, then the shared store. Event handles are
   listed as events, so the key holds their stable identities; stores
   and condition queues, whose insertion order varies across
   interleavings ([Expr.update] prepends, [set_cond_queue] reorders), are
   sorted by name. *)
let proc_pieces rt =
  Explore.[ Event rt.p_last; Data rt.p_state; Data (Expr.sorted_store rt.p_locals) ]

let mon_pieces m =
  Explore.Data (m.m_urgent, m.m_entryq, m.m_busy)
  :: (match m.m_last_rel with Some h -> Explore.Event h | None -> Explore.Data ())
  :: Explore.Data (Expr.sorted_store m.m_store)
  :: List.map
       (fun q -> Explore.Data q)
       (List.sort (fun (a, _) (b, _) -> String.compare a b) m.m_conds)

let store_pieces s = [ Explore.Data (Expr.sorted_store s) ]

let components cfg =
  List.fold_right
    (fun (_, rt) acc -> Explore.Component (rt, proc_pieces) :: acc)
    cfg.procs
    (List.fold_right
       (fun (_, m) acc -> Explore.Component (m, mon_pieces) :: acc)
       cfg.mons
       [ Explore.Component (cfg.shared_store, store_pieces) ])

(* The element and group lists are built at the first seal: a caller
   that only keys the initial configuration never builds them. *)
let lang ?(emit_getvals = false) program =
  let ctx = { program; emit_getvals } in
  let sealer = lazy (seal program) in
  let seal cfg = Lazy.force sealer cfg in
  {
    Explore.init = initial ctx;
    steps = steps ctx;
    footprint;
    terminated;
    trace = (fun cfg -> cfg.trace);
    components;
    seal;
  }

(* ------------------------------------------------------------------ *)
(* Mechanical translation to a GEM program specification               *)
(* ------------------------------------------------------------------ *)

let rec marker_decls_of_pstmts acc = function
  | [] -> acc
  | PMark { klass; params } :: rest ->
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
      marker_decls_of_pstmts acc rest
  | (PIf (_, a, b)) :: rest -> marker_decls_of_pstmts (marker_decls_of_pstmts (marker_decls_of_pstmts acc a) b) rest
  | (PWhile (_, a)) :: rest -> marker_decls_of_pstmts (marker_decls_of_pstmts acc a) rest
  | (PLocal _ | PCall _ | PRead _ | PWrite _) :: rest -> marker_decls_of_pstmts acc rest

(* Process element types vary per process (marker classes differ):
   generate one Etype per process. *)
let process_etype (p : process) =
  let markers = marker_decls_of_pstmts [] p.code in
  Gem_spec.Etype.make ("Process:" ^ p.proc_name)
    ~events:
      ([
         { Gem_spec.Etype.klass = "Start"; schema = [] };
         {
           klass = "Call";
           schema = [ ("entry", Gem_spec.Etype.P_str); ("args", Gem_spec.Etype.P_any) ];
         };
         { klass = "Return"; schema = [ ("value", Gem_spec.Etype.P_any) ] };
       ]
       @ List.rev markers)
    ()

(* Monitor-variable Assigns always carry the site tag. *)
let sited_variable_etype =
  Gem_spec.Etype.make "MonitorVariable"
    ~events:
      [
        {
          Gem_spec.Etype.klass = "Assign";
          schema = [ ("newval", Gem_spec.Etype.P_any); ("site", Gem_spec.Etype.P_str) ];
        };
        { klass = "Getval"; schema = [ ("oldval", Gem_spec.Etype.P_any) ] };
      ]
    ~restrictions:Gem_spec.Etype.variable.Gem_spec.Etype.restrictions
    ()

let lock_etype =
  Gem_spec.Etype.make "MonitorLock"
    ~events:
      [
        { Gem_spec.Etype.klass = "Acq"; schema = [ ("holder", Gem_spec.Etype.P_str) ] };
        { klass = "Rel"; schema = [ ("holder", Gem_spec.Etype.P_str) ] };
      ]
    ()

let entry_etype (e : entry) =
  Gem_spec.Etype.make "MonitorEntry"
    ~events:
      [
        {
          Gem_spec.Etype.klass = "Begin";
          schema = List.map (fun f -> ("arg_" ^ f, Gem_spec.Etype.P_any)) e.formals;
        };
        { klass = "End"; schema = [ ("value", Gem_spec.Etype.P_any) ] };
      ]
    ()

let condition_etype =
  Gem_spec.Etype.make "Condition"
    ~events:
      [
        { Gem_spec.Etype.klass = "Wait"; schema = [] };
        { klass = "Signal"; schema = [] };
        { klass = "Release"; schema = [] };
      ]
    ()

let init_etype =
  Gem_spec.Etype.make "Initialization"
    ~events:[ { Gem_spec.Etype.klass = "Init"; schema = [] } ]
    ()

let main_etype =
  Gem_spec.Etype.make "Main"
    ~events:[ { Gem_spec.Etype.klass = "Start"; schema = [] } ]
    ()

let lock_alternation m =
  let lock = element_of_lock m.mon_name in
  let open F in
  conj
    [
      forall
        [ ("a1", Cls_at (lock, "Acq")); ("a2", Cls_at (lock, "Acq")) ]
        (elem_lt "a1" "a2"
         ==> exists
               [ ("r", Cls_at (lock, "Rel")) ]
               (elem_lt "a1" "r" &&& elem_lt "r" "a2"));
      forall
        [ ("r1", Cls_at (lock, "Rel")); ("r2", Cls_at (lock, "Rel")) ]
        (elem_lt "r1" "r2"
         ==> exists
               [ ("a", Cls_at (lock, "Acq")) ]
               (elem_lt "r1" "a" &&& elem_lt "a" "r2"));
    ]

let release_needs_signal m c =
  let cond = element_of_cond m.mon_name c in
  Gem_spec.Abbrev.prerequisite (F.Cls_at (cond, "Signal")) (F.Cls_at (cond, "Release"))

(* The paper's §9 lemma: "all events occurring in monitor entries or
   initialization code are totally ordered by the temporal order". The
   domain covers entry, variable, condition and initialization elements —
   not the lock element, whose Rel is concurrent with the Release it hands
   over to (both follow the same Signal). *)
let entries_sequential m =
  let open F in
  let domain =
    Union
      (At_elem (element_of_init m.mon_name)
       :: List.map (fun e -> At_elem (element_of_entry m.mon_name e.entry_name)) m.entries
       @ List.map (fun (v, _) -> At_elem (element_of_var m.mon_name v)) m.vars
       @ List.map (fun c -> At_elem (element_of_cond m.mon_name c)) m.conditions)
  in
  forall
    [ ("x", domain); ("y", domain) ]
    (same "x" "y" ||| temp_lt "x" "y" ||| temp_lt "y" "x")

let language_spec ?name program =
  let spec_name = Option.value ~default:"monitor-program" name in
  let elements =
    [ (main_element, main_etype) ]
    @ List.map (fun p -> (element_of_process p.proc_name, process_etype p)) program.processes
    @ List.map (fun (v, _) -> (v, Gem_spec.Etype.variable)) program.shared
    @ List.concat_map
        (fun m ->
          [
            (element_of_lock m.mon_name, lock_etype);
            (element_of_init m.mon_name, init_etype);
          ]
          @ List.map (fun e -> (element_of_entry m.mon_name e.entry_name, entry_etype e)) m.entries
          @ List.map
              (fun (v, _) -> (element_of_var m.mon_name v, sited_variable_etype))
              m.vars
          @ List.map (fun c -> (element_of_cond m.mon_name c, condition_etype)) m.conditions)
        program.monitors
  in
  let restrictions =
    List.concat_map
      (fun m ->
        (m.mon_name ^ ".lock-alternation", lock_alternation m)
        :: (m.mon_name ^ ".entries-sequential", entries_sequential m)
        :: List.map
             (fun c -> (m.mon_name ^ "." ^ c ^ ".release-needs-signal", release_needs_signal m c))
             m.conditions)
      program.monitors
  in
  Gem_spec.Spec.make spec_name ~elements ~groups:(groups_of_program program)
    ~restrictions ()
