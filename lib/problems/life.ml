module F = Gem_logic.Formula
module V = Gem_model.Value
module Computation = Gem_model.Computation
module Event = Gem_model.Event

type cell = int * int

let element_of_cell (x, y) = Printf.sprintf "cell_%d_%d" x y

let neighbours ~width ~height (x, y) =
  let wrap v m = ((v mod m) + m) mod m in
  List.filter_map
    (fun (dx, dy) ->
      if dx = 0 && dy = 0 then None
      else Some (wrap (x + dx) width, wrap (y + dy) height))
    [ (-1, -1); (0, -1); (1, -1); (-1, 0); (1, 0); (-1, 1); (0, 1); (1, 1) ]

let reference ~width ~height ~generations ~alive =
  if generations < 0 then invalid_arg "Life.reference: negative generations";
  let initial = Array.init height (fun y -> Array.init width (fun x -> List.mem (x, y) alive)) in
  let step grid =
    Array.init height (fun y ->
        Array.init width (fun x ->
            let live_neighbours =
              List.length
                (List.filter (fun (nx, ny) -> grid.(ny).(nx)) (neighbours ~width ~height (x, y)))
            in
            if grid.(y).(x) then live_neighbours = 2 || live_neighbours = 3
            else live_neighbours = 3))
  in
  let rec gens acc grid g =
    if g = generations then List.rev (grid :: acc) else gens (grid :: acc) (step grid) (g + 1)
  in
  gens [] initial 0

let cells ~width ~height =
  List.concat (List.init height (fun y -> List.init width (fun x -> (x, y))))

let build ~width ~height ~generations ~alive =
  let grids = Array.of_list (reference ~width ~height ~generations ~alive) in
  let b = Gem_model.Build.create () in
  let start = Gem_model.Build.emit b ~element:"main" ~klass:"Start" () in
  let all = cells ~width ~height in
  (* handle of each cell's latest state event *)
  let last = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let x, y = c in
      let h =
        Gem_model.Build.emit b ~element:(element_of_cell c) ~klass:"State"
          ~params:[ ("gen", V.Int 0); ("alive", V.Bool grids.(0).(y).(x)) ]
          ()
      in
      Gem_model.Build.enable b start h;
      Hashtbl.replace last c h)
    all;
  for g = 1 to generations do
    let prev = Hashtbl.copy last in
    List.iter
      (fun c ->
        let x, y = c in
        let h =
          Gem_model.Build.emit b ~element:(element_of_cell c) ~klass:"State"
            ~params:[ ("gen", V.Int g); ("alive", V.Bool grids.(g).(y).(x)) ]
            ()
        in
        (* The cell's next state is enabled by its own and its neighbours'
           previous states — these joins are the state messages. *)
        Gem_model.Build.enable b (Hashtbl.find prev c) h;
        List.iter
          (fun n -> Gem_model.Build.enable b (Hashtbl.find prev n) h)
          (neighbours ~width ~height c);
        Hashtbl.replace last c h)
      all
  done;
  Gem_model.Build.finish b

let cell_etype =
  Gem_spec.Etype.make "LifeCell"
    ~events:
      [
        {
          Gem_spec.Etype.klass = "State";
          schema = [ ("gen", Gem_spec.Etype.P_int); ("alive", Gem_spec.Etype.P_bool) ];
        };
      ]
    ()

let main_etype =
  Gem_spec.Etype.make "Main" ~events:[ { Gem_spec.Etype.klass = "Start"; schema = [] } ] ()

let spec ~width ~height =
  Gem_spec.Spec.make "async-life"
    ~elements:
      (("main", main_etype)
      :: List.map (fun c -> (element_of_cell c, cell_etype)) (cells ~width ~height))
    ()

let matches_reference ~width ~height ~generations ~alive =
  let grids = Array.of_list (reference ~width ~height ~generations ~alive) in
  F.forall
    [ ("s", F.Cls "State") ]
    (F.sem "matches-reference" [ "s" ] (fun comp _hist handles ->
         match handles with
         | [ h ] -> (
             let e = Computation.event comp h in
             let g = V.as_int (Event.param e "gen") in
             let a = V.as_bool (Event.param e "alive") in
             match String.split_on_char '_' e.Event.id.element with
             | [ _; xs; ys ] ->
                 let x = int_of_string xs and y = int_of_string ys in
                 g <= generations && Bool.equal grids.(g).(y).(x) a
             | _ -> false)
         | _ -> false))

let progress ~generations =
  F.forall
    [ ("s", F.Cls "State") ]
    (F.Implies
       (F.Atom (F.Cmp (F.Eq, F.Param ("s", "gen"), F.Const (V.Int generations))),
        F.eventually (F.occurred "s")))

let asynchrony_witness comp =
  let states = Computation.events_of_class comp "State" in
  let gen h = V.as_int (Event.param (Computation.event comp h) "gen") in
  let rec find = function
    | [] -> None
    | h :: rest -> (
        match
          List.find_opt (fun h' -> gen h' <> gen h && Computation.concurrent comp h h') rest
        with
        | Some h' ->
            Some ((Computation.event comp h).Event.id, (Computation.event comp h').Event.id)
        | None -> find rest)
  in
  find states
