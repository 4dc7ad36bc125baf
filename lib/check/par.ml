(* Small domain-parallelism substrate for the checking layer. Kept
   deliberately tiny: the stdlib's [Domain] and [Atomic] are the only
   primitives, so the library builds with no dependencies beyond the
   OCaml 5 runtime. *)

let jobs_default () =
  match Sys.getenv_opt "GEM_JOBS" with
  | None | Some "" -> 1
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)

(* Re-raise a worker exception in the spawning domain. The first failure
   wins; the others are dropped — by then the pipeline is aborting. *)
let reraise_first failure =
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?(jobs = jobs_default ()) f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let outputs = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        if Atomic.get failure = None then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (try outputs.(i) <- Some (f inputs.(i))
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            loop ()
          end
        end
      in
      loop ()
    in
    let domains =
      List.init (min (jobs - 1) (n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join domains;
    reraise_first failure;
    Array.to_list
      (Array.map
         (function Some y -> y | None -> assert false (* failure re-raised *))
         outputs)
  end

let mapi ?jobs f xs =
  map ?jobs (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)
