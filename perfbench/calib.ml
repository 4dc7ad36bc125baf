(* The benchmark's host-speed calibration: fixed work, independent of the
   gemcheck libraries, whose time tracks how fast the host runs code like
   a check right now. perfbench/run.py runs it between samples and scales
   the run's timings by it (see README.md, "Host-speed adjustment").

   calib
     Prints the seconds the work took.

   The work has the shape of a check: a breadth-first search over the
   5^7 = 78,125 states of seven counters mod 5, with a seen table keyed by
   the state array, and a short recursive evaluation over a list built
   from each state. Nothing here may change between commits: a change to
   it moves every timing the benchmark reports. *)

let work () =
  let k = 7 and m = 5 in
  let seen = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let s0 = Array.make k 0 in
  Hashtbl.replace seen s0 ();
  Queue.push s0 queue;
  let acc = ref 0 in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let l = Array.to_list s in
    let rec eval = function
      | [] -> 0
      | x :: r -> if x land 1 = 0 then x + eval r else eval r - x
    in
    acc := !acc + eval l + List.length (List.rev_map succ l);
    for i = 0 to k - 1 do
      let t = Array.copy s in
      t.(i) <- (t.(i) + 1) mod m;
      if not (Hashtbl.mem seen t) then begin
        Hashtbl.replace seen t ();
        Queue.push t queue
      end
    done
  done;
  Hashtbl.length seen + !acc

let () =
  let t0 = Unix.gettimeofday () in
  let r = Sys.opaque_identity (work ()) in
  let t1 = Unix.gettimeofday () in
  if r <> 843750 then begin
    prerr_endline "calib: wrong result";
    exit 2
  end;
  Printf.printf "%.9f\n" (t1 -. t0)
