(* A fixed job of the benchmark's own, timed after every untraced
   iteration, by which host times are scaled to one host speed.

   On the shared 2-core host the benchmark was tuned on, the same
   iteration takes from 0.38 to 0.63 s within one process and drifts by
   up to 2x over minutes as other tenants load the machine; steal time
   stays near zero, so CPU time drifts as much as wall time. This job
   slows down with the host: it builds a balanced map and a hash table and
   sorts a list of boxed pairs, so it allocates, promotes and chases
   pointers as the simulator does. Over eight 30 s processes of each
   Figure 4 workload, the median iteration over the median job time
   spread by 3 to 4% (interquartile range over median) where the median
   iteration alone spread by 12 to 15%. The job uses the standard library
   only, so a change to the program does not change its time. *)

module Int_map = Map.Make (Int)

let map_job () =
  let st = ref 12345 and m = ref Int_map.empty in
  for i = 1 to 60_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.add !st i !m
  done;
  let h = Hashtbl.create 16 in
  Int_map.iter (fun k v -> Hashtbl.replace h (k land 0xffff) v) !m;
  ignore (Sys.opaque_identity (Hashtbl.length h))

let list_job () =
  let l = List.init 150_000 (fun i -> ((i * 7919) land 0xfffff, string_of_int i)) in
  ignore (Sys.opaque_identity (List.length (List.sort compare l)))

(* The job's time at the speed host times are scaled to: about its median
   on that host. *)
let nominal_s = 0.2

(* Host time of one run of the job, in ns. *)
let time_ns () =
  let t0 = Clock.now_ns () in
  map_job ();
  list_job ();
  Clock.now_ns () - t0
