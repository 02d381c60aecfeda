(* In-memory span recorder for the traced benchmark run.

   Spans are recorded from the benchmark's own code around the calls it
   makes into the library (engine slices, wrapped app closures, check
   seeds). GC pauses come from the stdlib [runtime_events] ring of this
   process and are attached afterwards as children of the innermost span
   that was open when they started, so every layer's self time excludes
   the collections that interrupted it. All timestamps are CLOCK_MONOTONIC
   nanoseconds: {!Clock.now_ns} and the runtime's event timestamps read
   the same clock. *)

type t = {
  mutable names : string array;  (** interned span names *)
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;  (** span index, or -1 for a root *)
  mutable open_ : int;  (** innermost open span, or -1 *)
  mutable gc_open : (Runtime_events.runtime_phase * int) option;
  mutable lost_events : int;
}

let create () =
  {
    names = [||];
    n = 0;
    name = Array.make 4096 0;
    start = Array.make 4096 0;
    stop = Array.make 4096 0;
    parent = Array.make 4096 0;
    open_ = -1;
    gc_open = None;
    lost_events = 0;
  }

let intern t s =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| s |];
      i
    end
    else if String.equal t.names.(i) s then i
    else find (i + 1)
  in
  find 0

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- extend t.name;
  t.start <- extend t.start;
  t.stop <- extend t.stop;
  t.parent <- extend t.parent

let add t ~id ~start ~stop ~parent =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- id;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.n <- i + 1;
  i

(* [within t id f] runs [f] as a span named [id], nested under whatever
   span is open; the span is closed even when [f] raises (handlers may,
   and the platform aborts their transaction). *)
let within t id f =
  let parent = t.open_ in
  let i = add t ~id ~start:(Clock.now_ns ()) ~stop:0 ~parent in
  t.open_ <- i;
  match f () with
  | r ->
    t.stop.(i) <- Clock.now_ns ();
    t.open_ <- parent;
    r
  | exception e ->
    t.stop.(i) <- Clock.now_ns ();
    t.open_ <- parent;
    raise e

(* A span whose bounds are only known after the fact, under the open
   span. *)
let record t id ~start ~stop = ignore (add t ~id ~start ~stop ~parent:t.open_)

(* --- GC pauses from runtime_events ----------------------------------- *)

let gc_minor = "gc.minor"
let gc_major = "gc.major"

let gc_name = function
  | Runtime_events.EV_MINOR -> Some gc_minor
  | Runtime_events.EV_MAJOR_SLICE | Runtime_events.EV_MAJOR_FINISH_CYCLE
  | Runtime_events.EV_EXPLICIT_GC_MAJOR | Runtime_events.EV_EXPLICIT_GC_FULL_MAJOR
  | Runtime_events.EV_EXPLICIT_GC_MAJOR_SLICE ->
    Some gc_major
  | _ -> None

(* GC pauses are kept as unparented spans (parent -2) until {!finish}
   places them. Only outermost tracked phases count, so a major slice
   run from inside a minor collection is not counted twice. The ring
   and its cursor are per process; [current] is the tracer that events
   read now are charged to. *)
let current : t option ref = ref None

let on_begin _domain ts phase =
  match (!current, gc_name phase) with
  | Some t, Some _ when t.gc_open = None ->
    t.gc_open <- Some (phase, Int64.to_int (Runtime_events.Timestamp.to_int64 ts))
  | _ -> ()

let on_end _domain ts phase =
  match !current with
  | Some ({ gc_open = Some (p, start); _ } as t) when p = phase ->
    t.gc_open <- None;
    let id = intern t (Option.get (gc_name phase)) in
    ignore
      (add t ~id ~start ~stop:(Int64.to_int (Runtime_events.Timestamp.to_int64 ts))
         ~parent:(-2))
  | _ -> ()

let on_lost _domain n =
  match !current with Some t -> t.lost_events <- t.lost_events + n | None -> ()

let ring =
  lazy
    (Runtime_events.start ();
     ( Runtime_events.create_cursor None,
       Runtime_events.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
         ~lost_events:on_lost () ))

let poll () =
  let cursor, cb = Lazy.force ring in
  ignore (Runtime_events.read_poll cursor cb None)

(* Charges GC pauses to [t] from now on; events already in the ring are
   discarded first. *)
let start_gc t =
  current := None;
  poll ();
  current := Some t

let stop_gc () =
  poll ();
  current := None

(* --- Analysis --------------------------------------------------------- *)

type layer = {
  l_calls : int;
  l_total_ns : int;
  l_self_ns : int;
}

(* Index of the innermost recorded (non-GC) span containing [s, e]:
   the last span started at or before [s], walked up its parents until
   one also covers [e]. [order] lists non-GC span indices by start. *)
let innermost t order s e =
  let lo = ref 0 and hi = ref (Array.length order - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.start.(order.(mid)) <= s then begin
      best := order.(mid);
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  let rec up i = if i < 0 then -1 else if t.stop.(i) >= e then i else up t.parent.(i) in
  up !best

(* Attach GC pauses to their enclosing spans, then fold every span into
   per-name totals: calls, wall time, and self time (wall minus the
   direct children's wall). Only spans starting in [from_ns, to_ns]
   count, so collections during set-up are left out. *)
let finish ?(from_ns = min_int) ?(to_ns = max_int) t =
  let order =
    let l = ref [] in
    for i = t.n - 1 downto 0 do
      if t.parent.(i) <> -2 then l := i :: !l
    done;
    let a = Array.of_list !l in
    Array.stable_sort (fun i j -> compare t.start.(i) t.start.(j)) a;
    a
  in
  for i = 0 to t.n - 1 do
    if t.parent.(i) = -2 then t.parent.(i) <- innermost t order t.start.(i) t.stop.(i)
  done;
  let child_ns = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + (t.stop.(i) - t.start.(i))
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    if t.start.(i) >= from_ns && t.start.(i) <= to_ns then begin
      let name = t.names.(t.name.(i)) in
      let dur = t.stop.(i) - t.start.(i) in
      let l =
        Option.value (Hashtbl.find_opt acc name)
          ~default:{ l_calls = 0; l_total_ns = 0; l_self_ns = 0 }
      in
      Hashtbl.replace acc name
        {
          l_calls = l.l_calls + 1;
          l_total_ns = l.l_total_ns + dur;
          l_self_ns = l.l_self_ns + dur - child_ns.(i);
        }
    end
  done;
  acc

let n_spans t = t.n

let get layers name f = match Hashtbl.find_opt layers name with Some l -> f l | None -> 0
let self_s layers name = Clock.secs (get layers name (fun l -> l.l_self_ns))
let total_s layers name = Clock.secs (get layers name (fun l -> l.l_total_ns))
let calls layers name = float_of_int (get layers name (fun l -> l.l_calls))

(* One CSV row per span: name, start and end (ns), parent index. *)
let write_csv t path =
  let oc = open_out path in
  output_string oc "index,name,start_ns,end_ns,parent\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d\n" i t.names.(t.name.(i)) t.start.(i) t.stop.(i)
      t.parent.(i)
  done;
  close_out oc
