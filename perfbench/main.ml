(* Benchmark command: runs one workload for a fixed host-time budget and
   prints its metrics as the last line of standard output, one JSON
   object with [correct], [attempted], [failed] and [metrics].

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--first-seed N] [--scale quick|bench] [--out DIR]

   [--trace 0] repeats untraced iterations and reports the end-to-end
   metrics (host times as medians over iterations, scaled by the
   [Reference] job's median time, the rest medians over iterations). [--trace 1] alternates untraced and traced iterations
   and reports the per-layer metrics; it writes the last traced
   iteration's spans and a per-layer table to [--out].
   Exits 1 when a correctness gate fails: a panel claim, a failing
   nemesis seed, two iterations of one input disagreeing, or a traced
   digest differing from the untraced one. *)

open Perfbench
module W = Workload

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("msgs_per_s", "msg/s");
    ("peak_heap_mb", "MiB");
    ("alloc_words_per_msg", "words/msg");
    ("sim_inter_hive_kbps", "KB/s");
    ("sim_locality", "share");
    ("sim_p50_latency_us", "sim_us");
    ("sim_p99_latency_us", "sim_us");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.ns_per_event", "ns");
    ("engine.warmup_share", "share");
    ("engine.pending_max", "count");
    ("engine.slice_ms_p50", "ms");
    ("engine.slice_ms_p99", "ms");
    ("handler.te.s", "s");
    ("handler.te.calls", "count");
    ("handler.te.us_per_call", "us");
    ("handler.driver.s", "s");
    ("handler.driver.calls", "count");
    ("map.s", "s");
    ("map.calls", "count");
    ("dispatch.self_s", "s");
    ("state.kb", "KiB");
    ("registry.merges", "count");
    ("registry.live_bees", "count");
    ("locksvc.rpcs", "count");
    ("migration.count", "count");
    ("migration.kb", "KiB");
    ("channels.inter_hive_kb", "KiB");
    ("channels.switch_kb", "KiB");
    ("transport.sent", "count");
    ("transport.delivered", "count");
    ("transport.retransmits", "count");
    ("store.fsyncs", "count");
    ("store.wal_kb", "KiB");
    ("store.wal_records", "count");
    ("store.compactions", "count");
    ("lin.final_s", "s");
    ("lin.histories", "count");
    ("lin.ops", "count");
    ("lin.unknown", "count");
    ("runner.seed_ms_p50", "ms");
    ("gc.minor_s", "s");
    ("gc.major_s", "s");
    ("gc.minor_words_per_msg", "words/msg");
    ("gc.promoted_share", "share");
    ("gc.major_collections", "count");
    ("gc.lost_events", "count");
    ("trace.spans", "count");
    ("trace.run_s", "s");
    ("trace.overhead_s", "s");
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_line ~units r =
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
      (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let secs ns = Clock.secs ns
let median_of f its = W.median (List.map f its)

(* Runs [step] until [seconds] of host time are spent, never starting an
   iteration that would, judging by the last one, end past the budget. At
   least one iteration always runs. *)
let repeat ~seconds step =
  let t0 = Clock.now_ns () in
  let rec go acc last_ns =
    let elapsed = Clock.now_ns () - t0 in
    if acc <> [] && secs (elapsed + last_ns) > seconds then List.rev acc
    else begin
      let s = Clock.now_ns () in
      let r = step () in
      go (r :: acc) (Clock.now_ns () - s)
    end
  in
  go [] 0

let same_digest its =
  match its with
  | [] -> true
  | first :: _ -> List.for_all (fun it -> String.equal it.W.digest first.W.digest) its

let report_gates ~label its =
  List.iter
    (fun it ->
      List.iter
        (fun (claim, ok) -> if not ok then Printf.printf "FAIL %s: %s\n" label claim)
        it.W.claims)
    its;
  List.for_all (fun it -> List.for_all snd it.W.claims) its

(* The first iteration of a process grows the heap and warms caches; it is
   checked but left out of the timings when enough others ran. *)
let timed its = if List.length its >= 3 then List.tl its else its

(* Set-up is short next to a run, so it is timed on its own: before each
   iteration, [setup_samples] samples, each of which repeats the set-up
   until [setup_sample_ns] have passed and takes the mean, so that a
   set-up of well under a millisecond is not lost in clock noise. *)
let setup_samples = 2
let setup_sample_ns = 10_000_000

let setup_sample kind ~scale ~seed ~first_seed =
  let rec go n total =
    if total >= setup_sample_ns then secs total /. float_of_int n
    else go (n + 1) (total + W.time_setup kind ~scale ~seed ~first_seed)
  in
  go 0 0

(* Times the reference job until a third of [for_ns] has passed, at least
   once, so that it samples the host for a fixed share of the run however
   long an iteration takes. *)
let reference_samples ~for_ns =
  let rec go acc spent =
    if acc <> [] && 3 * spent >= for_ns then acc
    else
      let ns = Reference.time_ns () in
      go (secs ns :: acc) (spent + ns)
  in
  go [] 0

(* Every host time of an untraced run is a median over its iterations,
   scaled by [Reference.nominal_s] over the median time of the reference
   job run after each iteration ([reference_samples]): seconds at the host speed where that job
   takes [Reference.nominal_s]. The raw medians are printed as well. *)
let untraced_result kind ~scale ~seed ~first_seed ~seconds =
  (* The heap peak is read after the first iteration: later ones reuse
     the heap, but how far it grows again depends on how many ran. *)
  let top_heap = ref 0 and setups = ref [] in
  let runs =
    repeat ~seconds (fun () ->
        for _ = 1 to setup_samples do
          setups := setup_sample kind ~scale ~seed ~first_seed :: !setups
        done;
        (* Keeps the set-up's and the last iteration's garbage out of
           this iteration's measurements. *)
        Gc.full_major ();
        let it = W.run_untraced kind ~scale ~seed ~first_seed in
        if !top_heap = 0 then top_heap := (Gc.quick_stat ()).Gc.top_heap_words;
        Gc.full_major ();
        (it, reference_samples ~for_ns:it.W.run_ns))
  in
  let its = List.map fst runs in
  let claims_ok = report_gates ~label:"untraced" its in
  let stable = same_digest its in
  if not stable then print_endline "FAIL untraced iterations of one input disagree";
  let first = List.hd its in
  let timed_runs = timed runs in
  let timed = List.map fst timed_runs in
  let reference_s = W.median (List.concat_map snd timed_runs) in
  let speed = Reference.nominal_s /. reference_s in
  let raw_run_s = median_of (fun it -> secs it.W.run_ns) timed in
  let raw_setup_s = W.median !setups in
  let run_s = raw_run_s *. speed in
  let msgs = float_of_int first.W.msgs in
  Printf.printf "workload %s: %d iterations, digest %s\n" (W.name kind) (List.length its)
    first.W.digest;
  Printf.printf
    "host medians: run %.4f s, set-up %.6f s, reference job %.4f s (scaled by %.4f)\n"
    raw_run_s raw_setup_s reference_s speed;
  {
    correct = claims_ok && stable && first.W.failed = 0;
    attempted = first.W.attempted;
    failed = first.W.failed;
    metrics =
      [
        ("setup_s", raw_setup_s *. speed);
        ("run_s", run_s);
        ("msgs_per_s", msgs /. run_s);
        ("peak_heap_mb", float_of_int (!top_heap * (Sys.word_size / 8)) /. 1048576.0);
        ("alloc_words_per_msg", median_of (fun it -> it.W.alloc_words) timed /. msgs);
        ("sim_inter_hive_kbps", first.W.sim_kbps);
        ("sim_locality", first.W.sim_locality);
        ("sim_p50_latency_us", first.W.sim_p50_us);
        ("sim_p99_latency_us", first.W.sim_p99_us);
      ];
  }

let write_layers path tr =
  let layers = Tracer.finish tr in
  let oc = open_out path in
  output_string oc "layer,calls,total_s,self_s\n";
  Hashtbl.iter
    (fun name l ->
      Printf.fprintf oc "%s,%d,%.6f,%.6f\n" name l.Tracer.l_calls (secs l.Tracer.l_total_ns)
        (secs l.Tracer.l_self_ns))
    layers;
  close_out oc

let traced_result kind ~scale ~seed ~first_seed ~seconds ~out =
  let last_tracer = ref None in
  let pairs =
    repeat ~seconds (fun () ->
        Gc.full_major ();
        let u = W.run_untraced kind ~scale ~seed ~first_seed in
        last_tracer := None;
        Gc.full_major ();
        let t, tr = W.run_traced kind ~scale ~seed ~first_seed in
        last_tracer := Some tr;
        (u, t))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let untraced_ok = report_gates ~label:"untraced" untraced in
  let traced_ok = report_gates ~label:"traced" traced in
  let agree = same_digest (untraced @ traced) in
  if not agree then
    Printf.printf "FAIL traced digest %s differs from untraced %s\n"
      (List.hd traced).W.digest (List.hd untraced).W.digest;
  (match (out, !last_tracer) with
  | Some dir, Some tr ->
    let base = Filename.concat dir (W.name kind) in
    Tracer.write_csv tr (base ^ "-spans.csv");
    write_layers (base ^ "-layers.csv") tr
  | _ -> ());
  (* Medians, like every other per-layer time, so that a layer's time
     over [trace.run_s] is its share. *)
  let u_run = median_of (fun it -> secs it.W.run_ns) (timed untraced) in
  let t_run = median_of (fun it -> secs it.W.run_ns) (timed traced) in
  let layer name =
    median_of
      (fun it -> Option.value ~default:0.0 (List.assoc_opt name it.W.layers))
      (timed traced)
  in
  let metrics =
    List.map
      (fun (name, _) ->
        match name with
        | "trace.run_s" -> (name, t_run)
        | "trace.overhead_s" -> (name, t_run -. u_run)
        | _ -> (name, layer name))
      per_layer
  in
  Printf.printf "workload %s: %d traced iterations, digest %s\n" (W.name kind)
    (List.length pairs) (List.hd traced).W.digest;
  let first = List.hd untraced in
  {
    correct = untraced_ok && traced_ok && agree && first.W.failed = 0;
    attempted = first.W.attempted;
    failed = first.W.failed;
    metrics;
  }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let first_seed = ref 0 and scale = ref "bench" and out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--first-seed",
        Arg.Set_int first_seed,
        "N first of the nemesis-lin seed range (default 0, where CI's soak starts)" );
      ("--scale", Arg.Set_string scale, "quick|bench (default bench)");
      ("--out", Arg.String (fun d -> out := Some d), "DIR where traced runs write spans");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let kind =
    match W.of_name !workload with
    | Some k -> k
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let scale =
    match W.scale_of_string !scale with
    | Some s -> s
    | None ->
      prerr_endline ("unknown scale: " ^ !scale);
      exit 2
  in
  (* One lane, whatever BEEHIVE_DOMAINS says. *)
  Beehive_sim.Domain_pool.set_global_domains 1;
  Printf.printf "domain pool width: %d\n"
    (Beehive_sim.Domain_pool.size (Beehive_sim.Domain_pool.global ()));
  let seed = !seed and seconds = !seconds in
  let first_seed = !first_seed in
  let r, units =
    if !trace = 0 then (untraced_result kind ~scale ~seed ~first_seed ~seconds, end_to_end)
    else (traced_result kind ~scale ~seed ~first_seed ~seconds ~out:!out, per_layer)
  in
  print_endline (json_line ~units r);
  exit (if r.correct then 0 else 1)
