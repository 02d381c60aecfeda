(* The benchmark's three workloads, each runnable untraced (end-to-end
   metrics) or traced (per-layer metrics), plus the simulation digest
   and the correctness gates.

   Untraced Figure 4 runs call the harness exactly as the CLI does:
   [Scenario.build] is the set-up, [Scenario.run] plus the Figure 4
   measurements (and the optimized panel's post-convergence tail) is the
   run. Traced runs rebuild the same scenario here, step for step, so
   the benchmark can wrap the [map] and [rcv] closures of the apps it
   hands the platform, and drive [Engine.run_until] in 100 ms simulated
   slices. The digest of a traced run must equal the untraced one: that
   proves the rebuild, the slicing and the wrapping change nothing the
   simulation computes. *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Rng = Beehive_sim.Rng
module Topology = Beehive_net.Topology
module Flow = Beehive_net.Flow
module Channels = Beehive_net.Channels
module Transport = Beehive_net.Transport
module Series = Beehive_net.Series
module Traffic_matrix = Beehive_net.Traffic_matrix
module App = Beehive_core.App
module Platform = Beehive_core.Platform
module Instrumentation = Beehive_core.Instrumentation
module Stats = Beehive_core.Stats
module Feedback = Beehive_core.Feedback
module Store = Beehive_store.Store
module Switch_agent = Beehive_openflow.Switch_agent
module Driver = Beehive_openflow.Driver
module Scenario = Beehive_harness.Scenario
module Summary = Beehive_harness.Summary
module Runner = Beehive_check.Runner
module Nemesis = Beehive_check.Nemesis
module Script = Beehive_check.Script

type scale =
  | Quick  (** [Scenario.quick_config], short nemesis seeds: the smoke test *)
  | Bench  (** what the benchmark command measures *)

let scale_of_string = function
  | "quick" -> Some Quick
  | "bench" -> Some Bench
  | _ -> None

type kind =
  | Fig4_naive
  | Fig4_durable
  | Nemesis_lin

let all = [ Fig4_naive; Fig4_durable; Nemesis_lin ]

let name = function
  | Fig4_naive -> "fig4-naive"
  | Fig4_durable -> "fig4-durable"
  | Nemesis_lin -> "nemesis-lin"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

(* --- Configurations --------------------------------------------------- *)

(* Bench scale keeps the paper's tree, flow mix, rates and threshold and
   its 5 s warm-up, at a quarter of its hives and switches, half its
   flows per switch and a 10 s window. The paper's scale peaks near
   3.4 GB and runs ~20 s per naive iteration; this keeps every workload
   to a few hundred MB and under ~2 s, so a run repeats it many times. *)
let base_config = function
  | Quick -> Scenario.quick_config
  | Bench ->
    {
      Scenario.default_config with
      Scenario.n_hives = 10;
      n_switches = 100;
      flows_per_switch = 50;
      flow_start_spread = 10.0;
      duration = Simtime.of_sec 10.0;
    }

let fig4_config scale kind ~seed =
  let c = { (base_config scale) with Scenario.seed } in
  match kind with
  | Fig4_naive -> { c with Scenario.te = Scenario.Te_naive; optimize = false; adversarial_pin = false }
  | Fig4_durable ->
    {
      c with
      Scenario.te = Scenario.Te_decoupled;
      optimize = true;
      adversarial_pin = true;
      durability = true;
    }
  | Nemesis_lin -> invalid_arg "fig4_config"

(* The CI linearizability soak: durability profile, CLI defaults of 4
   hives and 30 ticks, a fixed range of consecutive nemesis seeds. *)
let nemesis_ticks = function Quick -> 10 | Bench -> 30
let nemesis_seeds = function Quick -> 3 | Bench -> 4
let nemesis_profile = Script.Durability

(* --- Measurement records ---------------------------------------------- *)

type iteration = {
  run_ns : int;
  msgs : int;  (** bee messages handled *)
  alloc_words : float;  (** minor + major - promoted over the run *)
  attempted : int;
  failed : int;
  sim_kbps : float;
  sim_locality : float;
  sim_p50_us : float;
  sim_p99_us : float;
  digest : string;
  claims : (string * bool) list;  (** panel-local correctness claims *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
}

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))

(* --- Digest ------------------------------------------------------------ *)

let add_summary b (s : Summary.t) =
  Printf.bprintf b "summary %h %h %d %h %h %h %d %d %d %d %d %d %d %d %d\n"
    s.Summary.s_locality s.s_hotspot_share s.s_hotspot_hive s.s_total_inter_kb
    s.s_peak_kbps s.s_mean_kbps s.s_migrations s.s_merges s.s_lock_rpcs
    s.s_processed s.s_live_bees s.s_p50_us s.s_p99_us s.s_dead_letters
    s.s_quarantined;
  List.iter (fun (k, v) -> Printf.bprintf b "g %s=%d\n" k v) s.s_membership

let add_matrix b m =
  let n = Traffic_matrix.size m in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let msgs = Traffic_matrix.messages m ~src:i ~dst:j in
      if msgs > 0 then
        Printf.bprintf b "m %d %d %d %h\n" i j msgs (Traffic_matrix.bytes m ~src:i ~dst:j)
    done
  done

let add_series b s =
  Array.iter (fun (t, v) -> Printf.bprintf b "s %h %h\n" t v) (Series.buckets s)

(* --- Figure 4 ---------------------------------------------------------- *)

(* One measured window of a Figure 4 run, reduced to what the digest and
   the metrics need (the live matrix and series are reset afterwards). *)
type window = {
  w_summary : Summary.t;
  w_digest : string;
}

let measure_window platform =
  let ch = Platform.channels platform in
  let m = Channels.matrix ch and bw = Channels.bandwidth ch in
  let s = Summary.measure m bw platform in
  let b = Buffer.create 4096 in
  add_matrix b m;
  add_series b bw;
  add_summary b s;
  { w_summary = s; w_digest = Buffer.contents b }

let has_tail = function Fig4_durable -> true | Fig4_naive | Nemesis_lin -> false

(* The panel-local claims of [Fig4.shape_checks], with its thresholds:
   every claim on the naive panel alone or on the optimized panel alone.
   The two that compare against the decoupled panel are left out, as no
   workload runs that panel. Part of the run, as [Fig4.run_panel]
   analyzes its platform before returning. *)
let fig4_claims kind (cfg : Scenario.config) platform ~window ~tail =
  let w = window.w_summary in
  match (kind, tail) with
  | Fig4_naive, _ ->
    [
      ("naive: one hive dominates", w.Summary.s_hotspot_share > 0.6);
      ( "naive: flagged as effectively centralized",
        List.exists
          (fun (i : Feedback.item) ->
            i.Feedback.severity = Feedback.Critical
            && i.Feedback.app = Some Beehive_apps.Te_naive.app_name)
          (Feedback.analyze platform) );
    ]
  | Fig4_durable, Some t ->
    let t = t.w_summary in
    [
      ( "optimized: runtime migrations happened",
        w.Summary.s_migrations > cfg.Scenario.n_switches / 2 );
      ( "optimized: migration spike visible in the window",
        w.Summary.s_peak_kbps > 3.0 *. Float.max 1.0 t.Summary.s_mean_kbps );
      ("optimized: converges to local processing", t.Summary.s_locality > 0.6);
    ]
  | _ -> [ ("tail measured", false) ]

let fig4_digest ~engine ~platform ~window ~tail =
  let b = Buffer.create 8192 in
  Buffer.add_string b window.w_digest;
  Option.iter (fun t -> Buffer.add_string b t.w_digest) tail;
  Printf.bprintf b "events=%d processed=%d dropped=%d quarantined=%d dead=%d\n"
    (Engine.events_executed engine)
    (Platform.total_processed platform)
    (Platform.total_dropped platform)
    (Platform.total_quarantined platform)
    (List.length (Platform.dead_letters platform));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Everything after the measured window that [Fig4.run_panel] does: the
   post-convergence tail of half a window. *)
let run_tail ~run_until engine platform cfg =
  Channels.reset_accounting (Platform.channels platform);
  let extra = Simtime.of_us (Simtime.to_us cfg.Scenario.duration / 2) in
  run_until (Simtime.add (Engine.now engine) extra);
  measure_window platform

let fig4_iteration ~engine ~platform ~run_ns ~alloc ~window ~tail ~claims
    ~layers =
  let msgs = Platform.total_processed platform in
  let dropped = Platform.total_dropped platform in
  let s = window.w_summary in
  {
    run_ns;
    msgs;
    alloc_words = alloc;
    attempted = msgs + dropped;
    failed = dropped + s.Summary.s_quarantined + s.Summary.s_dead_letters;
    sim_kbps = s.Summary.s_mean_kbps;
    sim_locality = s.Summary.s_locality;
    sim_p50_us = float_of_int s.Summary.s_p50_us;
    sim_p99_us = float_of_int s.Summary.s_p99_us;
    digest = fig4_digest ~engine ~platform ~window ~tail;
    claims;
    layers;
  }

let fig4_untraced kind ~scale ~seed =
  let cfg = fig4_config scale kind ~seed in
  let sc = Scenario.build cfg in
  let t1 = Clock.now_ns () in
  let a0 = alloc_words () in
  let engine = Scenario.engine sc and platform = Scenario.platform sc in
  Scenario.run sc;
  let window = measure_window platform in
  let tail =
    if has_tail kind then Some (run_tail ~run_until:(Engine.run_until engine) engine platform cfg)
    else None
  in
  let claims = fig4_claims kind cfg platform ~window ~tail in
  let t2 = Clock.now_ns () in
  fig4_iteration ~engine ~platform ~run_ns:(t2 - t1)
    ~alloc:(alloc_words () -. a0) ~window ~tail ~claims ~layers:[]

(* [Scenario.build], step for step, with [wrap] applied to every app the
   scenario registers itself (the instrumentation app is registered by
   [Instrumentation.install] and cannot be wrapped). *)
let build_wrapped (cfg : Scenario.config) ~wrap =
  let engine = Engine.create ~seed:cfg.Scenario.seed () in
  let pcfg =
    {
      (Platform.default_config ~n_hives:cfg.n_hives) with
      Platform.replication = cfg.replication;
      durability = (if cfg.durability then Some Store.default_config else None);
    }
  in
  let platform = Platform.create engine pcfg in
  let topo = Topology.tree ~arity:cfg.tree_arity ~n_switches:cfg.n_switches in
  let per_hive = max 1 ((cfg.n_switches + cfg.n_hives - 1) / cfg.n_hives) in
  for sw = 0 to cfg.n_switches - 1 do
    Channels.assign_switch (Platform.channels platform) ~switch:sw
      ~hive:(min (cfg.n_hives - 1) (sw / per_hive))
  done;
  let flow_rng = Rng.split (Engine.rng engine) in
  let flows =
    Flow.generate flow_rng topo ~per_switch:cfg.flows_per_switch
      ~hot_fraction:cfg.hot_fraction ~base_rate:cfg.base_rate ~hot_rate:cfg.hot_rate
      ~start_spread:cfg.flow_start_spread ()
  in
  Platform.register_app platform (wrap ~label:"driver" (Driver.app ()));
  (match cfg.te with
  | Scenario.Te_naive ->
    Platform.register_app platform
      (wrap ~label:"te" (Beehive_apps.Te_naive.app ~delta:cfg.delta ()))
  | Scenario.Te_decoupled ->
    Platform.register_app platform
      (wrap ~label:"te" (Beehive_apps.Te_decoupled.app ~delta:cfg.delta ()))
  | Scenario.Te_none | Scenario.Te_external -> invalid_arg "build_wrapped: te variant");
  ignore
    (Instrumentation.install platform
       { Instrumentation.default_config with optimize = cfg.optimize });
  Platform.start platform;
  let cluster = Switch_agent.create_cluster platform topo in
  for sw = 0 to cfg.n_switches - 1 do
    let sw_flows =
      Array.of_list
        (List.filter (fun (f : Flow.t) -> f.Flow.src_switch = sw) (Array.to_list flows))
    in
    ignore (Switch_agent.add cluster ~sw ~flows:sw_flows ())
  done;
  Switch_agent.connect_all cluster ~stagger:(Simtime.of_ms 1) ();
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 1.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  ignore
    (Engine.schedule_at engine (Simtime.of_sec 2.0) (fun () ->
         Switch_agent.send_all_lldp cluster));
  (engine, platform)

(* [Scenario.run]'s adversarial initial placement. *)
let adversarial_placement platform =
  let te = Beehive_apps.Te_decoupled.app_name in
  List.iter
    (fun (v : Platform.bee_view) ->
      if String.equal v.Platform.view_app te && (not v.view_is_local) && v.view_hive <> 0
      then
        ignore
          (Platform.migrate_bee platform ~bee:v.view_id ~to_hive:0
             ~reason:"adversarial initial placement"))
    (Platform.live_bees platform)

(* --- Traced iterations ---------------------------------------------------- *)

(* Per-layer counts read from a platform's public counters. *)
let platform_layers platform =
  let f = float_of_int in
  let store g = match Platform.store platform with Some s -> f (g s) | None -> 0.0 in
  let live = Platform.live_bees platform in
  let tp = Platform.transport platform in
  [
    ( "state.kb",
      List.fold_left
        (fun a (v : Platform.bee_view) ->
          a +. f (Platform.bee_state_size platform v.Platform.view_id))
        0.0 live
      /. 1024.0 );
    ("registry.merges", f (Platform.total_bee_merges platform));
    ("registry.live_bees", f (List.length live));
    ("locksvc.rpcs", f (Platform.total_lock_rpcs platform));
    ("migration.count", f (List.length (Platform.migrations platform)));
    ( "migration.kb",
      List.fold_left
        (fun a (m : Platform.migration) -> a +. f m.Platform.mig_bytes)
        0.0 (Platform.migrations platform)
      /. 1024.0 );
    ("channels.switch_kb", Channels.switch_bytes (Platform.channels platform) /. 1024.0);
    ("transport.sent", f (Transport.sent tp));
    ("transport.delivered", f (Transport.delivered tp));
    ("transport.retransmits", f (Transport.retransmits tp));
    ("store.fsyncs", f (Platform.total_fsyncs platform));
    ("store.wal_kb", store Store.total_wal_bytes_written /. 1024.0);
    ("store.wal_records", store Store.total_wal_records_written);
    ("store.compactions", store Store.total_compactions);
  ]

(* Runs [f], the measured part of a traced iteration, charging GC pauses
   to [tr]. Returns [f]'s result, its host time, the words it allocated,
   the per-name span totals, and the runtime's per-layer metrics as a
   function of the messages handled. *)
let traced_section tr f =
  let g0 = Gc.quick_stat () in
  let a0 = alloc_words () in
  Tracer.start_gc tr;
  let r0 = Clock.now_ns () in
  let x = f () in
  let r1 = Clock.now_ns () in
  Tracer.stop_gc ();
  let alloc = alloc_words () -. a0 in
  let g1 = Gc.quick_stat () in
  let spans = Tracer.finish ~from_ns:r0 ~to_ns:r1 tr in
  let runtime ~msgs =
    let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
    [
      ("gc.minor_s", Tracer.self_s spans Tracer.gc_minor);
      ("gc.major_s", Tracer.self_s spans Tracer.gc_major);
      ("gc.minor_words_per_msg", minor /. Float.max 1.0 msgs);
      ("gc.promoted_share", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. Float.max 1.0 minor);
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("gc.lost_events", float_of_int tr.Tracer.lost_events);
      ("trace.spans", float_of_int (Tracer.n_spans tr));
    ]
  in
  (x, r1 - r0, alloc, spans, runtime)

let slice = Simtime.of_ms 100

let fig4_traced kind ~scale ~seed =
  let cfg = fig4_config scale kind ~seed in
  let tr = Tracer.create () in
  let wrap ~label (app : App.t) =
    let body = Tracer.intern tr ("handler." ^ label) and map = Tracer.intern tr "map" in
    let wrap_handler (h : App.handler) =
      {
        h with
        App.map = (fun m -> Tracer.within tr map (fun () -> h.App.map m));
        rcv = (fun ctx m -> Tracer.within tr body (fun () -> h.App.rcv ctx m));
      }
    in
    { app with App.handlers = List.map wrap_handler app.App.handlers }
  in
  let engine, platform = build_wrapped cfg ~wrap in
  let slice_id = Tracer.intern tr "engine.slice" in
  let slices = ref [] and pending_max = ref 0 in
  let run_until horizon =
    while Simtime.(Engine.now engine < horizon) do
      let next = Simtime.min horizon (Simtime.add (Engine.now engine) slice) in
      let s0 = Clock.now_ns () in
      Tracer.within tr slice_id (fun () -> Engine.run_until engine next);
      slices := Clock.secs (Clock.now_ns () - s0) *. 1000.0 :: !slices;
      pending_max := max !pending_max (Engine.pending engine);
      Tracer.poll ()
    done
  in
  let warmup_ns = ref 0 in
  let (window, tail, claims), run_ns, alloc, spans, runtime =
    traced_section tr (fun () ->
        (* [Scenario.run], then the measurements. *)
        let w0 = Clock.now_ns () in
        run_until cfg.warmup;
        warmup_ns := Clock.now_ns () - w0;
        if cfg.adversarial_pin then begin
          adversarial_placement platform;
          run_until (Simtime.add cfg.warmup (Simtime.of_sec 1.0))
        end;
        Channels.reset_accounting (Platform.channels platform);
        run_until (Simtime.add (Engine.now engine) cfg.duration);
        let window = measure_window platform in
        let tail =
          if has_tail kind then Some (run_tail ~run_until engine platform cfg) else None
        in
        (window, tail, fig4_claims kind cfg platform ~window ~tail))
  in
  let self = Tracer.self_s spans and calls = Tracer.calls spans in
  let events = float_of_int (Engine.events_executed engine) in
  let te_s = self "handler.te" and te_calls = calls "handler.te" in
  let layers =
    [
      ("engine.events", events);
      ("engine.ns_per_event", float_of_int run_ns /. Float.max 1.0 events);
      ("engine.warmup_share", float_of_int !warmup_ns /. float_of_int run_ns);
      ("engine.pending_max", float_of_int !pending_max);
      ("engine.slice_ms_p50", median !slices);
      ("engine.slice_ms_p99", percentile 0.99 !slices);
      ("handler.te.s", te_s);
      ("handler.te.calls", te_calls);
      ("handler.te.us_per_call", te_s *. 1e6 /. Float.max 1.0 te_calls);
      ("handler.driver.s", self "handler.driver");
      ("handler.driver.calls", calls "handler.driver");
      ("map.s", self "map");
      ("map.calls", calls "map");
      ("dispatch.self_s", self "engine.slice");
      ("channels.inter_hive_kb", window.w_summary.Summary.s_total_inter_kb);
    ]
    @ platform_layers platform
    @ runtime ~msgs:(float_of_int (Platform.total_processed platform))
  in
  (fig4_iteration ~engine ~platform ~run_ns ~alloc ~window ~tail ~claims ~layers, tr)

(* --- nemesis-lin -------------------------------------------------------- *)

let nemesis_cfgs ~scale ~first_seed =
  List.init (nemesis_seeds scale) (fun i ->
      let seed = first_seed + i in
      let cfg =
        Runner.make_cfg ~ticks:(nemesis_ticks scale) ~lin:true ~seed nemesis_profile
      in
      let ops =
        Nemesis.generate ~rng:(Rng.create seed) ~profile:nemesis_profile
          ~n_hives:cfg.Runner.r_n_hives ~ticks:cfg.Runner.r_ticks
      in
      (cfg, ops))

(* Per seed: its verdict and [Runner] stats, plus the [Summary] of its
   platform (inter-hive bandwidth, locality, latency). *)
type seed_result = {
  sr_outcome : Runner.outcome;
  sr_summary : Summary.t;
  sr_platform : Platform.t;
  sr_engine : Engine.t;
}

let run_nemesis_seed ?(observe = fun _ _ -> ()) (cfg, ops) =
  let captured = ref None in
  let observe e p =
    captured := Some (e, p);
    observe e p
  in
  let outcome = Runner.execute ~observe cfg ops in
  let engine, platform = Option.get !captured in
  let ch = Platform.channels platform in
  {
    sr_outcome = outcome;
    sr_summary = Summary.measure (Channels.matrix ch) (Channels.bandwidth ch) platform;
    sr_platform = platform;
    sr_engine = engine;
  }

let nemesis_iteration ~run_ns ~alloc results ~layers =
  let b = Buffer.create 4096 in
  let msgs = ref 0 and failed = ref 0 in
  List.iteri
    (fun i r ->
      Printf.bprintf b "seed %d\n" i;
      (match r.sr_outcome with
      | Runner.Pass s ->
        msgs := !msgs + s.Runner.s_processed;
        Printf.bprintf b "PASS %d %d %d %d %d %d %d %d %d\n" s.Runner.s_events
          s.s_processed s.s_migrations s.s_merges s.s_dropped s.s_retransmits s.s_puts
          s.s_lin_ops s.s_lin_checked
      | Runner.Fail v ->
        incr failed;
        Printf.bprintf b "FAIL %s %s\n" v.Beehive_check.Monitor.v_monitor
          v.Beehive_check.Monitor.v_detail);
      add_summary b r.sr_summary)
    results;
  let med f = median (List.map (fun r -> f r.sr_summary) results) in
  {
    run_ns;
    msgs = !msgs;
    alloc_words = alloc;
    attempted = List.length results;
    failed = !failed;
    sim_kbps = med (fun s -> s.Summary.s_mean_kbps);
    sim_locality = med (fun s -> s.Summary.s_locality);
    sim_p50_us = med (fun s -> float_of_int s.Summary.s_p50_us);
    sim_p99_us = med (fun s -> float_of_int s.Summary.s_p99_us);
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    claims = [ ("every nemesis seed passes", !failed = 0) ];
    layers;
  }

let nemesis_untraced ~scale ~first_seed =
  let seeds = nemesis_cfgs ~scale ~first_seed in
  let t1 = Clock.now_ns () in
  let a0 = alloc_words () in
  let results = List.map run_nemesis_seed seeds in
  let t2 = Clock.now_ns () in
  nemesis_iteration ~run_ns:(t2 - t1) ~alloc:(alloc_words () -. a0)
    results ~layers:[]

let nemesis_traced ~scale ~first_seed =
  let tr = Tracer.create () in
  let seeds = nemesis_cfgs ~scale ~first_seed in
  let seed_id = Tracer.intern tr "runner.seed" and final_id = Tracer.intern tr "lin.final" in
  let seed_ms = ref [] in
  let results, run_ns, alloc, spans, runtime =
    traced_section tr (fun () ->
        List.map
          (fun seed ->
            (* Last simulated activity seen from outside: an emission or a
               group-commit fsync. From there to [execute] returning is the
               final monitors, the linearizability search among them. *)
            let last = ref 0 in
            let observe _ p =
              Platform.on_emit p (fun ~parent:_ ~child:_ ~emitter:_ -> last := Clock.now_ns ());
              Platform.on_fsync p (fun _ -> last := Clock.now_ns ())
            in
            let s0 = Clock.now_ns () in
            let r =
              Tracer.within tr seed_id (fun () ->
                  let r = run_nemesis_seed ~observe seed in
                  Tracer.record tr final_id ~start:!last ~stop:(Clock.now_ns ());
                  r)
            in
            seed_ms := Clock.secs (Clock.now_ns () - s0) *. 1000.0 :: !seed_ms;
            Tracer.poll ();
            r)
          seeds)
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 results in
  let gauge g =
    sum (fun r ->
        float_of_int (Option.value ~default:0 (Stats.gauge (Platform.stats r.sr_platform) g)))
  in
  let events = sum (fun r -> float_of_int (Engine.events_executed r.sr_engine)) in
  let per_seed = List.map (fun r -> platform_layers r.sr_platform) results in
  let platform_sums =
    List.fold_left (List.map2 (fun (k, a) (_, b) -> (k, a +. b))) (List.hd per_seed)
      (List.tl per_seed)
  in
  let layers =
    [
      ("engine.events", events);
      ("engine.ns_per_event", float_of_int run_ns /. Float.max 1.0 events);
      ("channels.inter_hive_kb", sum (fun r -> r.sr_summary.Summary.s_total_inter_kb));
      ("lin.final_s", Tracer.total_s spans "lin.final");
      ("lin.histories", gauge "lin.histories_checked");
      ("lin.ops", gauge "lin.ops_recorded");
      ("lin.unknown", gauge "lin.unknown");
      ("runner.seed_ms_p50", median !seed_ms);
    ]
    @ platform_sums
    @ runtime ~msgs:(sum (fun r -> float_of_int (Platform.total_processed r.sr_platform)))
  in
  (nemesis_iteration ~run_ns ~alloc results ~layers, tr)

(* --- Entry points ------------------------------------------------------- *)

(* Host time of one set-up alone, its result dropped. *)
let time_setup kind ~scale ~seed ~first_seed =
  let t0 = Clock.now_ns () in
  (match kind with
  | Nemesis_lin -> ignore (Sys.opaque_identity (nemesis_cfgs ~scale ~first_seed))
  | Fig4_naive | Fig4_durable ->
    ignore (Sys.opaque_identity (Scenario.build (fig4_config scale kind ~seed))));
  Clock.now_ns () - t0

let run_untraced kind ~scale ~seed ~first_seed =
  match kind with
  | Nemesis_lin -> nemesis_untraced ~scale ~first_seed
  | Fig4_naive | Fig4_durable -> fig4_untraced kind ~scale ~seed

let run_traced kind ~scale ~seed ~first_seed =
  match kind with
  | Nemesis_lin -> nemesis_traced ~scale ~first_seed
  | Fig4_naive | Fig4_durable -> fig4_traced kind ~scale ~seed
