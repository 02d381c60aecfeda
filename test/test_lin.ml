(* The linearizability checker: verdicts on hand-written histories
   (known-good and known-bad register/KV shapes, pending ops, budget
   exhaustion, per-key partitioning), the unobservable-Info pre-pass
   (hand-written cases plus a property against a brute-force oracle),
   the stale-read self-test (the deliberately re-introduced bug must be
   caught, shrunk and replayed, and its printed replay command must
   re-arm the lin workload), and client-op recording across a
   mid-flight migration. *)

open Helpers
module H = Beehive_check.History
module Lin = Beehive_check.Lin
module Check = Beehive_check.Check
module Script = Beehive_check.Script
module Monitor = Beehive_check.Monitor

let us = Simtime.of_us

(* Hand-written histories: build op records directly so the invocation /
   return intervals are exact. *)
let mk ?(client = 0) id call ~inv ~ret status =
  {
    H.op_id = id;
    op_client = client;
    op_call = call;
    op_invoked = us inv;
    op_returned = Some (us ret);
    op_status = status;
  }

let pending ?(client = 0) id call ~inv =
  {
    H.op_id = id;
    op_client = client;
    op_call = call;
    op_invoked = us inv;
    op_returned = None;
    op_status = H.Info;
  }

let ok outcome = H.Ok outcome

let tag = function
  | Lin.Linearizable -> "linearizable"
  | Lin.Non_linearizable _ -> "non-linearizable"
  | Lin.Unknown _ -> "unknown"

let expect name expected ops =
  let v = Lin.check ops in
  if not (String.equal (tag v) expected) then
    Alcotest.fail
      (Format.asprintf "%s: expected %s, got %a" name expected Lin.pp_verdict v)

(* --- Known-linearizable histories ------------------------------------ *)

let test_sequential_register () =
  expect "sequential put/get/del/get" "linearizable"
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 (H.Get "x") ~inv:20 ~ret:30 (ok (H.Got (Some 1)));
      mk 2 (H.Del "x") ~inv:40 ~ret:50 (ok H.Done);
      mk 3 (H.Get "x") ~inv:60 ~ret:70 (ok (H.Got None));
    ]

(* A read overlapping a put may order before it; a later read must see
   the write. *)
let test_concurrent_put_get () =
  expect "overlapping put/get" "linearizable"
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:100 (ok H.Done);
      mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got None));
      mk 2 ~client:1 (H.Get "x") ~inv:150 ~ret:160 (ok (H.Got (Some 1)));
    ]

(* An operation that never returned may be linearized anywhere after its
   invocation — here it must take effect between the two reads. *)
let test_pending_op_took_effect () =
  expect "pending put observed by a later read" "linearizable"
    [
      pending 0 (H.Put ("x", 1)) ~inv:0;
      mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got None));
      mk 2 ~client:1 (H.Get "x") ~inv:30 ~ret:40 (ok (H.Got (Some 1)));
    ]

(* ...or never have executed at all. *)
let test_pending_op_never_happened () =
  expect "pending put that never landed" "linearizable"
    [
      pending 0 (H.Put ("x", 1)) ~inv:0;
      mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got None));
    ]

(* Fail ops definitely did not execute and must not constrain the order. *)
let test_failed_op_excluded () =
  expect "failed put invisible" "linearizable"
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 ~client:1 (H.Put ("x", 2)) ~inv:20 ~ret:30 H.Fail;
      mk 2 (H.Get "x") ~inv:40 ~ret:50 (ok (H.Got (Some 1)));
    ]

(* --- Known-non-linearizable histories -------------------------------- *)

(* The stale read: a value overwritten strictly before the read was
   invoked resurfaces. The grounded witness must keep both writers. *)
let test_stale_read () =
  let ops =
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 (H.Put ("x", 2)) ~inv:20 ~ret:30 (ok H.Done);
      mk 2 ~client:1 (H.Get "x") ~inv:40 ~ret:50 (ok (H.Got (Some 1)));
    ]
  in
  match Lin.check ops with
  | Lin.Non_linearizable w ->
    Alcotest.(check int) "witness keeps both puts and the read" 3 (List.length w)
  | v -> Alcotest.fail (Format.asprintf "stale read: got %a" Lin.pp_verdict v)

(* Two sequential swaps both claiming the same pre-image: the second
   transaction lost the first one's update. *)
let test_lost_update () =
  expect "lost update across txns" "non-linearizable"
    [
      mk 0 (H.Txn [ ("x", 1) ]) ~inv:0 ~ret:10 (ok (H.Old [ None ]));
      mk 1 ~client:1 (H.Txn [ ("x", 2) ]) ~inv:20 ~ret:30 (ok (H.Old [ None ]));
    ]

(* A read observing a value whose write was invoked only after the read
   returned: no linearization order can satisfy real time. *)
let test_circular_real_time () =
  expect "read from the future" "non-linearizable"
    [
      mk 0 (H.Get "x") ~inv:0 ~ret:10 (ok (H.Got (Some 1)));
      mk 1 ~client:1 (H.Put ("x", 1)) ~inv:20 ~ret:30 (ok H.Done);
    ]

(* A multi-key transaction is atomic: observing its write to one key but
   not the other is a violation, and the txn welds both keys into one
   component. *)
let test_txn_atomicity () =
  let ops =
    [
      mk 0 (H.Txn [ ("x", 1); ("y", 1) ]) ~inv:0 ~ret:10 (ok (H.Old [ None; None ]));
      mk 1 ~client:1 (H.Get "x") ~inv:20 ~ret:30 (ok (H.Got (Some 1)));
      mk 2 ~client:1 (H.Get "y") ~inv:40 ~ret:50 (ok (H.Got None));
    ]
  in
  let r = Lin.check_report ops in
  Alcotest.(check int) "txn merges x and y into one component" 1 r.Lin.r_components;
  match r.Lin.r_verdict with
  | Lin.Non_linearizable _ -> ()
  | v -> Alcotest.fail (Format.asprintf "txn atomicity: got %a" Lin.pp_verdict v)

(* --- P-compositionality ---------------------------------------------- *)

(* Independent keys check as independent components, and a violation on
   one key never implicates the other's operations. *)
let test_per_key_partitioning () =
  let ops =
    [
      mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
      mk 1 (H.Get "x") ~inv:20 ~ret:30 (ok (H.Got (Some 1)));
      mk 2 ~client:1 (H.Put ("y", 5)) ~inv:0 ~ret:10 (ok H.Done);
      mk 3 ~client:1 (H.Get "y") ~inv:20 ~ret:30 (ok (H.Got (Some 5)));
    ]
  in
  let r = Lin.check_report ops in
  Alcotest.(check int) "two components" 2 r.Lin.r_components;
  (match r.Lin.r_verdict with
  | Lin.Linearizable -> ()
  | v -> Alcotest.fail (Format.asprintf "partitioning: got %a" Lin.pp_verdict v));
  (* Break only y: the witness must mention no x operation. *)
  let broken =
    ops @ [ mk 4 ~client:1 (H.Get "y") ~inv:40 ~ret:50 (ok (H.Got None)) ]
  in
  match Lin.check broken with
  | Lin.Non_linearizable w ->
    List.iter
      (fun (op : H.op) ->
        Alcotest.(check (list string)) "witness confined to y" [ "y" ]
          (H.keys op.H.op_call))
      w
  | v -> Alcotest.fail (Format.asprintf "broken y: got %a" Lin.pp_verdict v)

(* --- Budget ------------------------------------------------------------ *)

(* Exhausting the configuration budget degrades to Unknown — never to a
   false verdict. *)
let test_budget_exhaustion_is_unknown () =
  let ops =
    List.init 6 (fun i ->
        mk i ~client:i (H.Put ("x", i)) ~inv:0 ~ret:100 (ok H.Done))
    @ [ mk 6 ~client:6 (H.Get "x") ~inv:0 ~ret:100 (ok (H.Got (Some 3))) ]
  in
  (match Lin.check ~max_steps:1 ops with
  | Lin.Unknown _ -> ()
  | v -> Alcotest.fail (Format.asprintf "budget: got %a" Lin.pp_verdict v));
  (* The same history decides cleanly with the default budget. *)
  expect "decidable with full budget" "linearizable" ops

(* --- The unobservable-Info pre-pass -------------------------------------- *)

let ids ops = List.map (fun (o : H.op) -> o.H.op_id) ops

(* A pending put whose value a completed read reports is observed: the
   pre-pass must keep it, or the read would have no writer. *)
let test_observed_info_put_kept () =
  let r =
    Lin.check_report
      [
        pending 0 (H.Put ("x", 1)) ~inv:0;
        mk 1 ~client:1 (H.Get "x") ~inv:10 ~ret:20 (ok (H.Got (Some 1)));
      ]
  in
  Alcotest.(check int) "nothing pruned" 0 r.Lin.r_pruned;
  match r.Lin.r_verdict with
  | Lin.Linearizable -> ()
  | v -> Alcotest.fail (Format.asprintf "observed info put: got %a" Lin.pp_verdict v)

(* Likewise a pending delete whose absence a [get -> nil] reports: it is
   the only op that can explain the nil after the completed put. *)
let test_observed_info_del_kept () =
  let r =
    Lin.check_report
      [
        mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
        pending 1 ~client:1 (H.Del "x") ~inv:20;
        mk 2 (H.Get "x") ~inv:30 ~ret:40 (ok (H.Got None));
      ]
  in
  Alcotest.(check int) "nothing pruned" 0 r.Lin.r_pruned;
  match r.Lin.r_verdict with
  | Lin.Linearizable -> ()
  | v -> Alcotest.fail (Format.asprintf "observed info del: got %a" Lin.pp_verdict v)

(* Pruning unobservable pending ops must not hide a real violation, and
   the witness is drawn from what the search saw, so it names none of
   the dropped ops. *)
let test_stale_read_with_prunable_info () =
  let droppable =
    [
      pending 10 ~client:2 (H.Put ("x", 7)) ~inv:5;
      pending 11 ~client:3 (H.Get "x") ~inv:15;
      pending 12 ~client:2 (H.Txn [ ("x", 8); ("y", 9) ]) ~inv:25;
    ]
  in
  let r =
    Lin.check_report
      ([
         mk 0 (H.Put ("x", 1)) ~inv:0 ~ret:10 (ok H.Done);
         mk 1 (H.Put ("x", 2)) ~inv:20 ~ret:30 (ok H.Done);
         mk 2 ~client:1 (H.Get "x") ~inv:40 ~ret:50 (ok (H.Got (Some 1)));
       ]
      @ droppable)
  in
  Alcotest.(check int) "every unobserved pending op pruned" 3 r.Lin.r_pruned;
  match r.Lin.r_verdict with
  | Lin.Non_linearizable w ->
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "witness omits dropped op %d" id)
          false
          (List.mem id (ids w)))
      (ids droppable)
  | v -> Alcotest.fail (Format.asprintf "stale read + info: got %a" Lin.pp_verdict v)

(* Brute-force oracle: every subset of the Info ops, every order of the
   chosen ops plus all Ok ops that respects real time, replayed against
   a fresh copy of the sequential KV model — no pruning, no memo. *)
let model_apply state = function
  | H.Get k -> (H.Got (List.assoc_opt k state), state)
  | H.Put (k, v) -> (H.Done, (k, v) :: List.remove_assoc k state)
  | H.Del k -> (H.Done, List.remove_assoc k state)
  | H.Txn kvs ->
    ( H.Old (List.map (fun (k, _) -> List.assoc_opt k state) kvs),
      List.fold_left (fun st (k, v) -> (k, v) :: List.remove_assoc k st) state kvs )

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    s @ List.map (fun t -> x :: t) s

let rec orders = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun (x : H.op) ->
        List.map (fun p -> x :: p)
          (orders (List.filter (fun (y : H.op) -> y.H.op_id <> x.H.op_id) l)))
      l

(* An op may not be ordered before one that returned before it was
   invoked. *)
let rec respects_real_time = function
  | [] -> true
  | (a : H.op) :: later ->
    List.for_all
      (fun (b : H.op) ->
        match b.H.op_returned with
        | Some r -> Simtime.(a.H.op_invoked <= r)
        | None -> true)
      later
    && respects_real_time later

let legal order =
  let rec go state = function
    | [] -> true
    | (o : H.op) :: rest -> (
      let outcome, state' = model_apply state o.H.op_call in
      match o.H.op_status with
      | H.Ok expected -> expected = outcome && go state' rest
      | H.Info | H.Fail -> go state' rest)
  in
  go [] order

let oracle_linearizable ops =
  let info, completed = List.partition (fun (o : H.op) -> o.H.op_status = H.Info) ops in
  List.exists
    (fun chosen ->
      List.exists
        (fun order -> respects_real_time order && legal order)
        (orders (completed @ chosen)))
    (subsets info)

(* Random histories of at most 7 ops over 2 keys. Outcomes come from
   replaying the calls in invocation order (a pending op takes effect
   or not by coin flip), then one outcome in five is corrupted, so both
   verdicts and both kinds of pending op — observed and not — occur. *)
let gen_history =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b" ] and value = int_range 1 3 in
  let call =
    frequency
      [
        (3, map (fun k -> H.Get k) key);
        (3, map2 (fun k v -> H.Put (k, v)) key value);
        (2, map (fun k -> H.Del k) key);
        (1, map2 (fun k v -> H.Txn [ (k, v) ]) key value);
        (1, map2 (fun v w -> H.Txn [ ("a", v); ("b", w) ]) value value);
      ]
  in
  (* Invocations are spaced by a random gap, so histories mix
     overlapping ops with ones strictly ordered in real time. *)
  let spec = quad call (int_range 0 5) (int_range 1 8) (pair bool (int_range 0 4)) in
  let corrupt = function
    | H.Got None -> H.Got (Some 1)
    | H.Got (Some n) -> H.Got (Some ((n mod 3) + 1))
    | H.Old (None :: rest) -> H.Old (Some 1 :: rest)
    | H.Old (Some _ :: rest) -> H.Old (None :: rest)
    | o -> o
  in
  list_size (int_range 1 7) spec >|= fun specs ->
  let state = ref [] and inv = ref 0 in
  List.mapi
    (fun id (call, gap, dur, (is_info, noise)) ->
      inv := !inv + gap;
      let inv = !inv in
      let outcome, state' = model_apply !state call in
      if is_info then begin
        if noise mod 2 = 0 then state := state';
        pending id ~client:id call ~inv
      end
      else begin
        state := state';
        let outcome = if noise = 0 then corrupt outcome else outcome in
        mk id ~client:id call ~inv ~ret:(inv + dur) (ok outcome)
      end)
    specs

let arb_history = QCheck.make ~print:(Format.asprintf "%a" H.pp_ops) gen_history

let prop_prepass_matches_oracle =
  QCheck.Test.make ~name:"verdict matches the brute-force oracle" ~count:3000
    arb_history (fun ops ->
      match (Lin.check ops, oracle_linearizable ops) with
      | Lin.Linearizable, true | Lin.Non_linearizable _, false -> true
      | v, expected ->
        QCheck.Test.fail_reportf "checker: %a; oracle: %s" Lin.pp_verdict v
          (if expected then "linearizable" else "non-linearizable"))

(* Guards the property against a generator drift that would make it
   vacuous: a fixed sample must hold both verdicts, and histories where
   the pre-pass both drops and keeps pending ops. *)
let test_oracle_sample_is_mixed () =
  let sample = QCheck.Gen.generate ~rand:(Random.State.make [| 12 |]) ~n:300 gen_history in
  let runs =
    List.map
      (fun ops ->
        let n_info = List.length (List.filter (fun (o : H.op) -> o.H.op_status = H.Info) ops) in
        (Lin.check_report ops, n_info))
      sample
  in
  let count p = List.length (List.filter p runs) in
  let lin = count (fun (r, _) -> r.Lin.r_verdict = Lin.Linearizable) in
  let pruned = count (fun (r, _) -> r.Lin.r_pruned > 0) in
  let kept_info = count (fun (r, n_info) -> r.Lin.r_pruned < n_info) in
  Alcotest.(check bool) (Printf.sprintf "both verdicts (%d/300 linearizable)" lin) true
    (lin >= 30 && lin <= 270);
  Alcotest.(check bool) (Printf.sprintf "%d histories prune" pruned) true (pruned >= 30);
  Alcotest.(check bool)
    (Printf.sprintf "%d histories keep an observed pending op" kept_info)
    true (kept_info >= 10)

(* --- Self-test: the harness catches the stale-read bug ----------------- *)

(* Serving reads from a freshly-migrated bee's pre-transfer snapshot (the
   injected historical bug) must be caught by the lin monitor within 200
   seeds of the migration profile, shrink to a handful of script events,
   and replay deterministically. *)
let test_catches_stale_read_bug () =
  Beehive_core.Platform.debug_stale_reads := true;
  Fun.protect
    ~finally:(fun () -> Beehive_core.Platform.debug_stale_reads := false)
    (fun () ->
      let rec sweep first_seed =
        if first_seed >= 200 then Alcotest.fail "bug not caught within 200 seeds"
        else
          let report = Check.run ~lin:true ~first_seed ~seeds:10 Script.Migration in
          match report.Check.rp_failures with
          | [] -> sweep (first_seed + 10)
          | f :: _ -> f
      in
      let f = sweep 0 in
      Alcotest.(check string) "violated the linearizability monitor"
        "linearizability" f.Check.f_violation.Monitor.v_monitor;
      Alcotest.(check bool)
        "shrunk to at most 6 events" true
        (List.length f.Check.f_shrunk <= 6);
      Alcotest.(check bool)
        "shrunk trace replays deterministically" true f.Check.f_replays;
      (* The printed replay command must re-arm the lin workload, or it
         would replay the failing seed without the checker and pass. *)
      let printed = Check.failure_to_string f in
      let has flag =
        let n = String.length flag in
        let rec at i =
          i + n <= String.length printed
          && (String.equal (String.sub printed i n) flag || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "replay command carries --lin" true (has " --lin"))

(* --- Recording across a mid-flight migration --------------------------- *)

(* A minimal copy of the runner's lin workload wiring: ops ack at the
   owning hive's next group commit, so an Ok entry is a durable write. *)
type Message.payload += Lop of { l_id : int; l_call : H.call }

let k_lop = "test.lin.op"

let lin_test_app acks =
  let on_op =
    App.handler ~kind:k_lop
      ~map:(fun msg ->
        match msg.Message.payload with
        | Lop { l_call; _ } ->
          Mapping.with_keys (List.map (fun k -> ("reg", k)) (H.keys l_call))
        | _ -> Mapping.Drop)
      (fun ctx msg ->
        match msg.Message.payload with
        | Lop { l_id; l_call } ->
          let read k =
            match Context.get ctx ~dict:"reg" ~key:k with
            | Some (Value.V_int n) -> Some n
            | _ -> None
          in
          let outcome =
            match l_call with
            | H.Get k -> H.Got (read k)
            | H.Put (k, v) ->
              Context.set ctx ~dict:"reg" ~key:k (Value.V_int v);
              H.Done
            | H.Del k ->
              Context.del ctx ~dict:"reg" ~key:k;
              H.Done
            | H.Txn writes ->
              let old = List.map (fun (k, _) -> read k) writes in
              List.iter
                (fun (k, v) -> Context.set ctx ~dict:"reg" ~key:k (Value.V_int v))
                writes;
              H.Old old
          in
          let hive = Context.hive_id ctx in
          let q =
            match Hashtbl.find_opt acks hive with
            | Some q -> q
            | None ->
              let q = ref [] in
              Hashtbl.add acks hive q;
              q
          in
          q := (l_id, outcome) :: !q
        | _ -> ())
  in
  App.create ~name:"test.lin" ~dicts:[ "reg" ] [ on_op ]

(* Migrating the owner bee with a burst of transactions in flight: every
   invoke must still complete cleanly (committed, never silently
   dropped), and the resulting history must be linearizable. *)
let test_migration_mid_flight_recording () =
  let recorder = H.create () in
  let acks = Hashtbl.create 8 in
  let engine, platform = durable_platform ~apps:[ lin_test_app acks ] () in
  Platform.on_fsync platform (fun hive ->
      match Hashtbl.find_opt acks hive with
      | None -> ()
      | Some q ->
        let landed = List.rev !q in
        q := [];
        List.iter
          (fun (id, outcome) ->
            H.complete_ok recorder ~id ~now:(Engine.now engine) outcome)
          landed);
  let issue ~client call =
    let id = H.invoke recorder ~client ~now:(Engine.now engine) call in
    Platform.inject platform
      ~from:(Channels.Hive (client mod 4))
      ~kind:k_lop
      (Lop { l_id = id; l_call = call })
  in
  (* Seed the keys so the owner bee exists... *)
  issue ~client:0 (H.Put ("x0", 1));
  issue ~client:1 (H.Put ("x1", 2));
  run_for engine 0.005;
  let owner =
    match Platform.find_owner platform ~app:"test.lin" (Cell.cell "reg" "x0") with
    | Some b -> b
    | None -> Alcotest.fail "no owner for x0"
  in
  let hive = (Option.get (Platform.bee_view platform owner)).Platform.view_hive in
  (* ...then migrate it away with transactions still in flight on both
     sides of the move. *)
  for i = 0 to 9 do
    issue ~client:(i mod 3) (H.Txn [ ("x0", 100 + i); ("x1", 200 + i) ])
  done;
  Alcotest.(check bool) "migration accepted" true
    (Platform.migrate_bee platform ~bee:owner ~to_hive:((hive + 1) mod 4)
       ~reason:"test");
  for i = 10 to 19 do
    issue ~client:(i mod 3) (H.Txn [ ("x0", 100 + i); ("x1", 200 + i) ])
  done;
  drain engine;
  Platform.flush_durability platform;
  drain engine;
  Alcotest.(check bool) "the bee really moved" true
    (List.length (Platform.migrations platform) >= 1);
  Alcotest.(check int) "every invoke acknowledged" 0 (H.n_open recorder);
  List.iter
    (fun (op : H.op) ->
      match op.H.op_status with
      | H.Ok _ -> ()
      | H.Fail | H.Info ->
        Alcotest.fail (Format.asprintf "op not cleanly completed: %a" H.pp_op op))
    (H.ops recorder);
  match Lin.check (H.ops recorder) with
  | Lin.Linearizable -> ()
  | v -> Alcotest.fail (Format.asprintf "mid-migration history: %a" Lin.pp_verdict v)

let suite =
  [
    ( "lin",
      [
        Alcotest.test_case "sequential register is linearizable" `Quick
          test_sequential_register;
        Alcotest.test_case "overlapping put/get is linearizable" `Quick
          test_concurrent_put_get;
        Alcotest.test_case "pending op may take effect" `Quick
          test_pending_op_took_effect;
        Alcotest.test_case "pending op may never happen" `Quick
          test_pending_op_never_happened;
        Alcotest.test_case "failed op is excluded" `Quick test_failed_op_excluded;
        Alcotest.test_case "stale read is non-linearizable" `Quick test_stale_read;
        Alcotest.test_case "lost update is non-linearizable" `Quick test_lost_update;
        Alcotest.test_case "circular real-time order is non-linearizable" `Quick
          test_circular_real_time;
        Alcotest.test_case "txn atomicity spans its keys" `Quick test_txn_atomicity;
        Alcotest.test_case "per-key partitioning isolates components" `Quick
          test_per_key_partitioning;
        Alcotest.test_case "budget exhaustion degrades to unknown" `Quick
          test_budget_exhaustion_is_unknown;
        Alcotest.test_case "pre-pass keeps an observed pending put" `Quick
          test_observed_info_put_kept;
        Alcotest.test_case "pre-pass keeps an observed pending del" `Quick
          test_observed_info_del_kept;
        Alcotest.test_case "stale read survives pruning, witness unpruned" `Quick
          test_stale_read_with_prunable_info;
        QCheck_alcotest.to_alcotest prop_prepass_matches_oracle;
        Alcotest.test_case "oracle sample mixes verdicts and pruning" `Quick
          test_oracle_sample_is_mixed;
        Alcotest.test_case "catches injected stale reads" `Quick
          test_catches_stale_read_bug;
        Alcotest.test_case "records cleanly across a mid-flight migration" `Quick
          test_migration_mid_flight_recording;
      ] );
  ]
