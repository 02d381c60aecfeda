(* Smoke check of the benchmark command at [Scenario.quick_config] scale:
   for every workload, the untraced run must emit every end-to-end
   metric BENCHMARK.json names and the traced run every per-layer one,
   both must pass their correctness gates, and the traced run's
   simulation digest must equal the untraced run's. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The text of one top-level entry of BENCHMARK.json: from [key] to the
   next top-level key. *)
let section ~key json =
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf "%S" key)) json 0 in
  let stop =
    try Str.search_forward (Str.regexp "^  \"[a-z_]+\"") json (start + 1)
    with Not_found -> String.length json
  in
  String.sub json start (stop - start)

(* Every match of [re] in [s], as the list of its [groups] groups. *)
let matches ~groups re s =
  let rec all pos acc =
    match Str.search_forward re s pos with
    | _ ->
      let g = List.init groups (fun i -> Str.matched_group (i + 1) s) in
      all (Str.match_end ()) (g :: acc)
    | exception Not_found -> List.rev acc
  in
  all 0 []

let names_in ~key json =
  List.concat (matches ~groups:1 (Str.regexp "\"name\": *\"\\([^\"]+\\)\"") (section ~key json))

(* [name; unit] of every metric of one metric list. *)
let metrics_in ~key json =
  matches ~groups:2
    (Str.regexp "\"name\": *\"\\([^\"]+\\)\", *\"unit\": *\"\\([^\"]+\\)\"")
    (section ~key json)

let bench = lazy (read_file "../BENCHMARK.json")

(* Runs main.exe and returns its exit code and standard output lines.
   The traced run's runtime_events file is sized for 128 domains; rings
   of 2^10 words keep it at 3 MiB, within any file-size limit the test
   may run under. *)
let run_main args =
  let cmd = "OCAMLRUNPARAM=e=10 " ^ Filename.quote_command "./main.exe" args in
  let ic = Unix.open_process_in cmd in
  let lines = In_channel.input_lines ic in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1 in
  (code, lines)

let digest_of lines =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | "workload" :: _ :: rest -> (
        match List.rev rest with d :: "digest" :: _ -> Some d | _ -> None)
      | _ -> None)
    lines

let check_workload name () =
  let json = Lazy.force bench in
  let run trace =
    let code, lines =
      run_main
        [ "--workload"; name; "--scale"; "quick"; "--seed"; "3"; "--first-seed"; "0";
          "--seconds"; "0.1"; "--trace"; trace ]
    in
    Alcotest.(check int) (name ^ " trace " ^ trace ^ " exit code") 0 code;
    let result = List.nth lines (List.length lines - 1) in
    Alcotest.(check bool) "correct" true (contains result "\"correct\": true");
    (result, digest_of lines)
  in
  let untraced, d0 = run "0" and traced, d1 = run "1" in
  List.iter
    (fun (key, result) ->
      List.iter
        (fun m ->
          let name_, unit = (List.nth m 0, List.nth m 1) in
          let emitted =
            Str.regexp
              (Str.quote (Printf.sprintf "%S: {\"value\": " name_)
              ^ "[^,]*" ^ Str.quote (Printf.sprintf ", \"unit\": %S}" unit))
          in
          match Str.search_forward emitted result 0 with
          | _ -> ()
          | exception Not_found ->
            Alcotest.failf "%s: %s metric %s in %s not emitted" name key name_ unit)
        (metrics_in ~key json))
    [ ("end_to_end", untraced); ("per_layer", traced) ];
  Alcotest.(check (option string)) "traced digest = untraced digest" d0 d1

let () =
  let workloads = names_in ~key:"workloads" (read_file "../BENCHMARK.json") in
  Alcotest.run "perfbench"
    [
      ( "smoke",
        List.map (fun w -> Alcotest.test_case w `Quick (check_workload w)) workloads );
    ]
