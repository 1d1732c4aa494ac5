(* Tests for the domain-parallel job runner: the worker pool, the
   experiment registry, and the byte-identity of parallel vs sequential
   execution of registry jobs. *)

(* --- Pool ---------------------------------------------------------------- *)

(* The pool is a drop-in parallel map: same results, same order, for any
   worker count. *)
let prop_pool_matches_map =
  QCheck.Test.make ~name:"Pool.map_list = List.map (jobs 1..6)" ~count:60
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_bound 50) small_int))
    (fun (jobs, xs) ->
      let f x = (x * x) - (3 * x) + 7 in
      Pool.map_list ~jobs f xs = List.map f xs)

let test_pool_empty () =
  Alcotest.(check (list int)) "empty input" [] (Pool.map_list ~jobs:4 (fun x -> x) [])

let test_pool_order () =
  let xs = List.init 200 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved" (List.map succ xs)
    (Pool.map_list ~jobs:4 succ xs)

exception Boom of int

let test_pool_exception () =
  let f x = if x = 137 then raise (Boom x) else x in
  let xs = Array.init 300 (fun i -> i) in
  Alcotest.check_raises "worker exception re-raised" (Boom 137) (fun () ->
      ignore (Pool.map_array ~jobs:4 f xs))

let test_pool_cores () =
  Alcotest.(check bool) "at least one core" true (Pool.available_cores () >= 1)

(* The in-memory twin of fixtures/racy_counter.ml: tasks share a captured
   counter, so each result depends on scheduling.  The sanitizer must
   refuse the run.  (Share_lint flags the committed fixture statically;
   test_check covers that half.) *)
let test_pool_sanitize_catches_race () =
  let hits = ref 0 in
  let racy spec =
    hits := !hits + spec;
    !hits
  in
  match Pool.map_array ~sanitize:true ~jobs:4 racy (Array.init 64 (fun i -> i + 1)) with
  | _ -> Alcotest.fail "sanitizer accepted a racy task array"
  | exception Pool.Nondeterministic { index; divergent } ->
    Alcotest.(check bool) "divergent index in range" true (index >= 0 && index < 64);
    Alcotest.(check bool) "at least one divergent slot" true (divergent >= 1)

let test_pool_sanitize_clean () =
  let f x = (x * 17) mod 101 in
  let xs = Array.init 200 (fun i -> i) in
  Alcotest.(check (array int)) "self-contained tasks pass the sanitizer" (Array.map f xs)
    (Pool.map_array ~sanitize:true ~jobs:4 f xs)

let test_pool_worker_stats () =
  let results, stats = Pool.map_array_stats ~jobs:3 (fun i -> i * i) (Array.init 30 (fun i -> i)) in
  Alcotest.(check (array int)) "results unchanged" (Array.init 30 (fun i -> i * i)) results;
  Alcotest.(check int) "one stat per domain" 3 (List.length stats);
  Alcotest.(check (list int)) "domains numbered from the caller" [ 0; 1; 2 ]
    (List.map (fun s -> s.Pool.domain_index) stats);
  Alcotest.(check int) "every task accounted for" 30
    (List.fold_left (fun acc s -> acc + s.Pool.tasks_run) 0 stats);
  (* Sequential execution reports a single coordinator entry. *)
  match Pool.map_array_stats ~jobs:1 (fun i -> i) (Array.init 5 (fun i -> i)) with
  | _, [ s ] ->
    Alcotest.(check int) "coordinator domain" 0 s.Pool.domain_index;
    Alcotest.(check int) "all tasks on it" 5 s.Pool.tasks_run
  | _, stats -> Alcotest.failf "expected one sequential stat, got %d" (List.length stats)

(* --- Registry ------------------------------------------------------------ *)

let expected_ids =
  [
    "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8a"; "e8b"; "e8c"; "a1"; "a2"; "a3";
    "a4"; "a5"; "bounds"; "mobile"; "g1"; "s1";
  ]

let test_registry_complete () =
  Alcotest.(check (list string)) "every experiment registered" expected_ids Registry.ids

let test_registry_unique () =
  let sorted = List.sort_uniq String.compare Registry.ids in
  Alcotest.(check int) "ids are unique" (List.length Registry.ids) (List.length sorted)

let test_registry_find () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some job -> Alcotest.(check string) ("find " ^ id) id job.Experiment.id
      | None -> Alcotest.failf "Registry.find %s = None" id)
    expected_ids;
  (match Registry.find "E8A" with
  | Some job -> Alcotest.(check string) "case-insensitive" "e8a" job.Experiment.id
  | None -> Alcotest.fail "Registry.find E8A = None");
  Alcotest.(check bool) "unknown id" true (Registry.find "e99" = None)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Worker counts below one are rejected up front, by [Bench.run] itself,
   before any job runs. *)
let test_jobs_validation () =
  List.iter
    (fun jobs ->
      match Bench.check_jobs jobs with
      | Ok () -> Alcotest.failf "--jobs %d accepted" jobs
      | Error message ->
        Alcotest.(check bool) "names the value" true
          (contains ~needle:(string_of_int jobs) message))
    [ 0; -3 ];
  List.iter
    (fun jobs -> Alcotest.(check bool) "positive counts pass" true (Bench.check_jobs jobs = Ok ()))
    [ 1; 2 ];
  match Bench.run { Bench.default_options with jobs = -3; only = [ "bounds" ] } with
  | Ok _ -> Alcotest.fail "Bench.run accepted --jobs -3"
  | Error message ->
    Alcotest.(check bool) "Bench.run reports the value" true (contains ~needle:"-3" message)

let test_selection () =
  (match Bench.selection [ "a3"; "e1" ] with
  | Ok jobs ->
    Alcotest.(check (list string)) "canonical order kept" [ "e1"; "a3" ]
      (List.map (fun job -> job.Experiment.id) jobs)
  | Error m -> Alcotest.fail m);
  match Bench.selection [ "e1"; "nope" ] with
  | Ok _ -> Alcotest.fail "unknown id accepted"
  | Error message ->
    Alcotest.(check bool) "names the unknown id" true (contains ~needle:"nope" message)

(* --- bench compare (perf-regression harness) ------------------------------ *)

let results_file times =
  Json.Obj
    [
      ("schema", Json.String "securebit-bench/1");
      ( "experiments",
        Json.List
          (List.map
             (fun (id, seconds) ->
               Json.Obj [ ("id", Json.String id); ("wall_seconds", Json.Float seconds) ])
             times) );
    ]

let with_temp_results times f =
  let path = Filename.temp_file "securebit_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string_pretty (results_file times)));
      f path)

(* The acceptance bar for the harness: an injected >20% slowdown must come
   back flagged (callers exit non-zero on [any_regression]). *)
let test_compare_detects_injected_regression () =
  with_temp_results
    [ ("e1", 10.0); ("e2", 10.0) ]
    (fun base ->
      with_temp_results
        [ ("e1", 9.0); ("e2", 13.0) ]
        (fun current ->
          match Bench.compare_files ~base ~current () with
          | Error m -> Alcotest.fail m
          | Ok (report, any_regression) ->
            Alcotest.(check bool) "regression flagged" true any_regression;
            Alcotest.(check bool) "report says REGRESSED" true
              (contains ~needle:"REGRESSED" report);
            Alcotest.(check bool) "report names e2" true (contains ~needle:"e2" report)))

let test_compare_clean_run_passes () =
  with_temp_results
    [ ("e1", 10.0); ("e2", 4.0) ]
    (fun base ->
      with_temp_results
        [ ("e1", 11.5); ("e2", 2.0) ]
        (fun current ->
          (* 15% slower is inside the 20% tolerance. *)
          match Bench.compare_files ~base ~current () with
          | Error m -> Alcotest.fail m
          | Ok (report, any_regression) ->
            Alcotest.(check bool) "no regression" false any_regression;
            Alcotest.(check bool) "report says clean" true
              (contains ~needle:"no wall-time regressions" report)))

let test_compare_semantics () =
  let cmp base_seconds current_seconds =
    { Bench.cmp_id = "x"; base_seconds; current_seconds }
  in
  (* Exactly at the threshold is not a regression; just beyond is. *)
  Alcotest.(check bool) "20% exactly passes" false
    (Bench.regressed (cmp (Some 10.0) (Some 12.0)));
  Alcotest.(check bool) "beyond 20% fails" true
    (Bench.regressed (cmp (Some 10.0) (Some 12.01)));
  Alcotest.(check bool) "custom tolerance" true
    (Bench.regressed ~tolerance:0.05 (cmp (Some 10.0) (Some 11.0)));
  (* Sub-noise-floor runs are never flagged, however large the ratio. *)
  Alcotest.(check bool) "below noise floor" false
    (Bench.regressed (cmp (Some 0.01) (Some 0.04)));
  (* Experiments present on only one side are reported, not flagged. *)
  Alcotest.(check bool) "missing current" false (Bench.regressed (cmp (Some 1.0) None));
  Alcotest.(check bool) "missing base" false (Bench.regressed (cmp None (Some 1.0)));
  match Bench.speedup (cmp (Some 10.0) (Some 4.0)) with
  | Some s -> Alcotest.(check (float 1e-9)) "speedup" 2.5 s
  | None -> Alcotest.fail "speedup missing"

let test_compare_pairing () =
  let comparisons =
    Bench.compare_wall_times
      ~base:[ ("gone", 1.0); ("e1", 2.0) ]
      ~current:[ ("e1", 1.5); ("fresh", 0.5) ]
  in
  Alcotest.(check (list string)) "current order first, removed appended"
    [ "e1"; "fresh"; "gone" ]
    (List.map (fun c -> c.Bench.cmp_id) comparisons);
  let find id = List.find (fun c -> c.Bench.cmp_id = id) comparisons in
  Alcotest.(check bool) "fresh has no baseline" true ((find "fresh").Bench.base_seconds = None);
  Alcotest.(check bool) "gone has no current" true ((find "gone").Bench.current_seconds = None)

let test_compare_rejects_bad_files () =
  (match Bench.load_wall_times "/nonexistent/results.json" with
  | Ok _ -> Alcotest.fail "accepted a missing file"
  | Error _ -> ());
  let path = Filename.temp_file "securebit_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "{\"not\": \"bench\"}");
      match Bench.load_wall_times path with
      | Ok _ -> Alcotest.fail "accepted a non-results file"
      | Error message ->
        Alcotest.(check bool) "diagnostic mentions experiments" true
          (contains ~needle:"experiments" message))

(* --- allocation-rate gate ------------------------------------------------- *)

(* A results file with optional per-experiment words/active-round ceilings
   and measured rates, for exercising the allocation gate in isolation. *)
let alloc_results_file entries =
  Json.Obj
    [
      ("schema", Json.String "securebit-bench/1");
      ( "experiments",
        Json.List
          (List.map
             (fun (id, seconds, ceiling, rate) ->
               Json.Obj
                 ([ ("id", Json.String id); ("wall_seconds", Json.Float seconds) ]
                 @ (match ceiling with
                   | Some c -> [ ("max_words_per_active_round", Json.Float c) ]
                   | None -> [])
                 @
                 match rate with
                 | Some r ->
                   [ ("profile", Json.Obj [ ("words_per_active_round", Json.Float r) ]) ]
                 | None -> []))
             entries) );
    ]

let with_results_json json f =
  let path = Filename.temp_file "securebit_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string_pretty json));
      f path)

(* The acceptance bar for the allocation gate's compare: an injected
   words/active-round regression over a committed ceiling must fail the
   compare. *)
let test_compare_alloc_gate () =
  with_results_json
    (alloc_results_file [ ("e1", 10.0, Some 1000.0, None) ])
    (fun base ->
      with_results_json
        (alloc_results_file [ ("e1", 10.0, None, Some 1500.0) ])
        (fun current ->
          match Bench.compare_files ~base ~current () with
          | Error m -> Alcotest.fail m
          | Ok (report, failed) ->
            Alcotest.(check bool) "injected allocation regression flagged" true failed;
            Alcotest.(check bool) "report says OVER CEILING" true
              (contains ~needle:"OVER CEILING" report));
      with_results_json
        (alloc_results_file [ ("e1", 10.0, None, Some 900.0) ])
        (fun current ->
          match Bench.compare_files ~base ~current () with
          | Error m -> Alcotest.fail m
          | Ok (report, failed) ->
            Alcotest.(check bool) "within-ceiling rate passes" false failed;
            Alcotest.(check bool) "report confirms the gate ran" true
              (contains ~needle:"no allocation-rate ceilings exceeded" report));
      (* A ceiling the current run did not measure warns, never fails. *)
      with_results_json
        (alloc_results_file [ ("e1", 10.0, None, None) ])
        (fun current ->
          match Bench.compare_files ~base ~current () with
          | Error m -> Alcotest.fail m
          | Ok (report, failed) ->
            Alcotest.(check bool) "unmeasured ceiling is not a failure" false failed;
            Alcotest.(check bool) "reported as not profiled" true
              (contains ~needle:"not profiled" report)))

let test_alloc_checks_semantics () =
  let checks =
    Bench.alloc_checks
      ~base_rates:[ ("e1", 2000.0) ]
      ~ceilings:[ ("e1", 1000.0); ("e2", 500.0) ]
      ~rates:[ ("e1", 1200.0) ]
      ()
  in
  Alcotest.(check int) "one check per committed ceiling" 2 (List.length checks);
  Alcotest.(check bool) "measured rate over its ceiling" true
    (Bench.alloc_exceeded (List.nth checks 0));
  Alcotest.(check bool) "unmeasured ceiling not exceeded" false
    (Bench.alloc_exceeded (List.nth checks 1));
  (match Bench.alloc_delta (List.nth checks 0) with
  | Some d -> Alcotest.(check (float 1e-9)) "delta vs the baseline's measured rate" (-0.4) d
  | None -> Alcotest.fail "expected a delta for the profiled pair");
  Alcotest.(check bool) "no delta without a baseline rate" true
    (Bench.alloc_delta (List.nth checks 1) = None)

(* The acceptance bar for the in-loop words gate: the packed observation
   path passes a ceiling built from its own rate by the baseline's rule,
   while the same scenario on the boxed [observe] path (the variant
   allocated per touched receiver) is over it. *)
let test_alloc_gate_catches_boxed_observe () =
  let spec = Scenario.preset_exn "quickstart" in
  let rate ~boxed =
    let s = Scenario.summarize (Scenario.run ~mode:`Sparse ~boxed spec) in
    Alcotest.(check bool) "the run has active rounds" true (s.Scenario.active_rounds > 0);
    s.Scenario.loop_words /. float_of_int s.Scenario.active_rounds
  in
  let packed = rate ~boxed:false and boxed = rate ~boxed:true in
  let checks =
    Bench.alloc_checks
      ~ceilings:[ ("packed", Bench.words_ceiling packed); ("boxed", Bench.words_ceiling packed) ]
      ~rates:[ ("packed", packed); ("boxed", boxed) ]
      ()
  in
  Alcotest.(check (list bool)) "packed passes, boxed is over" [ false; true ]
    (List.map Bench.alloc_exceeded checks);
  Alcotest.(check bool) "the report says OVER CEILING" true
    (contains ~needle:"OVER CEILING" (Bench.render_alloc checks))

(* --- Runner byte-identity ------------------------------------------------- *)

(* The acceptance bar for the parallel runner: the rendered table, the fits,
   the notes and the stable JSON of `--jobs 4` are byte-identical to
   `--jobs 1`.  Sampled on the cheap registry jobs (an analytic table, a
   theory sweep, a small simulation grid). *)
let test_parallel_identity () =
  List.iter
    (fun id ->
      let job =
        match Registry.find id with
        | Some job -> job
        | None -> Alcotest.failf "missing job %s" id
      in
      let sequential = Runner.run_job ~jobs:1 ~scale:Experiment.Quick job in
      let parallel = Runner.run_job ~jobs:4 ~scale:Experiment.Quick job in
      Alcotest.(check string)
        (id ^ ": rendered output identical")
        (Runner.render sequential) (Runner.render parallel);
      Alcotest.(check string)
        (id ^ ": stable JSON identical")
        (Json.to_string (Runner.stable_json sequential))
        (Json.to_string (Runner.stable_json parallel)))
    [ "bounds"; "e8a"; "a3" ]

(* The sanitized parallel run must agree with plain sequential execution on
   real registry jobs — i.e. the dynamic race check stays silent on the
   actual trial workload and does not perturb any output. *)
let test_sanitize_matches_sequential () =
  List.iter
    (fun id ->
      let job =
        match Registry.find id with
        | Some job -> job
        | None -> Alcotest.failf "missing job %s" id
      in
      let sequential = Runner.run_job ~jobs:1 ~scale:Experiment.Quick job in
      let sanitized = Runner.run_job ~jobs:2 ~sanitize:true ~scale:Experiment.Quick job in
      Alcotest.(check string)
        (id ^ ": sanitized render identical to jobs=1")
        (Runner.render sequential) (Runner.render sanitized);
      Alcotest.(check string)
        (id ^ ": sanitized stable JSON identical to jobs=1")
        (Json.to_string (Runner.stable_json sequential))
        (Json.to_string (Runner.stable_json sanitized)))
    [ "bounds"; "e8a" ]

(* --- Profiling ------------------------------------------------------------ *)

let test_profile_counters () =
  let job =
    match Registry.find "e8a" with
    | Some job -> job
    | None -> Alcotest.fail "missing job e8a"
  in
  let plain = Runner.run_job ~scale:Experiment.Quick job in
  Alcotest.(check bool) "no profile unless requested" true (plain.Runner.profile = None);
  let profiled = Runner.run_job ~profile:true ~scale:Experiment.Quick job in
  (match profiled.Runner.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some p ->
    Alcotest.(check bool) "simulated some rounds" true (p.Runner.rounds_simulated > 0);
    Alcotest.(check bool) "rounds/s positive" true (p.Runner.rounds_per_second > 0.0);
    Alcotest.(check bool) "allocation observed" true (p.Runner.minor_words > 0.0);
    Alcotest.(check bool) "active rounds counted" true (p.Runner.active_rounds > 0);
    Alcotest.(check bool) "active rounds within simulated rounds" true
      (p.Runner.active_rounds <= p.Runner.rounds_simulated);
    Alcotest.(check bool) "words/active-round computed" true
      (p.Runner.words_per_active_round > 0.0);
    match p.Runner.workers with
    | [ w ] ->
      Alcotest.(check int) "single coordinator worker at jobs=1" 0 w.Pool.domain_index;
      Alcotest.(check bool) "worker ran the trials" true (w.Pool.tasks_run > 0)
    | ws -> Alcotest.failf "expected one worker stat at jobs=1, got %d" (List.length ws));
  (* The profile rides in the JSON but never perturbs the stable part that
     tables and comparisons are built from. *)
  Alcotest.(check string) "stable JSON unchanged by profiling"
    (Json.to_string (Runner.stable_json plain))
    (Json.to_string (Runner.stable_json profiled));
  let json = Json.to_string (Runner.json_of_outcome profiled) in
  Alcotest.(check bool) "profile embedded in the results JSON" true
    (contains ~needle:"rounds_per_second" json);
  Alcotest.(check bool) "per-worker stats embedded in the results JSON" true
    (contains ~needle:"workers" json);
  (* bench compare only reads id + wall_seconds, so profiled results files
     remain valid comparison inputs. *)
  let results = Runner.results_json ~scale:Experiment.Quick ~jobs:1 [ profiled ] in
  match Bench.wall_times_of_results results with
  | Ok [ (id, seconds) ] ->
    Alcotest.(check string) "id survives" "e8a" id;
    Alcotest.(check bool) "wall time read back" true (seconds >= 0.0)
  | Ok other -> Alcotest.failf "expected one entry, got %d" (List.length other)
  | Error message -> Alcotest.failf "profiled results rejected by compare: %s" message

(* The in-loop words count is exact: the same job reports the same summed
   loop words and active rounds on one domain, on two, and on a second
   run, with byte-identical tables. *)
let test_loop_words_exact () =
  let job =
    match Registry.find "e8a" with
    | Some job -> job
    | None -> Alcotest.fail "missing job e8a"
  in
  let run jobs =
    let o = Runner.run_job ~jobs ~profile:true ~scale:Experiment.Quick job in
    match o.Runner.profile with
    | Some p -> (Runner.render o, p.Runner.loop_words, p.Runner.active_rounds)
    | None -> Alcotest.fail "profile requested but absent"
  in
  let ((table, words, active) as first) = run 1 in
  Alcotest.(check bool) "the loop allocates" true (words > 0.0 && active > 0);
  List.iter
    (fun (label, (table', words', active')) ->
      Alcotest.(check string) (label ^ ": table identical") table table';
      Alcotest.(check (float 0.0)) (label ^ ": loop words identical") words words';
      Alcotest.(check int) (label ^ ": active rounds identical") active active')
    [ ("jobs=2", run 2); ("second run", run 1); ("first run", first) ]

(* Sanitized parallel maps of a pure function agree with List.map for any
   worker count — the sanitizer's sequential re-run never perturbs clean
   results. *)
let prop_pool_sanitize_matches_map =
  QCheck.Test.make ~name:"Pool.map_list ~sanitize = List.map (jobs 1..6)" ~count:40
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_bound 50) small_int))
    (fun (jobs, xs) ->
      let f x = (x * x) - (3 * x) + 7 in
      Pool.map_list ~sanitize:true ~jobs f xs = List.map f xs)

let qtests = [ prop_pool_matches_map; prop_pool_sanitize_matches_map ]

let () =
  Alcotest.run "run"
    [
      ( "pool",
        [
          Alcotest.test_case "empty" `Quick test_pool_empty;
          Alcotest.test_case "order" `Quick test_pool_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "available cores" `Quick test_pool_cores;
          Alcotest.test_case "sanitizer catches racy tasks" `Quick test_pool_sanitize_catches_race;
          Alcotest.test_case "sanitizer passes clean tasks" `Quick test_pool_sanitize_clean;
          Alcotest.test_case "per-worker stats" `Quick test_pool_worker_stats;
        ] );
      ( "registry",
        [
          Alcotest.test_case "completeness" `Quick test_registry_complete;
          Alcotest.test_case "unique ids" `Quick test_registry_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "bench selection" `Quick test_selection;
          Alcotest.test_case "bench rejects --jobs below 1" `Quick test_jobs_validation;
        ] );
      ( "bench compare",
        [
          Alcotest.test_case "injected regression detected" `Quick
            test_compare_detects_injected_regression;
          Alcotest.test_case "clean run passes" `Quick test_compare_clean_run_passes;
          Alcotest.test_case "threshold and noise floor" `Quick test_compare_semantics;
          Alcotest.test_case "pairing" `Quick test_compare_pairing;
          Alcotest.test_case "bad files rejected" `Quick test_compare_rejects_bad_files;
          Alcotest.test_case "injected words/active-round regression detected" `Quick
            test_compare_alloc_gate;
          Alcotest.test_case "allocation-check semantics" `Quick test_alloc_checks_semantics;
          Alcotest.test_case "words gate catches boxed observe" `Quick
            test_alloc_gate_catches_boxed_observe;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs=4 byte-identical to jobs=1" `Quick test_parallel_identity;
          Alcotest.test_case "sanitized run byte-identical to jobs=1" `Quick
            test_sanitize_matches_sequential;
          Alcotest.test_case "profile counters" `Quick test_profile_counters;
          Alcotest.test_case "in-loop words exact" `Quick
            test_loop_words_exact;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qtests);
    ]
