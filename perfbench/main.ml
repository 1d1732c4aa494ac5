(* The benchmark program: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set up every trial, run whole passes over the
   trials for about S seconds, checking every trial's outputs, then set up
   [setup_reps - 1] more times, and print the end-to-end metrics.  Traced
   (--trace 1): one untraced reference pass, then the layer replica of
   every trial (Layers), printing the per-layer metrics and writing the
   spans to .perfbench/.  The last stdout line is the JSON result; the
   exit code is 1 when any check failed. *)

let setup_reps = 5

external peak_rss_kb : unit -> int = "perfbench_peak_rss_kb"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------------------------------------------------------- *)
(* Output checks                                                      *)
(* ---------------------------------------------------------------- *)

(* Trials are keyed by (pass, index in the pass); a trial counts as
   failed once, however many of its checks fail. *)
type tally = {
  mutable attempted : int;
  failed : (int * int, unit) Hashtbl.t;
  mutable messages : string list;
}

let attempt t n = t.attempted <- t.attempted + n

let fail t ~pass indices msg =
  List.iter (fun index -> Hashtbl.replace t.failed (pass, index) ()) indices;
  t.messages <- msg :: t.messages

let failed t = Hashtbl.length t.failed

(* The invariants every seed must meet, plus the recorded values at the
   default seed.  Returns the problems found. *)
let check_trial ?(recorded = true) w ~seed ~index (r : Scenario.result) (s : Scenario.summary) =
  let spec = r.Scenario.spec in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if s.Scenario.hit_cap then bad "hit the round cap";
  if spec.Scenario.faults = Scenario.No_faults && s.correct_of_delivered <> 1.0 then
    bad "fault-free run delivered a wrong message (correct_of_delivered %.6f)"
      s.correct_of_delivered;
  if w = Workload.Nw_dense then begin
    let reachable = Workload.nw_square_component r in
    let missed = ref 0 in
    Array.iteri
      (fun i d ->
        if reachable.(i) && r.honest.(i) && i <> r.source && d = None then incr missed)
      r.engine.Engine.delivered;
    if !missed > 0 then
      bad "fault-free dense run left %d node(s) of the source's square component undelivered"
        !missed
  end;
  let seen = Expected.of_summary s in
  if recorded && seed = Expected.default_seed then begin
    match List.nth_opt (Expected.trials w) index with
    | Some recorded when recorded = seen -> ()
    | Some recorded ->
      bad "differs from the recorded outputs: got %s, recorded %s" (Expected.show seen)
        (Expected.show recorded)
    | None -> bad "no recorded outputs for trial %d (got %s)" index (Expected.show seen)
  end;
  List.rev_map (Printf.sprintf "%s trial %d (seed %d): %s" (Workload.name w) index spec.seed) !problems

let honest_row ((row : Experiment.row), _) =
  List.assoc_opt "adversary" row.Experiment.values = Some (Json.String "honest")

(* S1 is checked on its merged outcome: honest rows deliver only the
   real message, and at the default seed the whole deterministic table
   matches the recorded digest. *)
let check_outcome tally ~pass ~seed (o : Runner.outcome) =
  let digest = Digest.to_hex (Digest.string (Json.to_string (Runner.stable_json o))) in
  let n = List.length (Workload.specs Workload.Sweep_s1 ~seed) in
  attempt tally n;
  if seed = Expected.default_seed && digest <> Expected.s1_digest then
    fail tally ~pass (List.init n Fun.id)
      (Printf.sprintf "sweep_s1: stable_json digest %s, recorded %s" digest Expected.s1_digest);
  ignore
    (List.fold_left
       (fun first ((row, aggs) as r) ->
         let runs = isum (fun a -> a.Experiment.runs) aggs in
         if honest_row r && List.exists (fun a -> a.Experiment.correct_of_delivered <> 1.0) aggs
         then
           fail tally ~pass
             (List.init runs (fun i -> first + i))
             (Printf.sprintf "sweep_s1 row [%s]: honest cell delivered a wrong message"
                (String.concat " " row.Experiment.cells));
         first + runs)
       0 o.Runner.rows);
  digest

(* ---------------------------------------------------------------- *)
(* Untraced passes                                                    *)
(* ---------------------------------------------------------------- *)

type pass = { wall : float; active_rounds : int; fingerprint : string list }

let run_trials w ~pass ~seed tally trials =
  let t0 = Workload.now () in
  let outcomes =
    List.mapi
      (fun index (spec, topology) ->
        match Scenario.run ~mode:`Sparse ?topology spec with
        | r -> (index, Ok (r, Scenario.summarize r))
        | exception e -> (index, Error (Printexc.to_string e)))
      trials
  in
  let wall = Workload.now () -. t0 in
  let fingerprint =
    List.map
      (fun (index, outcome) ->
        match outcome with
        | Ok (r, s) ->
          attempt tally 1;
          (match check_trial w ~seed ~index r s with
          | [] -> ()
          | problems -> fail tally ~pass [ index ] (String.concat "; " problems));
          Expected.show (Expected.of_summary s)
        | Error e ->
          attempt tally 1;
          fail tally ~pass [ index ] (Printf.sprintf "%s trial %d raised %s" (Workload.name w) index e);
          "raised")
      outcomes
  in
  let active_rounds =
    isum
      (function _, Ok (_, s) -> s.Scenario.active_rounds | _, Error _ -> 0)
      outcomes
  in
  { wall; active_rounds; fingerprint }

let run_s1 ~pass ~seed tally =
  let t0 = Workload.now () in
  match Runner.run_job ~jobs:2 ~profile:true ~scale:Experiment.Quick (Workload.s1_job seed) with
  | o ->
    let wall = Workload.now () -. t0 in
    let digest = check_outcome tally ~pass ~seed o in
    let active_rounds =
      match o.Runner.profile with Some p -> p.Runner.active_rounds | None -> 0
    in
    ({ wall; active_rounds; fingerprint = [ digest ] }, Some o)
  | exception e ->
    let n = List.length (Workload.specs Workload.Sweep_s1 ~seed) in
    attempt tally n;
    fail tally ~pass (List.init n Fun.id) ("sweep_s1 raised " ^ Printexc.to_string e);
    ({ wall = Workload.now () -. t0; active_rounds = 0; fingerprint = [] }, None)

(* One set-up of every trial: its seconds, and the prebuilt topologies
   that feed the runs through [Scenario.run ~topology] (S1 runs through
   [Runner.run_job], which builds its own). *)
let setup w specs =
  let built =
    List.map
      (fun spec ->
        let topology, dt = Workload.setup spec in
        ((spec, if w = Workload.Sweep_s1 then None else Some topology), dt))
      specs
  in
  (List.map fst built, sum snd built)

type metric = { name : string; value : float; unit : string }

let untraced w ~seed ~seconds tally =
  let specs = Workload.specs w ~seed in
  let trials, first_setup_s = setup w specs in
  let t_start = Workload.now () in
  let one_pass pass =
    match w with
    | Workload.Sweep_s1 -> fst (run_s1 ~pass ~seed tally)
    | Mp_lying | Nw_dense -> run_trials w ~pass ~seed tally trials
  in
  (* Whole passes only, as many as fit in [seconds] (at least one). *)
  let rec loop acc =
    let p = one_pass (List.length acc) in
    let acc = p :: acc in
    let elapsed = Workload.now () -. t_start in
    if elapsed +. p.wall <= seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let first = List.hd passes in
  List.iteri
    (fun pass p ->
      if p.fingerprint <> first.fingerprint then
        fail tally ~pass
          (List.init (List.length specs) Fun.id)
          (Printf.sprintf "%s pass %d: outputs differ from pass 0" (Workload.name w) pass))
    passes;
  (* Read before the remaining set-ups, whose garbage would dominate it. *)
  let peak_rss_kb = peak_rss_kb () in
  let setup_s =
    median (first_setup_s :: List.init (setup_reps - 1) (fun _ -> snd (setup w specs)))
  in
  ( [
      { name = "wall_s"; value = median (List.map (fun p -> p.wall) passes); unit = "s" };
      { name = "setup_s"; value = setup_s; unit = "s" };
      {
        name = "active_rounds_per_s";
        value = median (List.map (fun p -> float_of_int p.active_rounds /. p.wall) passes);
        unit = "1/s";
      };
      { name = "peak_rss_mb"; value = float_of_int peak_rss_kb /. 1024.0; unit = "MB" };
    ],
    List.map (fun p -> p.wall) passes )

(* ---------------------------------------------------------------- *)
(* Traced run                                                         *)
(* ---------------------------------------------------------------- *)

type pool_stats = { trials : int; busy : float array; efficiency : float; imbalance : float }

let no_pool = { trials = 0; busy = [| 0.0; 0.0 |]; efficiency = 0.0; imbalance = 0.0 }

(* S1's trials through the pool exactly as [Runner.run_job] sends them,
   each timed on its domain; the aggregates must match the job's. *)
let pool_pass ~seed tally (o : Runner.outcome) =
  let specs = Array.of_list (Workload.specs Workload.Sweep_s1 ~seed) in
  let main = (Domain.self () :> int) in
  let t0 = Workload.now () in
  let results =
    Pool.map_array ~jobs:2
      (fun spec ->
        let s0 = Workload.now () in
        let w0 = Gc.minor_words () in
        let r = Scenario.run ~mode:`Sparse spec in
        let s = Scenario.summarize r in
        let words = Gc.minor_words () -. w0 in
        (r, s, words, (Domain.self () :> int), (s0, Workload.now ())))
      specs
  in
  let wall = Workload.now () -. t0 in
  let busy = [| 0.0; 0.0 |] in
  Array.iter
    (fun (_, _, _, d, (s0, s1)) ->
      let k = if d = main then 0 else 1 in
      busy.(k) <- busy.(k) +. (s1 -. s0))
    results;
  let total = busy.(0) +. busy.(1) in
  let stats =
    {
      trials = Array.length results;
      busy;
      efficiency = total /. (2.0 *. wall);
      imbalance = ratio (Float.max busy.(0) busy.(1)) (total /. 2.0);
    }
  in
  let summaries = Array.to_list (Array.map (fun (_, s, _, _, _) -> s) results) in
  (* [Runner.run_job] aggregates each spec over its consecutive seeds. *)
  let reps = List.length (Experiment.seeds ((Workload.s1_job seed).Experiment.config Quick)) in
  let aggs =
    List.init (List.length summaries / reps) (fun k ->
        Experiment.aggregate (List.filteri (fun i _ -> i / reps = k) summaries))
  in
  if aggs <> List.concat_map snd o.Runner.rows then
    fail tally ~pass:0
      (List.init (Array.length specs) Fun.id)
      "sweep_s1: pool replica aggregates differ from Runner.run_job's";
  Array.iteri
    (fun index (r, s, _, _, _) ->
      match check_trial ~recorded:false Workload.Sweep_s1 ~seed ~index r s with
      | [] -> ()
      | problems -> fail tally ~pass:0 [ index ] (String.concat "; " problems))
    results;
  let spans =
    Array.to_list
      (Array.mapi
         (fun i (_, _, _, domain, (start_s, end_s)) ->
           { Layers.trial = i; name = "pool.trial"; parent = None; domain; start_s; end_s })
         results)
  in
  (Array.to_list (Array.mapi (fun i (r, _, words, _, _) -> (i, r, words)) results), stats, spans)

let proto_names = [ "multi_path"; "neighbor_watch" ]

let layer_metrics (trials : Layers.trial list) ~trial_words (pool : pool_stats) =
  let c = Layers.counters () in
  List.iter (fun (t : Layers.trial) -> Layers.add_into c t.counters) trials;
  let s = sum in
  let active = float_of_int (isum (fun (t : Layers.trial) -> t.active_rounds) trials) in
  let run_s = s (fun (t : Layers.trial) -> t.run_s) trials in
  let child_s =
    List.fold_left ( +. ) 0.0 (List.init (Array.length Layers.kinds) (Layers.estimated_s c))
  in
  let m name unit value = { name; value; unit } in
  let count name n = m name "count" (float_of_int n) in
  let proto_metrics p =
    let mine = List.exists (fun (t : Layers.trial) -> t.proto = p) trials in
    let v f = if mine then f () else 0.0 in
    [
      m (p ^ ".make_ctx_s") "s" (v (fun () -> s (fun (t : Layers.trial) -> t.make_ctx_s) trials));
      m (p ^ ".machines_s") "s" (v (fun () -> s (fun (t : Layers.trial) -> t.machines_s) trials));
    ]
    @ List.concat
        (List.mapi
           (fun k kind ->
             [
               m (Printf.sprintf "%s.%s_calls" p kind) "count"
                 (v (fun () -> float_of_int c.Layers.calls.(k)));
               m (Printf.sprintf "%s.%s_s" p kind) "s" (v (fun () -> Layers.estimated_s c k));
             ])
           (Array.to_list Layers.kinds))
  in
  [
    m "topology.build_s" "s" (s (fun (t : Layers.trial) -> t.topology_s) trials);
    count "topology.sensed_links" (isum (fun (t : Layers.trial) -> t.sensed) trials);
    count "topology.rx_links" (isum (fun (t : Layers.trial) -> t.rx) trials);
  ]
  @ List.concat_map proto_metrics proto_names
  @ [
      m "engine.run_s" "s" run_s;
      m "engine.self_s" "s" (run_s -. child_s);
      count "engine.rounds" (isum (fun (t : Layers.trial) -> t.rounds) trials);
      m "engine.active_rounds" "count" active;
      count "engine.transmissions" c.transmissions;
      count "engine.fanout_links" c.fanout_links;
      m "engine.act_yield" "ratio"
        (ratio (float_of_int c.transmissions) (float_of_int c.calls.(Layers.act)));
      m "engine.minor_words_per_active_round" "w/round"
        (ratio (s (fun (t : Layers.trial) -> t.loop_words) trials) active);
      m "trial.minor_words_per_active_round" "w/round" (ratio trial_words active);
      count "channel.clear" c.clear;
      count "channel.busy" c.busy;
      m "channel.clear_ratio" "ratio"
        (ratio (float_of_int c.clear) (float_of_int (c.clear + c.busy)));
      m "scenario.summarize_s" "s" (s (fun (t : Layers.trial) -> t.summarize_s) trials);
      count "pool.trials" pool.trials;
      m "pool.busy_s.d0" "s" pool.busy.(0);
      m "pool.busy_s.d1" "s" pool.busy.(1);
      m "pool.efficiency" "ratio" pool.efficiency;
      m "pool.imbalance" "ratio" pool.imbalance;
      m "trace.overhead_s" "s"
        (run_s -. s (fun (t : Layers.trial) -> t.plain_run_s) trials);
    ]

let json_of_span (sp : Layers.span) =
  Json.Obj
    [
      ("trial", Json.Int sp.trial);
      ("name", Json.String sp.name);
      ("parent", match sp.parent with Some p -> Json.String p | None -> Json.Null);
      ("domain", Json.Int sp.domain);
      ("start_s", Json.Float sp.start_s);
      ("end_s", Json.Float sp.end_s);
    ]

let write_trace w ~seed spans metrics =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" (Workload.name w) seed) in
  let doc =
    Json.Obj
      [
        ("workload", Json.String (Workload.name w));
        ("seed", Json.Int seed);
        ("metrics", Json.Obj (List.map (fun x -> (x.name, Json.Float x.value)) metrics));
        ("spans", Json.List (List.map json_of_span spans));
      ]
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string_pretty doc));
  path

(* Trials run two at a time here (the untraced run is serial for
   mp_lying and nw_dense) so that the replays fit the time limit; each
   domain measures its own minor words. *)
let traced w ~seed tally =
  let results, pool, pool_spans =
    match w with
    | Workload.Sweep_s1 -> (
      match run_s1 ~pass:0 ~seed tally with
      | _, Some o -> pool_pass ~seed tally o
      | _, None -> ([], no_pool, []))
    | Mp_lying | Nw_dense ->
      let specs = Workload.specs w ~seed in
      attempt tally (List.length specs);
      let outcomes =
        Pool.map_list ~jobs:2
          (fun spec ->
            let w0 = Gc.minor_words () in
            match Scenario.run ~mode:`Sparse spec with
            | r -> Ok (r, Scenario.summarize r, Gc.minor_words () -. w0)
            | exception e -> Error (Printexc.to_string e))
          specs
      in
      let results =
        List.concat
          (List.mapi
             (fun index -> function
               | Ok (r, s, words) ->
                 (match check_trial w ~seed ~index r s with
                 | [] -> ()
                 | problems -> fail tally ~pass:0 [ index ] (String.concat "; " problems));
                 [ (index, r, words) ]
               | Error e ->
                 fail tally ~pass:0 [ index ]
                   (Printf.sprintf "%s trial %d raised %s" (Workload.name w) index e);
                 [])
             outcomes)
      in
      (results, no_pool, [])
  in
  let trials =
    Pool.map_list ~jobs:2 (fun (i, r, _) -> Layers.replay ~trial_id:i r) results
  in
  List.iter
    (fun (t : Layers.trial) ->
      List.iter (fun f -> fail tally ~pass:0 [ t.trial_id ] f) t.failures)
    trials;
  let trial_words = sum (fun (_, _, words) -> words) results in
  let metrics = layer_metrics trials ~trial_words pool in
  let spans = pool_spans @ List.concat_map (fun (t : Layers.trial) -> t.spans) trials in
  let path = write_trace w ~seed spans metrics in
  Printf.printf "spans and metrics written to %s\n" path;
  metrics

(* ---------------------------------------------------------------- *)
(* Command line                                                       *)
(* ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref Expected.default_seed and seconds = ref 25 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " mp_lying | nw_dense | sweep_s1");
      ("--seed", Arg.Set_int seed, " input seed (default 1000, the recorded one)");
      ("--seconds", Arg.Set_int seconds, " measured seconds of the untraced run (default 25)");
      ("--trace", Arg.Set_int trace, " 1: traced layer run instead of the timed run");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workload.of_name !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst Workload.all));
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  let tally = { attempted = 0; failed = Hashtbl.create 16; messages = [] } in
  let metrics =
    if !trace = 1 then traced w ~seed:!seed tally
    else begin
      let metrics, passes = untraced w ~seed:!seed ~seconds:(float_of_int !seconds) tally in
      Printf.printf "%s: %d trial(s) per pass; pass walls (s): %s\n" (Workload.name w)
        (List.length (Workload.specs w ~seed:!seed))
        (String.concat " " (List.map (Printf.sprintf "%.3f") passes));
      metrics
    end
  in
  let failed = failed tally in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev tally.messages);
  List.iter (fun x -> Printf.printf "%-45s %16.6f %s\n" x.name x.value x.unit) metrics;
  Printf.printf "%-45s %16.6f %s\n" "trial_fail_rate"
    (ratio (float_of_int failed) (float_of_int tally.attempted))
    "ratio";
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int (max 1 tally.attempted));
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun x ->
                 (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string result);
  exit (if failed = 0 then 0 else 1)
