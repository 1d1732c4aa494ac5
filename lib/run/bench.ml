type options = {
  scale : Experiment.scale;
  jobs : int;
  only : string list;  (* empty = every registered job *)
  json_path : string option;
  profile : bool;
  sanitize : bool;
}

let default_options =
  {
    scale = Experiment.Quick;
    jobs = 1;
    only = [];
    json_path = None;
    profile = false;
    sanitize = false;
  }

let selection only =
  match only with
  | [] -> Ok Registry.all
  | ids ->
    let missing = List.filter (fun id -> Registry.find id = None) ids in
    if missing <> [] then
      Error
        (Printf.sprintf "unknown experiment id%s: %s (known: %s)"
           (if List.length missing > 1 then "s" else "")
           (String.concat ", " missing)
           (String.concat " " Registry.ids))
    else
      (* Keep the canonical registry order, not the order given. *)
      Ok
        (List.filter
           (fun job ->
             List.exists
               (fun id -> String.lowercase_ascii id = job.Experiment.id)
               ids)
           Registry.all)

let check_jobs jobs =
  if jobs >= 1 then Ok ()
  else Error (Printf.sprintf "invalid --jobs %d: need at least one worker domain" jobs)

let scale_name = function Experiment.Quick -> "quick" | Experiment.Paper -> "paper"

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty json);
  close_out oc

(* --- wall-time comparison ("bench compare") ---------------------------- *)

let regression_tolerance = 0.20
(** A run counts as regressed when it is more than this fraction slower
    than the baseline. *)

let noise_floor = 0.05
(** Experiments where both sides run faster than this (seconds) are too
    short to time reliably; they are reported but never flagged. *)

type comparison = {
  cmp_id : string;
  base_seconds : float option;  (** [None]: experiment absent from the baseline *)
  current_seconds : float option;  (** [None]: experiment absent from the current run *)
}

let speedup c =
  match (c.base_seconds, c.current_seconds) with
  | Some b, Some cur when cur > 0.0 -> Some (b /. cur)
  | Some _, Some _ | Some _, None | None, Some _ | None, None -> None

let regressed ?(tolerance = regression_tolerance) c =
  match (c.base_seconds, c.current_seconds) with
  | Some b, Some cur ->
    (b >= noise_floor || cur >= noise_floor) && cur > b *. (1.0 +. tolerance)
  | Some _, None | None, Some _ | None, None -> false

(* --- peak-memory ceilings ---------------------------------------------- *)

type memory_check = { mem_id : string; ceiling_words : int; peak_words : int option }

let memory_exceeded m =
  match m.peak_words with Some peak -> peak > m.ceiling_words | None -> false

let int_member name json =
  Option.bind (Json.member name json) Json.to_float_opt |> Option.map int_of_float

(* Committed per-experiment ceilings out of a baseline file: optional
   [max_heap_words] per experiment entry, so the baseline can gate memory
   without every historical file growing one. *)
let heap_ceilings_of_results json =
  match Json.member "experiments" json |> Option.map Json.to_list_opt with
  | Some (Some experiments) ->
    List.filter_map
      (fun e ->
        match (Option.bind (Json.member "id" e) Json.to_string_opt, int_member "max_heap_words" e) with
        | Some id, Some ceiling -> Some (id, ceiling)
        | _ -> None)
      experiments
  | Some None | None -> []

(* Measured peaks out of a current run: [profile.top_heap_words], present
   only when the run was profiled. *)
let heap_peaks_of_results json =
  match Json.member "experiments" json |> Option.map Json.to_list_opt with
  | Some (Some experiments) ->
    List.filter_map
      (fun e ->
        match
          ( Option.bind (Json.member "id" e) Json.to_string_opt,
            Option.bind (Json.member "profile" e) (int_member "top_heap_words") )
        with
        | Some id, Some peak -> Some (id, peak)
        | _ -> None)
      experiments
  | Some None | None -> []

(* --- allocation-rate ceilings ------------------------------------------ *)

type alloc_check = {
  al_id : string;
  ceiling_words_per_round : float;
  base_rate : float option;  (* baseline measured words/active-round, if profiled *)
  rate : float option;  (* measured words/active-round; None: not profiled *)
}

let alloc_exceeded a =
  match a.rate with Some rate -> rate > a.ceiling_words_per_round | None -> false

let words_ceiling rate = Float.max rate (Float.floor (rate *. 1.05 *. 100.0) /. 100.0)

(* Committed per-experiment allocation-rate ceilings: optional
   [max_words_per_active_round] per baseline entry, mirroring the
   [max_heap_words] peak-heap mechanism. *)
let alloc_ceilings_of_results json =
  match Json.member "experiments" json |> Option.map Json.to_list_opt with
  | Some (Some experiments) ->
    List.filter_map
      (fun e ->
        match
          ( Option.bind (Json.member "id" e) Json.to_string_opt,
            Option.bind (Json.member "max_words_per_active_round" e) Json.to_float_opt )
        with
        | Some id, Some ceiling -> Some (id, ceiling)
        | _ -> None)
      experiments
  | Some None | None -> []

(* Measured rates out of a current run: [profile.words_per_active_round],
   present only when the run was profiled. *)
let alloc_rates_of_results json =
  match Json.member "experiments" json |> Option.map Json.to_list_opt with
  | Some (Some experiments) ->
    List.filter_map
      (fun e ->
        match
          ( Option.bind (Json.member "id" e) Json.to_string_opt,
            Option.bind (Json.member "profile" e) (fun p ->
                Option.bind (Json.member "words_per_active_round" p) Json.to_float_opt) )
        with
        | Some id, Some rate -> Some (id, rate)
        | _ -> None)
      experiments
  | Some None | None -> []

let alloc_checks ?(base_rates = []) ~ceilings ~rates () =
  List.map
    (fun (id, ceiling_words_per_round) ->
      {
        al_id = id;
        ceiling_words_per_round;
        base_rate = List.assoc_opt id base_rates;
        rate = List.assoc_opt id rates;
      })
    ceilings

(* Relative words/active-round change vs the baseline's measured rate:
   negative is an allocation-rate win. *)
let alloc_delta a =
  match (a.base_rate, a.rate) with
  | Some b, Some r when b > 0.0 -> Some ((r -. b) /. b)
  | _ -> None

let render_alloc checks =
  if checks = [] then ""
  else begin
    let table =
      Table.create ~title:"allocation-rate ceiling check (in-loop minor words / active round)"
        ~columns:
          [ "experiment"; "ceiling (w/round)"; "base (w/round)"; "measured (w/round)"; "delta"; "verdict" ]
    in
    List.iter
      (fun a ->
        Table.add_row table
          [
            a.al_id;
            Table.cell_f ~decimals:2 a.ceiling_words_per_round;
            (match a.base_rate with Some r -> Table.cell_f ~decimals:2 r | None -> "-");
            (match a.rate with Some r -> Table.cell_f ~decimals:2 r | None -> "-");
            (match alloc_delta a with
            | Some d -> Printf.sprintf "%+.1f%%" (100.0 *. d)
            | None -> "-");
            (match a.rate with
            | Some r when r > a.ceiling_words_per_round -> "OVER CEILING"
            | Some _ -> "ok"
            | None -> "not profiled");
          ])
      checks;
    Table.render table
  end

let memory_checks ~ceilings ~peaks =
  List.map
    (fun (id, ceiling_words) ->
      { mem_id = id; ceiling_words; peak_words = List.assoc_opt id peaks })
    ceilings

let render_memory checks =
  if checks = [] then ""
  else begin
    let table =
      Table.create ~title:"peak-heap ceiling check"
        ~columns:[ "experiment"; "ceiling (Mw)"; "peak (Mw)"; "verdict" ]
    in
    List.iter
      (fun m ->
        let mw w = Table.cell_f ~decimals:1 (float_of_int w /. 1e6) in
        Table.add_row table
          [
            m.mem_id;
            mw m.ceiling_words;
            (match m.peak_words with Some p -> mw p | None -> "-");
            (match m.peak_words with
            | Some p when p > m.ceiling_words -> "OVER CEILING"
            | Some _ -> "ok"
            | None -> "not profiled");
          ])
      checks;
    Table.render table
  end

let wall_times_of_results json =
  match Json.member "experiments" json |> Option.map Json.to_list_opt with
  | Some (Some experiments) ->
    let entry e =
      match
        ( Option.bind (Json.member "id" e) Json.to_string_opt,
          Option.bind (Json.member "wall_seconds" e) Json.to_float_opt )
      with
      | Some id, Some seconds -> Ok (id, seconds)
      | Some id, None -> Error (Printf.sprintf "experiment %s has no wall_seconds" id)
      | None, _ -> Error "experiment entry without an id"
    in
    List.fold_left
      (fun acc e ->
        match (acc, entry e) with
        | Ok entries, Ok entry -> Ok (entry :: entries)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      (Ok []) experiments
    |> Result.map List.rev
  | Some None | None -> Error "no \"experiments\" list (not a securebit-bench results file?)"

let load_results path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> (
    match Json.of_string contents with
    | Ok json -> Ok json
    | Error message -> Error (Printf.sprintf "%s: %s" path message))
  | exception Sys_error message -> Error message

let load_wall_times path = Result.bind (load_results path) wall_times_of_results

(* Pair the two runs up, keeping the current run's order; baseline-only
   experiments are appended so nothing disappears silently. *)
let compare_wall_times ~base ~current =
  let of_current (id, seconds) =
    { cmp_id = id; base_seconds = List.assoc_opt id base; current_seconds = Some seconds }
  in
  let removed (id, seconds) =
    if List.mem_assoc id current then None
    else Some { cmp_id = id; base_seconds = Some seconds; current_seconds = None }
  in
  List.map of_current current @ List.filter_map removed base

let render_comparison ?(tolerance = regression_tolerance) comparisons =
  let table =
    Table.create ~title:"wall-time comparison vs baseline"
      ~columns:[ "experiment"; "base (s)"; "current (s)"; "speedup"; "verdict" ]
  in
  let cell = function Some seconds -> Table.cell_f ~decimals:3 seconds | None -> "-" in
  List.iter
    (fun c ->
      let verdict =
        match (c.base_seconds, c.current_seconds) with
        | None, _ -> "new"
        | _, None -> "removed"
        | Some _, Some _ when regressed ~tolerance c ->
          Printf.sprintf "REGRESSED (>%.0f%%)" (100.0 *. tolerance)
        | Some b, Some cur when b < noise_floor && cur < noise_floor -> "below noise floor"
        | Some _, Some _ -> "ok"
      in
      Table.add_row table
        [
          c.cmp_id;
          cell c.base_seconds;
          cell c.current_seconds;
          (match speedup c with Some s -> Printf.sprintf "%.2fx" s | None -> "-");
          verdict;
        ])
    comparisons;
  let total side =
    List.fold_left (fun acc c -> acc +. Option.value ~default:0.0 (side c)) 0.0 comparisons
  in
  let base_total = total (fun c -> c.base_seconds) in
  let current_total = total (fun c -> c.current_seconds) in
  Table.add_row table
    [
      "total";
      Table.cell_f ~decimals:3 base_total;
      Table.cell_f ~decimals:3 current_total;
      (if current_total > 0.0 then Printf.sprintf "%.2fx" (base_total /. current_total) else "-");
      "";
    ];
  Table.render table

let regressions ?tolerance comparisons = List.filter (regressed ?tolerance) comparisons

(* Shared driver for the two compare entry points: report text plus whether
   anything failed (callers turn that into a non-zero exit).  A compare
   fails on a wall-time regression, a peak-heap ceiling breach, or an
   allocation-rate (words/active-round) ceiling breach; a ceiling the
   current run did not measure (no [--profile]) is reported as a warning,
   never a failure, so unprofiled comparisons still gate wall time
   alone. *)
let compare_against ?tolerance ?(peaks = []) ?(alloc_rates = []) ~base current =
  match load_results base with
  | Error message -> Error (Printf.sprintf "baseline %s: %s" base message)
  | Ok base_json -> (
    match wall_times_of_results base_json with
    | Error message -> Error (Printf.sprintf "baseline %s: %s" base message)
    | Ok base_times ->
      let comparisons = compare_wall_times ~base:base_times ~current in
      let regressed = regressions ?tolerance comparisons in
      let checks = memory_checks ~ceilings:(heap_ceilings_of_results base_json) ~peaks in
      let exceeded = List.filter memory_exceeded checks in
      let unmeasured = List.filter (fun m -> m.peak_words = None) checks in
      let allocs =
        alloc_checks
          ~base_rates:(alloc_rates_of_results base_json)
          ~ceilings:(alloc_ceilings_of_results base_json) ~rates:alloc_rates ()
      in
      let alloc_over = List.filter alloc_exceeded allocs in
      let alloc_unmeasured = List.filter (fun a -> a.rate = None) allocs in
      let names of_what items = String.concat ", " (List.map of_what items) in
      let report =
        render_comparison ?tolerance comparisons
        ^ (match regressed with
          | [] -> "no wall-time regressions\n"
          | some ->
            Printf.sprintf "%d experiment(s) regressed: %s\n" (List.length some)
              (names (fun c -> c.cmp_id) some))
        ^ render_memory checks
        ^ (match exceeded with
          | [] when checks <> [] -> "no peak-heap ceilings exceeded\n"
          | [] -> ""
          | some ->
            Printf.sprintf "%d experiment(s) over peak-heap ceiling: %s\n" (List.length some)
              (names (fun m -> m.mem_id) some))
        ^ (match unmeasured with
          | [] -> ""
          | some ->
            Printf.sprintf
              "warning: %d ceiling(s) not checked (current run lacks --profile data): %s\n"
              (List.length some)
              (names (fun m -> m.mem_id) some))
        ^ render_alloc allocs
        ^ (match alloc_over with
          | [] when allocs <> [] -> "no allocation-rate ceilings exceeded\n"
          | [] -> ""
          | some ->
            Printf.sprintf "%d experiment(s) over words/active-round ceiling: %s\n"
              (List.length some)
              (names (fun a -> a.al_id) some))
        ^
        match alloc_unmeasured with
        | [] -> ""
        | some ->
          Printf.sprintf
            "warning: %d allocation ceiling(s) not checked (current run lacks --profile data): \
             %s\n"
            (List.length some)
            (names (fun a -> a.al_id) some)
      in
      Ok (report, regressed <> [] || exceeded <> [] || alloc_over <> []))

let compare_files ?tolerance ~base ~current () =
  match load_results current with
  | Error message -> Error (Printf.sprintf "current %s: %s" current message)
  | Ok current_json -> (
    match wall_times_of_results current_json with
    | Error message -> Error (Printf.sprintf "current %s: %s" current message)
    | Ok current_times ->
      compare_against ?tolerance
        ~peaks:(heap_peaks_of_results current_json)
        ~alloc_rates:(alloc_rates_of_results current_json)
        ~base current_times)

let compare_outcomes ?tolerance ~base outcomes =
  let profiled of_profile =
    List.filter_map
      (fun o ->
        Option.map
          (fun (p : Runner.profile) -> (o.Runner.job.Experiment.id, of_profile p))
          o.Runner.profile)
      outcomes
  in
  let peaks = profiled (fun p -> p.Runner.top_heap_words) in
  let alloc_rates = profiled (fun p -> p.Runner.words_per_active_round) in
  compare_against ?tolerance ~peaks ~alloc_rates ~base
    (List.map (fun o -> (o.Runner.job.Experiment.id, o.Runner.wall_seconds)) outcomes)

let run options =
  match Result.bind (check_jobs options.jobs) (fun () -> selection options.only) with
  | Error message -> Error message
  | Ok selected ->
    Printf.printf "securebit benchmark harness — scale: %s, jobs: %d\n\n%!"
      (scale_name options.scale) options.jobs;
    let t0 = Unix.gettimeofday () in
    let outcomes =
      List.map
        (fun job ->
          let outcome =
            Runner.run_job ~jobs:options.jobs ~profile:options.profile
              ~sanitize:options.sanitize ~scale:options.scale job
          in
          print_string (Runner.render outcome);
          Option.iter
            (fun (p : Runner.profile) ->
              Printf.printf
                "[%s profile: %d rounds, %.0f rounds/s, %.1fM minor words, %.0f w/active-round]\n"
                job.Experiment.id p.Runner.rounds_simulated p.Runner.rounds_per_second
                (p.Runner.minor_words /. 1e6)
                p.Runner.words_per_active_round)
            outcome.Runner.profile;
          Printf.printf "[%s: %.1fs, elapsed %.1fs]\n\n%!" job.Experiment.id
            outcome.Runner.wall_seconds
            (Unix.gettimeofday () -. t0);
          outcome)
        selected
    in
    Option.iter
      (fun path ->
        write_json path (Runner.results_json ~scale:options.scale ~jobs:options.jobs outcomes);
        Printf.printf "results written to %s\n%!" path)
      options.json_path;
    Ok outcomes
