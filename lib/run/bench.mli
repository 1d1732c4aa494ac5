(** Shared driver behind `bench/main.exe` and `securebit_cli bench`: select
    registry jobs, execute them (possibly domain-parallel), print each
    table as it completes, and optionally write the JSON results file. *)

type options = {
  scale : Experiment.scale;
  jobs : int;  (** worker domains; 1 = sequential *)
  only : string list;  (** experiment ids to run; empty = all *)
  json_path : string option;  (** where to write the JSON results, if anywhere *)
  profile : bool;
      (** record {!Runner.profile} counters (allocation deltas, rounds/s,
          per-worker GC stats) per job, printed after each table and
          embedded in the JSON; [bench compare] ignores them *)
  sanitize : bool;
      (** re-run each job's trials sequentially after the parallel pass and
          fail on any divergence ({!Pool.Nondeterministic}); the dynamic
          [--jobs N] determinism check *)
}

val default_options : options
(** Quick scale, sequential, every job, no JSON, no profiling. *)

val selection : string list -> (Experiment.job list, string) result
(** Resolve ids against {!Registry.all} (canonical order kept); [Error]
    names any unknown ids. *)

val check_jobs : int -> (unit, string) result
(** [Error] naming the value unless [jobs >= 1]. *)

val scale_name : Experiment.scale -> string

val run : options -> (Runner.outcome list, string) result
(** Run the selected jobs, printing tables, fits, notes and per-job wall
    times; write [json_path] if given.  [Error], before running anything,
    on [jobs < 1] ({!check_jobs}) or unknown ids. *)

(** {1 Comparison (["bench compare"])}

    Diffs two [BENCH_results.json] files (or a fresh run against one) and
    reports per-experiment speedups; anything more than
    {!regression_tolerance} slower than the baseline is a regression,
    which callers turn into a non-zero exit so perf regressions fail the
    build.  Baseline entries may also carry a [max_heap_words] peak-heap
    ceiling and/or a [max_words_per_active_round] allocation-rate ceiling;
    when the current run was profiled, a peak or a minor-allocation rate
    above its ceiling fails the compare the same way a wall-time
    regression does. *)

val regression_tolerance : float
(** Default regression threshold: 0.20 (20% slower fails). *)

val noise_floor : float
(** Runs where both sides finish under this many seconds are never flagged
    — too short to time reliably. *)

type comparison = {
  cmp_id : string;
  base_seconds : float option;  (** [None]: absent from the baseline *)
  current_seconds : float option;  (** [None]: absent from the current run *)
}

val speedup : comparison -> float option
(** [base / current]; [None] when either side is missing. *)

val regressed : ?tolerance:float -> comparison -> bool

type memory_check = {
  mem_id : string;
  ceiling_words : int;  (** committed [max_heap_words] from the baseline *)
  peak_words : int option;
      (** measured [profile.top_heap_words]; [None] when the current run
          was not profiled — reported as a warning, never a failure *)
}

val memory_exceeded : memory_check -> bool
(** True iff a measured peak is above its ceiling. *)

type alloc_check = {
  al_id : string;
  ceiling_words_per_round : float;
      (** committed [max_words_per_active_round] from the baseline *)
  base_rate : float option;
      (** the baseline's own measured [profile.words_per_active_round],
          when the baseline was a profiled run — the reference for the
          delta column *)
  rate : float option;
      (** measured [profile.words_per_active_round]; [None] when the
          current run was not profiled — reported as a warning, never a
          failure *)
}

val words_ceiling : float -> float
(** The [max_words_per_active_round] ceiling committed for a measured
    in-loop rate: 5 % above it, rounded down to 0.01 words, never below
    the rate itself.  The count is exact, so the headroom is not for
    noise: it only lets a change that allocates a little more per round
    through without a baseline refresh. *)

val alloc_exceeded : alloc_check -> bool
(** True iff a measured allocation rate is above its ceiling. *)

val alloc_delta : alloc_check -> float option
(** Relative words/active-round change vs the baseline's measured rate
    ([(rate - base_rate) / base_rate]); negative is a win.  [None] unless
    both sides were profiled. *)

val wall_times_of_results : Json.t -> ((string * float) list, string) result
(** Per-experiment wall seconds out of a parsed results file. *)

val heap_ceilings_of_results : Json.t -> (string * int) list
(** Per-experiment [max_heap_words] ceilings out of a parsed baseline;
    experiments without one are simply absent. *)

val heap_peaks_of_results : Json.t -> (string * int) list
(** Per-experiment [profile.top_heap_words] peaks out of a parsed results
    file; absent for runs made without [--profile]. *)

val alloc_ceilings_of_results : Json.t -> (string * float) list
(** Per-experiment [max_words_per_active_round] ceilings out of a parsed
    baseline; experiments without one are simply absent. *)

val alloc_rates_of_results : Json.t -> (string * float) list
(** Per-experiment [profile.words_per_active_round] rates out of a parsed
    results file; absent for runs made without [--profile]. *)

val memory_checks :
  ceilings:(string * int) list -> peaks:(string * int) list -> memory_check list
(** One check per ceiling, paired with the matching peak if measured. *)

val alloc_checks :
  ?base_rates:(string * float) list ->
  ceilings:(string * float) list ->
  rates:(string * float) list ->
  unit ->
  alloc_check list
(** One check per allocation ceiling, paired with the measured rate if
    profiled; [base_rates] supplies the baseline's own measured rates for
    the delta column. *)

val render_memory : memory_check list -> string
(** ASCII ceiling-check table; empty string when there are no ceilings. *)

val render_alloc : alloc_check list -> string
(** ASCII allocation-rate ceiling table; empty string when there are no
    ceilings. *)

val load_results : string -> (Json.t, string) result
(** Read and parse a results file. *)

val load_wall_times : string -> ((string * float) list, string) result

val compare_wall_times :
  base:(string * float) list -> current:(string * float) list -> comparison list
(** Current-run order first, then baseline-only experiments. *)

val render_comparison : ?tolerance:float -> comparison list -> string

val regressions : ?tolerance:float -> comparison list -> comparison list

val compare_files :
  ?tolerance:float -> base:string -> current:string -> unit -> (string * bool, string) result
(** [Ok (report, failed)] where [failed] is any wall-time regression,
    peak-heap ceiling breach, or words/active-round allocation-rate
    ceiling breach; [Error] on unreadable/invalid files. *)

val compare_outcomes :
  ?tolerance:float -> base:string -> Runner.outcome list -> (string * bool, string) result
(** Compare a just-finished run against a baseline file; profiled
    outcomes also have their peaks and allocation rates gated against
    baseline ceilings. *)
