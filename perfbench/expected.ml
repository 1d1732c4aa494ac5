(* Outputs recorded at the default seed.  Every simulated statistic is
   deterministic, so a speed-only change must reproduce these exactly;
   a change that alters them on purpose re-records them here. *)

let default_seed = 1000

type fingerprint = {
  rounds : int;
  active_rounds : int;
  broadcasts : int;
  completion_rate : float;
  correct_rate : float;
}

let of_summary (s : Scenario.summary) =
  {
    rounds = s.Scenario.rounds;
    active_rounds = s.active_rounds;
    broadcasts = s.total_broadcasts;
    completion_rate = s.completion_rate;
    correct_rate = s.correct_rate;
  }

let show f =
  Printf.sprintf "{ rounds = %d; active_rounds = %d; broadcasts = %d; completion_rate = %h; correct_rate = %h }"
    f.rounds f.active_rounds f.broadcasts f.completion_rate f.correct_rate

let trials : Workload.t -> fingerprint list = function
  | Workload.Mp_lying ->
    [
      { rounds = 97782; active_rounds = 35308; broadcasts = 1648514; completion_rate = 0x1p+0;
        correct_rate = 0x1.e233788cde233p-1 };
      { rounds = 103524; active_rounds = 34638; broadcasts = 1631077; completion_rate = 0x1p+0;
        correct_rate = 0x1.df7df7df7df7ep-1 };
      { rounds = 103428; active_rounds = 34812; broadcasts = 1693003; completion_rate = 0x1p+0;
        correct_rate = 0x1.c466f119bc467p-1 };
      { rounds = 104598; active_rounds = 35596; broadcasts = 1739914; completion_rate = 0x1p+0;
        correct_rate = 0x1.e4e8f93a3e4e9p-1 };
      { rounds = 101892; active_rounds = 34372; broadcasts = 1665227; completion_rate = 0x1p+0;
        correct_rate = 0x1.cc877321dcc87p-1 };
      { rounds = 108960; active_rounds = 34848; broadcasts = 1868872; completion_rate = 0x1p+0;
        correct_rate = 0x1.c1b1706c5c1b1p-1 };
    ]
  | Nw_dense ->
    [
      { rounds = 26738; active_rounds = 11476; broadcasts = 348610;
        completion_rate = 0x1.fff2e438a2035p-1; correct_rate = 0x1.fff2e438a2035p-1 };
      { rounds = 23652; active_rounds = 11488; broadcasts = 344114; completion_rate = 0x1p+0;
        correct_rate = 0x1p+0 };
    ]
  | Sweep_s1 -> []

(* Digest of [Runner.stable_json] for the S1 job at the default seed —
   the registered quick S1 table. *)
let s1_digest = "ce516d107f51f3a0b17aeca22178af50"
