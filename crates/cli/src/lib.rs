//! # switchml-cli
//!
//! Command-line front end for the SwitchML reproduction: run simulated
//! scenarios, compare baselines, tune pool sizes against the pipeline
//! model, train a real model with quantized aggregation, and run the
//! protocol over real UDP sockets — each a subcommand of one binary.

pub mod args;
pub mod commands;

use args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
switchml-cli — SwitchML (NSDI 2021) reproduction toolkit

USAGE: switchml-cli <command> [flags]

COMMANDS:
  simulate   Run SwitchML on the simulated rack
             --workers N (8) --elems N (1000000) --bandwidth-gbps N (10)
             --pool N (128) --k N (32) --cores N (1) --rto-us N (1000)
             --loss P (0) --mode f32|f16|i32 (f32) --racks N (1)
             --trace N (0: off) --pcap FILE (off)  --json
  baseline   Run a baseline collective
             --strategy gloo|nccl|hd|ps-dedicated|ps-colocated (gloo)
             --workers N (8) --elems N (1000000) --bandwidth-gbps N (10)
             --loss P (0)  --json
  tune       Pool sizing + switch resource report
             --bandwidth-gbps N (10) --delay-us N (15) --k N (32)
             --workers N (8)  --json
  train      Real data-parallel training through the protocol
             --workers N (4) --epochs N (10) --scale F (1e6)
             --mode exact|f32|f16|sign (f32) --hidden N (0)
             --byzantine N (0)  --json
  udp, hier, ctrl, chaos and sched are flag shims over `scenario run`:
  each turns its flags into one scenario, runs it, and prints the
  report the way `scenario run` does (any violated oracle exits 1).
  udp        One all-reduce over real UDP loopback sockets
             --workers N (2) --elems N (4096) --loss P (0: send-side,
             every endpoint) --transport udp|channel (udp) --burst N (8)
             --cores N (1) --runner threaded|reactor (threaded)
             --threads N (2)  --json
             threaded runs the plain runner at --cores 1 and the sharded
             one above; the reactor multiplexes all engines on N threads
             and prints its event-loop counters
  hier       Two-level hierarchical all-reduce over real sockets: per-
             rack leaf switches re-aggregate into a spine; per-socket
             fan-in drops from workers to max(per-rack, racks)
             --racks N (2) --per-rack N (4) --elems N (4096)
             --transport udp|channel (udp) --threads N (2) --burst N (8)
             --loss P (0) --seed N (42)
             --kill-rack R (off) --kill-at-ms N (1)
             --flat (also run the flat star; print the speedup)  --json
  ctrl       Controller-managed jobs: lifecycle, failure detection,
             live reconfiguration, switch failover (simulated rack)
             --workers N (4) --jobs N (1) --switches N (1)
             --elems N (4096) --k N (8) --pool N (8) --loss P (0)
             --seed N (1) --fail-worker N (off; < --workers)
             --fail-at-us N (25) --failover-at-us N (off; needs
             --switches 2)  --json
  chaos      Live chaos harness: one seeded fault schedule against the
             real threaded transports, checked bit-for-bit against the
             sequential reference (silent corruption exits nonzero; so
             does a --ctrl run that does not recover)
             --transport channel|udp (channel) --workers N (3)
             --elems N (4096) --cores N (1) --burst N (8) --seed N (1)
             --loss P (0.02) --dup P (0.02) --reorder P (0.05)
             --straggler W (off) --stall-us N (50)
             --kill W (off) --kill-at-ms N (5)
             --ctrl (shrink-and-resume via the controller)
             --switch-restart-ms N (off; implies --ctrl)
             --rto adaptive|backoff|fixed (adaptive) --rto-us N (2000)
             --max-wall-ms N (10000)  --json
  sched      Multi-tenant churn under the slot scheduler: staggered
             arrivals, priority classes, live repartition; reports
             arrivals/sec, p99 admission-to-first-aggregate and
             aggregate throughput; --noisy-loss measures isolation
             (quiet tenants' p99 within 2x baseline or exit nonzero)
             --transport channel|udp|both (channel; both needs --bench)
             --jobs N (6) --workers N (2, per job) --elems N (16384)
             --capacity N (32 slots) --arrival-ms N (4)
             --high-every N (3: every Nth job is high priority)
             --noisy-loss P (0: loss storm on job 0's ports)
             --seed N (1) --cores N (1) --max-wall-ms N (30000)
             --bench FILE (write churn benchmark JSON)  --json
  scenario   Declarative scenario DSL: run the curated chaos-lab
             library (or a .scenario file) on any transport
             list [--json]               catalog every named scenario
             show NAME                   print a scenario as .scenario JSON
             run NAME | run --file F     run one scenario
                 [--transport netsim|channel|udp|all]  [--json]
             suite [--transport netsim|channel|udp|all]
                 the standing regression gate: full library on
                 netsim+channel, the UDP-tagged subset on udp
  check      Deterministic adversarial schedule explorer (model checker)
             --strategy exhaustive|delay|random (exhaustive)
             --switch basic|reliable|multijob:N|mutant-no-bitmap
                      |mutant-no-epoch|mutant-overlap-partition (reliable)
             --workers N (2) --slots N (1) --chunks N (2) --k N (2)
             --scale F (64) --drops N (1) --dups N (1) --retx N (1)
             --stale-epochs N (0: dead-generation ghost injection)
             --d N (2, delay strategy) --seed N (1) --runs N (200)
             --steps N (400) --max-states N --max-depth N
             --replay FILE (re-execute a .trace) --save-trace FILE
             --json
  help       This text
";

/// Dispatch a parsed command line; returns the text to print.
pub fn dispatch(args: &Args) -> Result<String, String> {
    // `scenario` takes positionals (its sub-action and a name); every
    // other command takes flags only.
    if args.command.as_deref() != Some("scenario") {
        args.assert_no_positionals()?;
    }
    match args.command.as_deref() {
        Some("scenario") => commands::scenario(args),
        Some("simulate") => commands::simulate(args),
        Some("baseline") => commands::baseline(args),
        Some("tune") => commands::tune(args),
        Some("train") => commands::train(args),
        Some("udp") => commands::udp(args),
        Some("hier") => commands::hier(args),
        Some("ctrl") => commands::ctrl(args),
        Some("chaos") => commands::chaos(args),
        Some("sched") => commands::sched(args),
        Some("check") => commands::check(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}
