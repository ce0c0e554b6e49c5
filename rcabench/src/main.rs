//! `rcabench` — the serving benchmark of the RCACopilot reproduction.
//!
//! One command runs a workload through the public serving API
//! (`ServeEngine`, `MultiTenantEngine`) on the real clock with modeled
//! sleeps off, checks its outputs, and prints every metric by name and
//! unit. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path rcabench/Cargo.toml -- \
//!     --workload <replay_cold|flapping_storm|journaled_replay|tenant_fleet|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics from untraced
//! engine runs; `--trace 1` reports the per-layer metrics of a separate
//! traced pass over the same events. See `rcabench/README.md`.

mod setup;
mod stats;
mod trace;
mod workload;

use rcacopilot::core::retrieval::fnv1a;
use rcacopilot::simcloud::Incident;
use setup::Setup;
use stats::{failed_share, median, result_line, tail_supported, Metric};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{traced_pass, TraceTotals, STAGES};
use workload::{execute, nproc, peak_rss_mb, Input, RunKind, RunOutput, Workload};

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to confirm a claim on unseen inputs.
const HELD_OUT_SEED: u64 = 1009;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 14.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Measured engine runs per end-to-end run, however short `--seconds`:
/// enough for a median that one slow run (such as a process's first,
/// which also pays for its threads' first allocations) cannot move.
const MIN_RUNS: usize = 3;
/// Directory, relative to the working directory, for journal files;
/// each process works in a subdirectory named after its id.
const SCRATCH_DIR: &str = ".bench_out";

const USAGE: &str = "usage: rcabench --workload <replay_cold|flapping_storm|journaled_replay|\
tenant_fleet|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.smoke && args.record {
        return Err("smoke runs never overwrite the tracked results: drop --record".into());
    }
    Ok(args)
}

/// What the run was measured on.
struct Stamp {
    nproc: usize,
    git_rev: String,
    rustc: String,
}

impl Stamp {
    fn collect() -> Self {
        // Look for a repository in the working directory only, never in
        // a directory above it.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        Stamp {
            nproc: nproc(),
            git_rev: command_output(
                Command::new("git")
                    .args(["rev-parse", "--short=12", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            )
            .unwrap_or_else(|| "unknown".into()),
            rustc: command_output(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The trimmed standard output of a command that succeeded.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The measured result of one workload.
struct Outcome {
    workload: Workload,
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rcabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    quiet_injected_panics();
    let stamp = Stamp::collect();
    println!(
        "# rcabench nproc={} git={} rustc=\"{}\" smoke={} seed={} (default {DEFAULT_SEED}, \
         held-out {HELD_OUT_SEED}) seconds={} trace={}",
        stamp.nproc,
        stamp.git_rev,
        stamp.rustc,
        args.smoke,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let scratch = Path::new(SCRATCH_DIR).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("rcabench: create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let result = if args.trace {
            traced(w, &args, &scratch)
        } else {
            end_to_end(w, &args, &scratch)
        };
        match result {
            Ok(outcome) => {
                print_table(&outcome);
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("rcabench: {}: {e}", w.name());
                remove_scratch(&scratch);
                return ExitCode::from(1);
            }
        }
    }
    remove_scratch(&scratch);
    if args.record {
        for outcome in &outcomes {
            if let Err(e) = record(outcome, &args, &stamp) {
                eprintln!("rcabench: record: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let correct = outcomes.iter().all(|o| o.correct);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<Metric> = match outcomes.as_slice() {
        [only] => only.metrics.clone(),
        many => many
            .iter()
            .flat_map(|o| {
                o.metrics.iter().map(move |m| {
                    Metric::new(format!("{}.{}", o.workload.name(), m.name), m.unit, m.value)
                })
            })
            .collect(),
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("rcabench: a correctness gate failed");
        ExitCode::from(1)
    }
}

/// Removes this process's scratch directory, and the shared parent once
/// no other process uses it.
fn remove_scratch(scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
}

/// Injected worker panics are expected under the fleet's fault climate;
/// report every other panic as usual.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected worker panic") {
            default(info);
        }
    }));
}

/// The incident slices of an input, one per engine.
fn parts(input: &Input) -> Vec<&[Incident]> {
    match input {
        Input::Single { incidents, .. } => vec![incidents.as_slice()],
        Input::Fleet { parts, .. } => parts.iter().map(Vec::as_slice).collect(),
    }
}

/// Measured engine runs until `seconds` have passed (at least `min`),
/// each checked against the reference log.
fn measured_runs(
    w: Workload,
    setup: &Setup,
    input: &Input,
    reference: &RunOutput,
    seconds: f64,
    min: usize,
    scratch: &Path,
) -> Result<(Vec<RunOutput>, usize), String> {
    let mut runs = Vec::new();
    let mut mismatched = 0;
    let t0 = Instant::now();
    while runs.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let kind = RunKind::Measured { threads: nproc() };
        let mut run = execute(w, &setup.copilot, input, kind, scratch)?;
        mismatched += usize::from(run.log != reference.log);
        // Keep only what the metrics read.
        run.log = String::new();
        runs.push(run);
    }
    Ok((runs, mismatched))
}

/// Untraced end-to-end measurement of one workload.
fn end_to_end(w: Workload, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        drop(setup.take()); // free the previous set-up before timing the next
        let s = Setup::build();
        setup_s.push(s.timings.total_s());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    let input = workload::input(w, &setup.test, args.seed);
    let reference = execute(w, &setup.copilot, &input, RunKind::Reference, scratch)?;
    let (runs, mismatched) = measured_runs(
        w,
        &setup,
        &input,
        &reference,
        args.seconds,
        MIN_RUNS,
        scratch,
    )?;

    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for run in &runs {
        let wall = run.latency.ok_or("a real-clock run measures latency")?;
        if !tail_supported(wall.completed, 0.99) {
            return Err(format!(
                "p99 withheld: an engine run completed only {} events",
                wall.completed
            ));
        }
        p50.push(wall.p50_ms);
        p99.push(wall.p99_ms);
    }
    let planned: usize = runs.iter().map(|r| r.planned).sum();
    let (failed, shed) = runs
        .iter()
        .map(RunOutput::unserved)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let per_run = |f: fn(&RunOutput) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let accuracy = reference.correct_labels(&input) as f64 / reference.planned as f64;
    let each: Vec<String> = runs
        .iter()
        .zip(p50.iter().zip(&p99))
        .map(|(r, (p50, p99))| {
            format!(
                "{:.0}/s {:.3}/{p50:.3}/{p99:.3}ms",
                r.events_per_s(),
                r.cpu_ms_per_event()
            )
        })
        .collect();
    println!(
        "{}: per run (events/s, CPU per event/p50/p99): {}",
        w.name(),
        each.join(", ")
    );
    println!(
        "{}: {} engine runs of {} events; accuracy {accuracy:.4} (log digest {:016x}); \
         log identical to the virtual-clock 1-worker run: {}",
        w.name(),
        runs.len(),
        reference.planned,
        fnv1a(reference.log.as_bytes()),
        if mismatched == 0 { "yes" } else { "NO" }
    );
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("events_per_s", "1/s", per_run(RunOutput::events_per_s)),
        Metric::new("latency_p50_ms", "ms", median(&p50)),
        Metric::new("latency_p99_ms", "ms", median(&p99)),
        Metric::new(
            "cpu_ms_per_event",
            "ms",
            per_run(RunOutput::cpu_ms_per_event),
        ),
        Metric::new("accuracy", "ratio", accuracy),
        Metric::new(
            "served_share",
            "ratio",
            1.0 - failed_share(failed, shed, planned),
        ),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    Ok(Outcome {
        workload: w,
        correct: mismatched == 0,
        attempted: planned,
        failed: failed + shed,
        metrics,
    })
}

/// Traced per-layer measurement of one workload.
fn traced(w: Workload, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let setup = Setup::build();
    let (tokenizer, tokenizer_s) = setup.fit_tokenizer();
    let input = workload::input(w, &setup.test, args.seed);
    let reference = execute(w, &setup.copilot, &input, RunKind::Reference, scratch)?;
    let half = args.seconds / 2.0;
    let (runs, mismatched) = measured_runs(w, &setup, &input, &reference, half, 1, scratch)?;
    let untraced_cpu_ms = median(
        &runs
            .iter()
            .map(RunOutput::cpu_ms_per_event)
            .collect::<Vec<_>>(),
    );

    let slices = parts(&input);
    let mut totals = TraceTotals::default();
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < half {
        traced_pass(
            w,
            &setup.copilot,
            &tokenizer,
            &slices,
            &reference,
            scratch,
            &mut totals,
        )?;
        passes += 1;
    }
    let events = totals.events.max(1) as f64;
    let traced_cpu_ms = totals.cpu_s * 1e3 / events;
    let stage_sum_ms: f64 = STAGES
        .iter()
        .map(|s| totals.timer.total(s) as f64)
        .sum::<f64>()
        / events
        / 1e6;
    let ratio = |(hits, lookups): (u64, u64)| {
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    };
    let per = |total: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let wal = totals.wal;
    // Fault counters of the first untraced run: fates are planned per
    // (event, attempt), so every run of the same input books the same.
    let first = &runs[0];
    println!(
        "{}: {} traced passes of {} predicted events, {} untraced engine runs; \
         traced chain reproduces the engine's predictions: {}",
        w.name(),
        passes,
        totals.events / passes,
        runs.len(),
        if totals.mismatches == 0 { "yes" } else { "NO" }
    );
    let mut metrics: Vec<Metric> = STAGES
        .iter()
        .map(|s| {
            Metric::new(
                format!("{s}.ns_per_event"),
                "ns",
                totals.timer.total(s) as f64 / events,
            )
        })
        .collect();
    metrics.extend([
        Metric::new(
            "memo.summary_hit_ratio",
            "ratio",
            ratio(totals.summary_memo),
        ),
        Metric::new("memo.embed_hit_ratio", "ratio", ratio(totals.embed_memo)),
        Metric::new(
            "retrieve.history_entries",
            "count",
            totals.history_entries as f64 / events,
        ),
        Metric::new(
            "prompt.tokens_per_event",
            "count",
            totals.tokens as f64 / events,
        ),
        Metric::new(
            "prompt.dropped_options_per_event",
            "count",
            totals.dropped_options as f64 / events,
        ),
        Metric::new(
            "engine.queue_peak",
            "count",
            first.report_max(&["queue", "peak_depth"]) as f64,
        ),
        Metric::new(
            "wal.append_ns_per_commit",
            "ns",
            per(wal.append_ns, wal.commits),
        ),
        Metric::new(
            "wal.fsync_ns_per_commit",
            "ns",
            per(wal.fsync_ns, wal.commits),
        ),
        Metric::new("wal.bytes_per_commit", "B", per(wal.bytes, wal.commits)),
        Metric::new("wal.checkpoint_ns", "ns", per(wal.fold_ns, wal.folds)),
        Metric::new(
            "supervisor.respawns",
            "count",
            first.report_sum(&["faults", "worker_respawns"]) as f64,
        ),
        Metric::new(
            "supervisor.quarantined",
            "count",
            first.report_sum(&["faults", "quarantined"]) as f64,
        ),
        Metric::new(
            "supervisor.redispatches",
            "count",
            first.report_sum(&["faults", "redispatches"]) as f64,
        ),
        Metric::new(
            "tenant.breaker_fast_fails",
            "count",
            first.report_sum(&["faults", "breaker_fast_fails"]) as f64,
        ),
        Metric::new("setup.prepare_s", "s", setup.timings.prepare_s),
        Metric::new("setup.embed_train_s", "s", setup.timings.embed_train_s),
        Metric::new("setup.tokenizer_train_s", "s", tokenizer_s),
        Metric::new(
            "trace.overhead_share",
            "ratio",
            traced_cpu_ms / untraced_cpu_ms,
        ),
        Metric::new("trace.stage_sum_ms_per_event", "ms", stage_sum_ms),
        Metric::new(
            "trace.gap_ms_per_event",
            "ms",
            untraced_cpu_ms - stage_sum_ms,
        ),
    ]);
    let planned: usize = runs.iter().map(|r| r.planned).sum();
    let failed: usize = runs
        .iter()
        .map(|r| {
            let (f, s) = r.unserved();
            f + s
        })
        .sum();
    Ok(Outcome {
        workload: w,
        correct: mismatched == 0 && totals.mismatches == 0,
        attempted: planned + totals.events as usize,
        failed,
        metrics,
    })
}

fn print_table(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!(
            "  {:<34} {:>16.4} {}",
            format!("{}.{}", outcome.workload.name(), m.name),
            m.value,
            m.unit
        );
    }
}

/// Writes the stamped result to `rcabench/results/`, the tracked copy.
fn record(outcome: &Outcome, args: &Args, stamp: &Stamp) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let kind = if args.trace { "trace" } else { "e2e" };
    let path = dir.join(format!("{}-{kind}.json", outcome.workload.name()));
    let metrics: Vec<serde_json::Value> = outcome
        .metrics
        .iter()
        .map(|m| serde_json::json!({"name": m.name.clone(), "value": m.value, "unit": m.unit}))
        .collect();
    let doc = serde_json::json!({
        "workload": outcome.workload.name(),
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": stamp.nproc,
        "git_rev": stamp.git_rev.clone(),
        "rustc": stamp.rustc.clone(),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("[recorded {}]", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_parses() {
        let args = parse(&[
            "--workload",
            "flapping_storm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workloads, [Workload::FlappingStorm]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        let all = parse(&["--workload", "all"]).expect("valid");
        assert_eq!(all.workloads, Workload::ALL);
        assert_eq!(all.seed, DEFAULT_SEED);
    }

    #[test]
    fn smoke_runs_never_record() {
        assert!(parse(&["--workload", "replay_cold", "--smoke", "--record"]).is_err());
        assert!(parse(&["--workload", "replay_cold", "--record"]).is_ok());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "replay_cold", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "replay_cold", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "replay_cold", "--seed"]).is_err());
    }
}
