//! `perfbench`: the repository's end-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3|paper_trials|synthetic_journaled|randomized|all> \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs campaigns of one workload in a closed loop at
//! `default_jobs()` workers for `--seconds` and prints the six
//! end-to-end metrics; `--trace 1` prints the per-layer metrics and the
//! wall-clock ledger instead. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Every campaign's report is checked; a failed check exits
//! with code 1 and reports no metric. See `perfbench/README.md`.

mod ledger;
mod stats;
mod trace;
mod workload;

use stats::{highest_reportable, median, percentile, quartiles, samples_beyond, samples_needed};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};
use workload::{Runner, Workload, DEFAULT_SEED};

/// Fresh processes, besides the run's own, whose cold first campaign
/// gives a `setup_s` sample.
const SETUP_PROBES: usize = 20;
/// Longest timed window, whatever `--seconds` asks: a run must end
/// well within three minutes.
const MAX_WINDOW: Duration = Duration::from_secs(120);

const USAGE: &str =
    "usage: perfbench --workload <table3|paper_trials|synthetic_journaled|randomized|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    /// Internal: time one cold campaign and exit.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 15,
        trace: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".to_owned()),
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let Some(workload) = args.workload else {
        exit(run_all(&args));
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        exit(2);
    }
    let runner = Runner {
        workload,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        jobs: intrusion_core::default_jobs(),
        journal: dir.join(format!("journal-{}.bin", std::process::id())),
    };
    let mut tally = Tally::default();
    let result = if args.setup_probe {
        setup_probe(&runner, started)
    } else if args.trace {
        traced(&runner, &args, &dir, &mut tally)
    } else {
        end_to_end(&runner, &args, started, &mut tally)
    };
    let _ = std::fs::remove_file(&runner.journal);
    match result {
        Ok(metrics) if !args.setup_probe => {
            print_meta(&runner, &args, &metrics);
            println!("{}", result_line(true, &tally, &metrics));
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            if !args.setup_probe {
                println!("{}", result_line(false, &tally, &[]));
            }
            exit(1);
        }
    }
}

/// One reported metric: name, value, unit, and the samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Cells attempted and completed in the timed window.
#[derive(Default)]
struct Tally {
    attempted: u64,
    completed: u64,
}

/// Where the journal and the traced run's spans go: inside the build
/// directory of the checkout the benchmark runs from.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench")
}

/// Child mode: the time from process start to the end of the first,
/// cold campaign.
fn setup_probe(runner: &Runner, started: Instant) -> Result<Vec<Metric>, String> {
    runner.campaign()?;
    println!("setup_ns {}", started.elapsed().as_nanos());
    Ok(Vec::new())
}

/// Cold start of `workload` in a fresh process, in seconds.
fn spawn_setup_probe(runner: &Runner) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            runner.workload.name(),
            "--seed",
            &runner.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ns = stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_ns "))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("setup probe failed ({})", out.status))?;
    Ok(ns / 1e9)
}

/// The closed loop: campaigns back to back for `--seconds`, and until
/// at least ten campaign times lie beyond p90.
fn end_to_end(
    runner: &Runner,
    args: &Args,
    started: Instant,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let first = runner.campaign()?;
    let mut setup = vec![started.elapsed().as_secs_f64()];
    runner.verify(&first)?;
    if runner.workload == Workload::SyntheticJournaled {
        let plain = runner.plain_stream(runner.jobs)?;
        if plain.json != first.json {
            return Err(
                "journaled report differs from the plain report on the same grid".to_owned(),
            );
        }
    }
    for _ in 0..SETUP_PROBES {
        setup.push(spawn_setup_probe(runner)?);
    }

    let cells = runner.workload.cells();
    let window = Duration::from_secs(args.seconds).min(MAX_WINDOW);
    let needed = samples_needed(90.0);
    let mut campaign_ms = Vec::new();
    let mut busy_s = 0.0;
    let loop_start = Instant::now();
    while campaign_ms.len() < needed || loop_start.elapsed() < window {
        if loop_start.elapsed() > MAX_WINDOW {
            return Err(format!(
                "fewer than {needed} campaigns fit in {MAX_WINDOW:?}"
            ));
        }
        let start = Instant::now();
        let run = runner.campaign();
        let elapsed = start.elapsed();
        tally.attempted += cells;
        let run = run?;
        if run.json != first.json {
            return Err("a repetition's normalized report differs from the run's first".to_owned());
        }
        runner.verify(&run)?;
        tally.completed += run.report.completed();
        campaign_ms.push(elapsed.as_secs_f64() * 1e3);
        busy_s += elapsed.as_secs_f64();
    }

    let n = campaign_ms.len();
    if let (Some([q1, q2, q3]), Some(p90)) =
        (quartiles(&campaign_ms), percentile(&campaign_ms, 90.0))
    {
        println!(
            "campaign_ms over {n} campaigns: q1 {q1:.4} median {q2:.4} q3 {q3:.4} p90 {p90:.4} \
             ({} beyond p90, highest reportable percentile p{}, spread (q3-q1)/median {:.4})",
            samples_beyond(n, 90.0),
            highest_reportable(n, &[50.0, 90.0, 99.0, 99.9]).unwrap_or(0.0),
            (q3 - q1) / q2
        );
    }
    Ok(vec![
        metric("campaign_ms.p50", median(&campaign_ms), "ms", n),
        metric("campaign_ms.p90", percentile(&campaign_ms, 90.0), "ms", n),
        metric(
            "cells_per_s",
            Some(tally.completed as f64 / busy_s),
            "1/s",
            n,
        ),
        metric("setup_s", median(&setup), "s", setup.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        metric(
            "completed_ratio",
            Some(tally.completed as f64 / tally.attempted as f64),
            "ratio",
            n,
        ),
    ])
}

fn traced(
    runner: &Runner,
    args: &Args,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let until = Instant::now() + Duration::from_secs(args.seconds).min(MAX_WINDOW);
    let spans_out = dir.join(format!("spans-{}.jsonl", runner.workload.name()));
    let traced = trace::traced(runner, until, &spans_out)?;
    print!(
        "{}",
        trace::render_ledger(runner.workload, &traced.ledger, traced.cells)
    );
    println!("spans of the last traced replay: {}", spans_out.display());
    tally.attempted = traced.cells * traced.passes as u64;
    tally.completed = tally.attempted;
    Ok(traced
        .metrics
        .into_iter()
        .map(|(name, value, unit, samples)| metric(name, Some(value), unit, samples))
        .collect())
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: value.unwrap_or(f64::NAN),
        unit,
        samples,
    }
}

/// `VmHWM` of this process: the peak resident set, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Git revision of the checkout, read from `.git` without leaving it.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed.lines().find_map(|l| {
                            l.strip_suffix(reference).map(|rev| rev.trim().to_owned())
                        })
                    })
            })
            .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown (not a git checkout)".to_owned(),
    }
}

/// Prints every metric with its unit and sample count, then one JSON
/// line of run metadata.
fn print_meta(runner: &Runner, args: &Args, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<40} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, m.samples))
        .collect();
    let campaigns = metrics
        .iter()
        .find(|m| m.name == "campaign_ms.p50")
        .map_or(0, |m| m.samples);
    // Only the closed loop times campaigns; the traced run has no p90.
    let beyond = match campaigns {
        0 => "null".to_owned(),
        n => samples_beyond(n, 90.0).to_string(),
    };
    println!(
        "{{\"meta\":{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"seed_changes_inputs\":{},\
         \"grid_cells\":{},\"nproc\":{},\"workers\":{},\"rustc\":\"{}\",\"git_rev\":\"{}\",\
         \"seconds\":{},\"campaigns_beyond_p90\":{},\"samples\":{{{}}}}}}}",
        runner.workload.name(),
        u8::from(args.trace),
        runner.seed,
        runner.workload.seeded(),
        runner.workload.cells(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        if args.trace { 1 } else { runner.jobs },
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        args.seconds,
        beyond,
        samples.join(","),
    );
}

/// The result object the last line of output carries.
fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .filter(|_| correct)
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.attempted.max(1) - tally.completed.min(tally.attempted.max(1)),
        body.join(",")
    )
}

/// Runs every workload, each in its own process so that its peak RSS is
/// its own, and prints one table. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        return 2;
    };
    let mut code = 0;
    let mut table = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            workload.name(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let out = match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("== {}", workload.name());
        print!("{stdout}");
        if !out.status.success() {
            code = 1;
        }
        table.push((
            workload.name(),
            stdout.lines().last().unwrap_or("").to_owned(),
        ));
    }
    println!("== summary");
    for (name, line) in table {
        println!("{name:<20} {line}");
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reports_no_metric_when_incorrect() {
        let tally = Tally {
            attempted: 24,
            completed: 24,
        };
        let metrics = [Metric {
            name: "setup_s",
            value: 0.5,
            unit: "s",
            samples: 7,
        }];
        assert_eq!(
            result_line(true, &tally, &metrics),
            "{\"correct\":true,\"attempted\":24,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert_eq!(
            result_line(false, &tally, &metrics),
            "{\"correct\":false,\"attempted\":24,\"failed\":0,\"metrics\":{}}"
        );
        let nan = [Metric {
            name: "setup_s",
            value: f64::NAN,
            unit: "s",
            samples: 0,
        }];
        assert!(result_line(true, &tally, &nan).starts_with("{\"correct\":false"));
    }
}
