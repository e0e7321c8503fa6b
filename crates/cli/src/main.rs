//! `intrusion-injector` — command-line front end for the
//! intrusion-injection assessment tooling.
//!
//! ```text
//! intrusion-injector campaign [--extensions] [--json] [--jobs 4] [--trace-out t.jsonl]
//! intrusion-injector campaign --stream --checkpoint c.journal [--chaos-seed 7]
//! intrusion-injector campaign --progress --flight-out dumps/ --timeline-out tl.jsonl
//! intrusion-injector campaign resume c.journal
//! intrusion-injector run --use-case XSA-182-test --version 4.13 --mode injection
//! intrusion-injector randomized --region idt --trials 24 --seed 7 --version 4.8
//! intrusion-injector benchmark [--jobs 4]
//! intrusion-injector trace summary t.jsonl --top 10
//! intrusion-injector trace validate t.jsonl
//! intrusion-injector report diff before.json after.json
//! intrusion-injector taxonomy
//! intrusion-injector models
//! intrusion-injector help
//! ```

mod args;

use args::{ArgError, Parsed};
use hvsim_obs::{
    flight, parse_jsonl, parse_line, to_jsonl, FlightEvent, MetricsRegistry, MetricsTimeline,
    ParseError, TraceSummary, Tracer,
};
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    read_header, standard_world_factory, ArbitraryAccessInjector, Campaign, CampaignReport,
    ChaosConfig, Mode,
    RandomizedCampaign, RandomizedSummary, SecurityBenchmark, Shard, StreamReport, TargetRegion,
    UseCase,
};
use hvsim::XenVersion;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use xsa_exploits::{extension_use_cases, paper_use_cases};

const HELP: &str = "\
intrusion-injector — intrusion injection for virtualized systems (DSN 2023)

USAGE:
    intrusion-injector <command> [options]

COMMANDS:
    campaign     run the full assessment campaign and print Tables II/III + Fig. 4
                   [--extensions]  include the extension use cases
                   [--json]        emit the raw cell report as JSON
                   [--jobs <n>]    worker threads (default: hardware threads)
                   [--cell-deadline-ms <n>]  per-cell deadline, checked when the
                                   cell returns (default: none)
                   [--retries <n>] extra boot attempts for transient failures (default 0)
                   [--trace-out <file>]    write the structured trace as JSONL
                   [--metrics-out <file>]  write the metrics snapshot as JSON
                   [--no-tlb]      disable the software TLB (escape hatch; reports
                                   are byte-identical either way, only slower)
                   [--chunk-frames <n>]  COW chunk-directory granularity in
                                   frames (escape hatch; rounded up to a power
                                   of two, reports are byte-identical at any
                                   size)
                   [--stream]      bounded-memory streaming engine: per-key summary
                                   instead of per-cell tables, O(workers)
                                   resident memory, mergeable reports
                   [--shard <i/n>] run only slots i, i+n, i+2n, ... of the grid;
                                   merging the n shard reports ('report merge')
                                   reproduces the unsharded report byte-for-byte
                   [--trials <n>]  trials per (use case, version, mode) cell
                   [--report-out <file>]   with --stream: write the normalized
                                   mergeable report as JSON
                   [--checkpoint <file>]   journal durable progress so a killed
                                   run can 'campaign resume <file>' (implies
                                   --stream); resumed runs produce the same
                                   normalized report byte-for-byte
                   [--checkpoint-interval <n>]  slots per durable fold record
                                   (default 1024)
                   [--journal-slots]  with --checkpoint: also stream per-cell
                                   forensic records to <file>.slots (never
                                   synced, never read by recovery)
                   [--chaos-seed <n>]  deterministic fault injection: seeded
                                   worker panics, transient boots, slowdowns,
                                   claim stalls, torn journal writes (implies
                                   --stream; same seed => same faults at any
                                   --jobs count)
                   [--progress]    live progress line on stderr (done/total,
                                   cells/s, ETA, degraded count)
                   [--flight-out <dir>]    write the flight-recorder forensic
                                   tail of every degraded cell as
                                   <dir>/slot-<n>.jsonl (plus
                                   stall-worker-<n>.jsonl for wedged workers);
                                   dumps are trace-schema JSONL
                   [--flight-capacity <n>]  per-worker flight-recorder ring
                                   size (default 256; 0 disables the recorder)
                   [--timeline-out <file>]  write the sampled metrics timeline
                                   (counters + gauges per tick) as JSONL
                   [--metrics-interval-ms <n>]  telemetry sampling interval
                                   (default 200 when a telemetry output is on)
                 resume <file>   resume a checkpointed campaign from its
                                   journal; grid shape, trials and shard are
                                   restored from the journal header
    report       operate on streamed campaign reports
                   merge <out> <in>...   merge shard reports written by
                                         'campaign --stream --report-out'
                   diff <a> <b>          compare two JSON reports or metrics
                                         snapshots leaf-by-leaf; exit 0 when
                                         identical, 1 when they differ
    run          run one use case once
                   --use-case <name>      e.g. XSA-212-crash (see 'models')
                   [--version <v>]        4.6 | 4.8 | 4.13   (default 4.6)
                   [--mode <m>]           exploit | injection (default injection)
    randomized   fuzz-style randomized injection sweep
                   [--region <r>]   idt | l3 | pagetables | frames (default idt)
                   [--trials <n>]   default 16
                   [--seed <n>]     default 7
                   [--version <v>]  default 4.8
                   [--jobs <n>]     worker threads (default: hardware threads)
                   [--retries <n>]  retry budget for boots and panicking trials (default 0)
    benchmark    score and rank versions by erroneous-state handling
                   [--jobs <n>]    worker threads (default: hardware threads)
                   [--cell-deadline-ms <n>]  per-cell deadline, checked when the
                                   cell returns (default: none)
                   [--retries <n>] extra boot attempts for transient failures (default 0)
                   [--trace-out <file>]    write the structured trace as JSONL
                   [--metrics-out <file>]  write the metrics snapshot as JSON
                   [--no-tlb]      disable the software TLB (escape hatch)
    trace        inspect a JSONL trace written by --trace-out
                   summary <file>   per-phase self-time profile + slowest cells
                                    [--top <n>]  slowest cells to list (default 10)
                   validate <file>  check every line against the event schema;
                                    reports every malformed line with its line
                                    number and exits nonzero
    taxonomy     print the abusive-functionality study (Table I)
    models       list the available use cases and their intrusion models
    help         this text

EXIT CODES:
    0  clean run, no security violations observed
    1  the assessment observed at least one security violation (that is
       the expected result of the paper's campaigns)
    2  harness degradation (a cell crashed / timed out / failed to boot)
       or a CLI error
";

/// What the process should report via its exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CliOutcome {
    /// Exit 0: nothing violated, nothing degraded.
    Clean,
    /// Exit 1: the assessment observed security violations.
    Violations,
    /// Exit 2: the harness degraded (crash / deadline / boot failure).
    Degraded,
}

impl CliOutcome {
    fn exit_code(self) -> ExitCode {
        match self {
            CliOutcome::Clean => ExitCode::SUCCESS,
            CliOutcome::Violations => ExitCode::from(1),
            CliOutcome::Degraded => ExitCode::from(2),
        }
    }

    /// Degradation dominates violations; violations dominate clean.
    fn for_report(report: &CampaignReport) -> Self {
        if report.is_degraded() {
            CliOutcome::Degraded
        } else if report.has_violations() {
            CliOutcome::Violations
        } else {
            CliOutcome::Clean
        }
    }

    /// Same dominance order for a streamed report.
    fn for_stream(report: &StreamReport) -> Self {
        if report.is_degraded() {
            CliOutcome::Degraded
        } else if report.has_violations() {
            CliOutcome::Violations
        } else {
            CliOutcome::Clean
        }
    }

    fn for_summary(summary: &RandomizedSummary) -> Self {
        if summary.degraded > 0 {
            CliOutcome::Degraded
        } else if summary.crashes > 0 || summary.violated > 0 {
            CliOutcome::Violations
        } else {
            CliOutcome::Clean
        }
    }
}

fn parse_version(p: &Parsed) -> Result<XenVersion, ArgError> {
    parse_version_or(p, "4.6")
}

fn parse_version_or(p: &Parsed, default: &'static str) -> Result<XenVersion, ArgError> {
    match p.get_or("version", default) {
        "4.6" => Ok(XenVersion::V4_6),
        "4.8" => Ok(XenVersion::V4_8),
        "4.13" => Ok(XenVersion::V4_13),
        other => Err(ArgError::BadValue {
            option: "version",
            value: other.to_owned(),
            expected: "4.6, 4.8, 4.13",
        }),
    }
}

/// Parses `--jobs`; `0` (the default) lets the campaign pick one worker
/// per hardware thread.
fn parse_jobs(p: &Parsed) -> Result<usize, String> {
    p.get_or("jobs", "0")
        .parse()
        .map_err(|_| "--jobs must be a number".to_owned())
}

/// Parses `--retries` (extra attempts for transient boot failures).
fn parse_retries(p: &Parsed) -> Result<u32, String> {
    p.get_or("retries", "0")
        .parse()
        .map_err(|_| "--retries must be a number".to_owned())
}

/// Parses `--cell-deadline-ms` into the optional per-cell deadline.
fn parse_cell_deadline(p: &Parsed) -> Result<Option<Duration>, String> {
    match p.get_or("cell-deadline-ms", "0").parse::<u64>() {
        Ok(0) => Ok(None),
        Ok(ms) => Ok(Some(Duration::from_millis(ms))),
        Err(_) => Err("--cell-deadline-ms must be a number".to_owned()),
    }
}

/// Applies the shared fault-containment and grid options to a campaign.
fn configure_campaign(mut campaign: Campaign, p: &Parsed) -> Result<Campaign, String> {
    campaign = campaign.jobs(parse_jobs(p)?).retries(parse_retries(p)?);
    if let Some(deadline) = parse_cell_deadline(p)? {
        campaign = campaign.cell_deadline(deadline);
    }
    if p.has_flag("no-tlb") {
        campaign = campaign.use_tlb(false);
    }
    if let Some(raw) = p.options.get("chunk-frames") {
        let chunk: usize = raw
            .parse()
            .ok()
            .filter(|&c| c > 0)
            .ok_or("--chunk-frames must be a positive number".to_owned())?;
        campaign = campaign.world_factory(standard_world_factory(Some(chunk)));
    }
    let trials: u64 =
        p.get_or("trials", "1").parse().map_err(|_| "--trials must be a number".to_owned())?;
    campaign = campaign.trials(trials);
    if let Some(raw) = p.options.get("shard") {
        campaign = campaign.shard(Shard::parse(raw).map_err(|e| format!("--shard: {e}"))?);
    }
    if let Some(raw) = p.options.get("checkpoint-interval") {
        let interval: u64 =
            raw.parse().map_err(|_| "--checkpoint-interval must be a number".to_owned())?;
        campaign = campaign.checkpoint_interval(interval);
    }
    if p.has_flag("journal-slots") {
        campaign = campaign.journal_slots(true);
    }
    if let Some(raw) = p.options.get("chaos-seed") {
        let seed: u64 =
            raw.parse().map_err(|_| "--chaos-seed must be a number".to_owned())?;
        campaign = campaign.chaos(ChaosConfig::standard(seed));
    }
    if let Some(raw) = p.options.get("flight-capacity") {
        let capacity: usize =
            raw.parse().map_err(|_| "--flight-capacity must be a number".to_owned())?;
        campaign = campaign.flight_capacity(capacity);
    }
    if let Some(dir) = p.options.get("flight-out") {
        campaign = campaign.flight_out(PathBuf::from(dir));
    }
    if let Some(raw) = p.options.get("metrics-interval-ms") {
        let ms: u64 = raw
            .parse()
            .ok()
            .filter(|&ms| ms > 0)
            .ok_or("--metrics-interval-ms must be a positive number".to_owned())?;
        campaign = campaign.metrics_interval(Duration::from_millis(ms));
    }
    if p.has_flag("progress") {
        campaign = campaign.progress(true);
    }
    Ok(campaign)
}

/// The observability hooks a campaign command may attach via
/// `--trace-out` / `--metrics-out` / `--timeline-out`. The tracer stays
/// disabled (a no-op) unless a trace file was requested; the timeline is
/// only sampled when a telemetry output asked for it.
struct ObsHooks {
    tracer: Tracer,
    registry: MetricsRegistry,
    timeline: Option<MetricsTimeline>,
}

fn attach_obs(campaign: Campaign, p: &Parsed) -> (Campaign, ObsHooks) {
    let tracer =
        if p.options.contains_key("trace-out") { Tracer::enabled() } else { Tracer::disabled() };
    let registry = MetricsRegistry::new();
    let mut campaign = campaign.tracer(tracer.clone()).metrics(registry.clone());
    let timeline = (p.options.contains_key("timeline-out")
        || p.options.contains_key("metrics-interval-ms"))
    .then(MetricsTimeline::new);
    if let Some(timeline) = &timeline {
        campaign = campaign.timeline(timeline.clone());
    }
    (campaign, ObsHooks { tracer, registry, timeline })
}

/// Writes the requested trace / metrics / timeline files after a
/// campaign ran.
fn write_obs_outputs(p: &Parsed, hooks: &ObsHooks) -> Result<(), String> {
    if let Some(path) = p.options.get("trace-out") {
        let events = hooks.tracer.drain();
        std::fs::write(path, to_jsonl(&events))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {} trace events to {path}", events.len());
    }
    if let Some(path) = p.options.get("metrics-out") {
        let snapshot = serde_json::to_string_pretty(&hooks.registry.snapshot())
            .map_err(|e| e.to_string())?;
        std::fs::write(path, snapshot).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = p.options.get("timeline-out") {
        if let Some(timeline) = &hooks.timeline {
            std::fs::write(path, timeline.to_jsonl())
                .map_err(|e| format!("could not write {path}: {e}"))?;
            eprintln!("wrote {} timeline samples to {path}", timeline.len());
        }
    }
    Ok(())
}

/// Writes one `slot-<n>.jsonl` forensic dump per degraded cell into the
/// `--flight-out` directory (stall dumps land there too, written live by
/// the telemetry supervisor as `stall-worker-<n>.jsonl`).
fn write_flight_dumps<'a>(
    p: &Parsed,
    tails: impl Iterator<Item = (u64, &'a [FlightEvent])>,
) -> Result<(), String> {
    let Some(dir) = p.options.get("flight-out") else {
        return Ok(());
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    let mut written = 0usize;
    for (slot, tail) in tails {
        if tail.is_empty() {
            continue;
        }
        let path = dir.join(format!("slot-{slot}.jsonl"));
        std::fs::write(&path, flight::dump_jsonl(tail))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        written += 1;
    }
    eprintln!("wrote {written} flight dump(s) to {}", dir.display());
    Ok(())
}

fn all_use_cases() -> Vec<Box<dyn UseCase>> {
    paper_use_cases().into_iter().chain(extension_use_cases()).collect()
}

fn find_use_case(name: &str) -> Option<Box<dyn UseCase>> {
    all_use_cases().into_iter().find(|uc| uc.name().eq_ignore_ascii_case(name))
}

fn cmd_campaign(p: &Parsed) -> Result<CliOutcome, String> {
    // `campaign resume <journal>` is the only positional form.
    let resume_path = match p.positionals.first().map(String::as_str) {
        None => None,
        Some("resume") => {
            let path =
                p.positionals.get(1).ok_or("campaign resume needs a journal path")?.clone();
            if let Some(extra) = p.positionals.get(2) {
                return Err(format!("unexpected argument '{extra}'"));
            }
            Some(path)
        }
        Some(other) => return Err(format!("unexpected argument '{other}'")),
    };
    let resume_header = resume_path
        .as_deref()
        .map(|path| read_header(Path::new(path)).map_err(|e| e.to_string()))
        .transpose()?;
    let mut campaign = configure_campaign(Campaign::new(), p)?;
    // On resume the journal header is authoritative for the grid shape:
    // restore extensions, trials, and shard from it so the resumed grid
    // matches (resume still verifies the full fingerprint and refuses a
    // journal from a different campaign).
    let want_extensions = p.has_flag("extensions")
        || resume_header
            .as_ref()
            .is_some_and(|h| h.grid.use_cases.len() > paper_use_cases().len());
    for uc in paper_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    if want_extensions {
        for uc in extension_use_cases() {
            campaign = campaign.with_use_case(uc);
        }
    }
    if let Some(header) = &resume_header {
        campaign = campaign.trials(header.grid.trials);
        if let Some(shard) = header.shard {
            campaign = campaign.shard(shard);
        }
    }
    let (campaign, hooks) = attach_obs(campaign, p);
    let streaming = p.has_flag("stream")
        || resume_path.is_some()
        || p.options.contains_key("checkpoint")
        || p.options.contains_key("chaos-seed");
    if streaming {
        let outcome = if let Some(path) = &resume_path {
            eprintln!("resuming the campaign from {path} ...");
            campaign.resume(Path::new(path)).map_err(|e| e.to_string())?
        } else if let Some(path) = p.options.get("checkpoint") {
            eprintln!("streaming the campaign (journal: {path}) ...");
            campaign.run_streaming_checkpointed(Path::new(path)).map_err(|e| e.to_string())?
        } else {
            eprintln!("streaming the campaign ...");
            campaign.run_streaming()
        };
        write_obs_outputs(p, &hooks)?;
        write_flight_dumps(
            p,
            outcome
                .report
                .degraded_slots
                .iter()
                .map(|(&slot, degraded)| (slot, degraded.flight.as_slice())),
        )?;
        if let Some(path) = p.options.get("report-out") {
            let json = outcome.report.normalized().to_json().map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
            eprintln!("wrote normalized stream report to {path}");
        }
        let exit = CliOutcome::for_stream(&outcome.report);
        if p.has_flag("json") {
            println!("{}", outcome.report.to_json().map_err(|e| e.to_string())?);
            return Ok(exit);
        }
        println!("{}", outcome.report.render_keys());
        let s = outcome.stats;
        println!(
            "pipeline: {} workers, {:.0} cells/sec, peak resident {} cells",
            s.workers, s.cells_per_sec, s.peak_resident_cells,
        );
        println!("merge {} us, base-world wait {} us", s.merge_us, s.base_world_wait_us);
        if outcome.report.degraded > 0 {
            eprintln!(
                "warning: {} cell(s) degraded (crash / deadline / boot failure)",
                outcome.report.degraded
            );
        }
        return Ok(exit);
    }
    eprintln!("running the campaign ...");
    let report = campaign.run();
    write_obs_outputs(p, &hooks)?;
    // A classic cell does not carry its slot, but every event in its
    // forensic tail does.
    write_flight_dumps(
        p,
        report
            .cells()
            .iter()
            .filter_map(|cell| Some((cell.flight.first()?.slot, cell.flight.as_slice()))),
    )?;
    let outcome = CliOutcome::for_report(&report);
    if p.has_flag("json") {
        println!("{}", report.to_json().map_err(|e| e.to_string())?);
        return Ok(outcome);
    }
    println!("{}", report.render_table2());
    println!("{}", report.render_fig4());
    println!("{}", report.render_table3());
    let degraded = report.degraded_cells().count();
    if degraded > 0 {
        eprintln!("warning: {degraded} cell(s) degraded (crash / deadline / boot failure):");
        for cell in report.degraded_cells() {
            let error =
                cell.error.as_ref().map_or_else(|| "unknown".to_owned(), ToString::to_string);
            eprintln!("  ! {} / Xen {} / {}: {error}", cell.use_case, cell.version, cell.mode);
        }
    }
    Ok(outcome)
}

fn cmd_run(p: &Parsed) -> Result<CliOutcome, String> {
    let name = p.require("use-case").map_err(|e| e.to_string())?;
    let uc = find_use_case(name).ok_or_else(|| {
        format!("unknown use case '{name}' (see 'intrusion-injector models')")
    })?;
    let version = parse_version(p).map_err(|e| e.to_string())?;
    let mode = match p.get_or("mode", "injection") {
        "exploit" => Mode::Exploit,
        "injection" => Mode::Injection,
        other => return Err(format!("--mode got '{other}', expected exploit|injection")),
    };
    let mut world = standard_world(version, mode == Mode::Injection)
        .map_err(|e| format!("world failed to boot: {e}"))?;
    let attacker = world
        .domain_by_name("guest03")
        .ok_or_else(|| "standard world has no attacker guest".to_owned())?;
    println!("{} / Xen {version} / {mode}", uc.name());
    println!("intrusion model: {}", uc.intrusion_model());
    let outcome = match mode {
        Mode::Exploit => uc.run_exploit(&mut world, attacker),
        Mode::Injection => uc.run_injection(&mut world, attacker, &ArbitraryAccessInjector),
    };
    for note in &outcome.notes {
        println!("  | {note}");
    }
    println!("erroneous state: {}", outcome.erroneous_state);
    if let Some(audit) = &outcome.state_audit {
        println!("audit evidence:  {}", audit.evidence);
    }
    if let Some(err) = &outcome.error {
        println!("failure:         {err}");
    }
    let observation = uc.monitor(&world, attacker).observe(&world);
    if observation.is_clean() {
        println!("security violations: none (state handled)");
        Ok(CliOutcome::Clean)
    } else {
        println!("security violations:");
        for v in &observation.violations {
            println!("  ! {v}");
        }
        Ok(CliOutcome::Violations)
    }
}

fn cmd_randomized(p: &Parsed) -> Result<CliOutcome, String> {
    let region = match p.get_or("region", "idt") {
        "idt" => TargetRegion::IdtGates { cpu: 0 },
        "l3" => TargetRegion::SharedL3,
        "pagetables" => TargetRegion::DomainPageTables,
        "frames" => TargetRegion::DomainFrames,
        other => return Err(format!("--region got '{other}', expected idt|l3|pagetables|frames")),
    };
    let trials: usize = p.get_or("trials", "16").parse().map_err(|_| "--trials must be a number")?;
    let seed: u64 = p.get_or("seed", "7").parse().map_err(|_| "--seed must be a number")?;
    // The randomized sweep targets a non-vulnerable version by default
    // (the HELP text's documented 4.8), unlike `run`'s 4.6.
    let version = parse_version_or(p, "4.8").map_err(|e| e.to_string())?;
    let campaign = RandomizedCampaign::new(region, trials, seed)
        .with_jobs(parse_jobs(p)?)
        .retries(parse_retries(p)?);
    eprintln!("running {trials} trials against {} on Xen {version} ...", region.label());
    let (summary, outcomes) = campaign
        .run(|| {
            let w = standard_world(version, true)?;
            let a = w
                .domain_by_name("guest03")
                .ok_or_else(|| guestos::BootError::new("find attacker", "no guest03"))?;
            Ok((w, a))
        })
        .map_err(|e| e.to_string())?;
    println!("{summary}");
    for (i, o) in outcomes.iter().enumerate() {
        match &o.error {
            Some(error) => println!("  trial {i:>3}: degraded: {error}"),
            None => println!(
                "  trial {i:>3}: {} injected={} crashed={} violations={}",
                o.spec, o.injected, o.crashed, o.violations
            ),
        }
    }
    Ok(CliOutcome::for_summary(&summary))
}

fn cmd_benchmark(p: &Parsed) -> Result<CliOutcome, String> {
    let mut campaign = configure_campaign(Campaign::new(), p)?;
    for uc in all_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    let (campaign, hooks) = attach_obs(campaign, p);
    eprintln!("running the extended campaign ...");
    let report = campaign.run();
    write_obs_outputs(p, &hooks)?;
    let benchmark = SecurityBenchmark::from_report(&report);
    println!("{}", benchmark.render());
    for (i, (version, score)) in benchmark.ranking().iter().enumerate() {
        println!("  {}. Xen {version}  score {score:.2}", i + 1);
    }
    Ok(CliOutcome::for_report(&report))
}

fn cmd_trace(p: &Parsed) -> Result<CliOutcome, String> {
    let action = p
        .positionals
        .first()
        .ok_or("trace needs an action: trace summary <file> | trace validate <file>")?;
    let path = p
        .positionals
        .get(1)
        .ok_or_else(|| format!("trace {action} needs a file path"))?;
    if let Some(extra) = p.positionals.get(2) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    match action.as_str() {
        "validate" => {
            // Validate every line, not just up to the first error: a
            // corrupted trace usually has several bad lines and fixing
            // them one resubmission at a time is miserable.
            let mut events = 0usize;
            let mut errors: Vec<ParseError> = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_line(line) {
                    Ok(_) => events += 1,
                    Err(e) => errors.push(ParseError { line: i + 1, ..e }),
                }
            }
            if errors.is_empty() {
                println!("{path}: {events} events, every line schema-valid");
                return Ok(CliOutcome::Clean);
            }
            for e in &errors {
                eprintln!("{path}:{}: {}", e.line, e.message);
            }
            Err(format!(
                "{path}: {} invalid line(s) out of {}",
                errors.len(),
                errors.len() + events
            ))
        }
        "summary" => {
            let top: usize =
                p.get_or("top", "10").parse().map_err(|_| "--top must be a number")?;
            let events = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", TraceSummary::compute(&events).render(top));
            Ok(CliOutcome::Clean)
        }
        other => Err(format!("unknown trace action '{other}' (expected summary|validate)")),
    }
}

/// `report merge <out> <in>...` — merge streamed (shard) reports into
/// one. Merging normalized shard reports reproduces the normalized
/// unsharded report byte-for-byte; merging raw reports sums the raw
/// wall-clock aggregates instead.
fn cmd_report(p: &Parsed) -> Result<CliOutcome, String> {
    let action = p
        .positionals
        .first()
        .ok_or("report needs an action: report merge <out> <in>... | report diff <a> <b>")?;
    match action.as_str() {
        "merge" => cmd_report_merge(p),
        "diff" => cmd_report_diff(p),
        other => Err(format!("unknown report action '{other}' (expected merge|diff)")),
    }
}

fn cmd_report_merge(p: &Parsed) -> Result<CliOutcome, String> {
    let out = p.positionals.get(1).ok_or("report merge needs an output path")?;
    let inputs = &p.positionals[2..];
    if inputs.is_empty() {
        return Err("report merge needs at least one input report".to_owned());
    }
    let mut merged = StreamReport::default();
    for path in inputs {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let report = StreamReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        // Refuse loudly instead of silently double-counting: reports
        // from different grids or overlapping shards never merge.
        merged = merged.try_merge(&report).map_err(|e| format!("{path}: {e}"))?;
    }
    let json = merged.to_json().map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("could not write {out}: {e}"))?;
    eprintln!("merged {} report(s) into {out} ({} cells)", inputs.len(), merged.cells);
    Ok(CliOutcome::Clean)
}

/// Flattens a JSON document into dotted-path leaves (`a.b[2].c`), the
/// unit `report diff` compares.
fn flatten_json(prefix: &str, v: &Value, out: &mut BTreeMap<String, Value>) {
    match v {
        Value::Map(entries) => {
            for (key, value) in entries {
                let path =
                    if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                flatten_json(&path, value, out);
            }
        }
        Value::Seq(items) => {
            for (i, value) in items.iter().enumerate() {
                flatten_json(&format!("{prefix}[{i}]"), value, out);
            }
        }
        leaf => {
            out.insert(prefix.to_owned(), leaf.clone());
        }
    }
}

fn render_leaf(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(_) | Value::Map(_) => "<composite>".to_owned(),
    }
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `report diff <a> <b>` — leaf-by-leaf comparison of two JSON
/// documents (campaign reports, metrics snapshots, benchmark files).
/// Numeric leaves get a signed delta. Exits 0 when identical, 1 when
/// the documents differ.
fn cmd_report_diff(p: &Parsed) -> Result<CliOutcome, String> {
    let a_path = p.positionals.get(1).ok_or("report diff needs two paths: diff <a> <b>")?;
    let b_path = p.positionals.get(2).ok_or("report diff needs two paths: diff <a> <b>")?;
    if let Some(extra) = p.positionals.get(3) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let load = |path: &str| -> Result<BTreeMap<String, Value>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: not JSON: {e}"))?;
        let mut leaves = BTreeMap::new();
        flatten_json("", &doc, &mut leaves);
        Ok(leaves)
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut changed = 0usize;
    let mut unchanged = 0usize;
    for (path, va) in &a {
        match b.get(path) {
            None => {
                changed += 1;
                println!("- {path} = {}", render_leaf(va));
            }
            Some(vb) if va == vb => unchanged += 1,
            Some(vb) => {
                changed += 1;
                match (as_number(va), as_number(vb)) {
                    (Some(na), Some(nb)) => {
                        println!(
                            "~ {path}: {} -> {} ({:+})",
                            render_leaf(va),
                            render_leaf(vb),
                            nb - na
                        );
                    }
                    _ => println!("~ {path}: {} -> {}", render_leaf(va), render_leaf(vb)),
                }
            }
        }
    }
    for (path, vb) in &b {
        if !a.contains_key(path) {
            changed += 1;
            println!("+ {path} = {}", render_leaf(vb));
        }
    }
    if changed == 0 {
        println!("identical: {unchanged} leaves agree");
        Ok(CliOutcome::Clean)
    } else {
        println!("{changed} leaves differ, {unchanged} agree");
        // Same exit class as "the assessment found something": callers
        // gating on drift want a nonzero exit without a CLI error.
        Ok(CliOutcome::Violations)
    }
}

fn cmd_models() -> Result<CliOutcome, String> {
    for uc in all_use_cases() {
        let im = uc.intrusion_model();
        println!("{:<14} {im}", uc.name());
        if !im.related_advisories.is_empty() {
            println!("{:<14}   generalizes: {}", "", im.related_advisories.join(", "));
        }
    }
    Ok(CliOutcome::Clean)
}

fn run(argv: Vec<String>) -> Result<CliOutcome, String> {
    let parsed = args::parse(argv).map_err(|e| e.to_string())?;
    // Only `trace` (action + file), `report` (action + paths), and
    // `campaign` (`resume <journal>`) take positional arguments; each
    // validates its own.
    if parsed.command != "trace" && parsed.command != "report" && parsed.command != "campaign" {
        parsed.no_positionals().map_err(|e| e.to_string())?;
    }
    match parsed.command.as_str() {
        "campaign" => cmd_campaign(&parsed),
        "run" => cmd_run(&parsed),
        "randomized" => cmd_randomized(&parsed),
        "benchmark" => cmd_benchmark(&parsed),
        "trace" => cmd_trace(&parsed),
        "report" => cmd_report(&parsed),
        "taxonomy" => {
            println!("{}", xsa_exploits::advisories::render_table1());
            Ok(CliOutcome::Clean)
        }
        "models" => cmd_models(),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(CliOutcome::Clean)
        }
        other => Err(format!("unknown command '{other}' (try 'help')")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = if argv.is_empty() { vec!["help".to_owned()] } else { argv };
    match run(argv) {
        Ok(outcome) => outcome.exit_code(),
        // CLI errors are harness failures, same exit class as a
        // degraded campaign.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_runs() {
        run(vec!["help".into()]).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(vec!["bogus".into()]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn models_lists_all_use_cases() {
        cmd_models().unwrap();
        assert!(find_use_case("XSA-212-crash").is_some());
        assert!(find_use_case("xsa-182-test").is_some(), "case-insensitive");
        assert!(find_use_case("MGMT-pause").is_some());
        assert!(find_use_case("nope").is_none());
    }

    #[test]
    fn run_single_injection_cell() {
        run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--version".into(),
            "4.13".into(),
            "--mode".into(),
            "injection".into(),
        ])
        .unwrap();
    }

    #[test]
    fn run_rejects_bad_version_and_mode() {
        let err = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--version".into(),
            "9.9".into(),
        ])
        .unwrap_err();
        assert!(err.contains("expected one of"));
        let err = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--mode".into(),
            "sideways".into(),
        ])
        .unwrap_err();
        assert!(err.contains("exploit|injection"));
    }

    #[test]
    fn randomized_small_sweep() {
        run(vec![
            "randomized".into(),
            "--region".into(),
            "frames".into(),
            "--trials".into(),
            "2".into(),
            "--version".into(),
            "4.13".into(),
        ])
        .unwrap();
    }

    #[test]
    fn jobs_flag_parses_and_rejects_garbage() {
        run(vec![
            "randomized".into(),
            "--trials".into(),
            "2".into(),
            "--jobs".into(),
            "2".into(),
            "--version".into(),
            "4.13".into(),
        ])
        .unwrap();
        let err = run(vec![
            "randomized".into(),
            "--jobs".into(),
            "many".into(),
        ])
        .unwrap_err();
        assert!(err.contains("--jobs"));
    }

    #[test]
    fn taxonomy_prints() {
        run(vec!["taxonomy".into()]).unwrap();
    }

    #[test]
    fn exit_outcomes_reflect_observations() {
        // The hardened version handles the injected state: exit 0.
        let outcome = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-182-test".into(),
            "--version".into(),
            "4.13".into(),
            "--mode".into(),
            "injection".into(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Clean);
        // The vulnerable version crashes: violations, exit 1.
        let outcome = run(vec![
            "run".into(),
            "--use-case".into(),
            "XSA-212-crash".into(),
            "--version".into(),
            "4.6".into(),
            "--mode".into(),
            "injection".into(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Violations);
    }

    #[test]
    fn degradation_dominates_violations_in_exit_mapping() {
        use intrusion_core::{CampaignError, CellOutcome, CellResult, SecurityViolation};
        let cell = |violations: Vec<SecurityViolation>, error: Option<CampaignError>| CellResult {
            use_case: "t".into(),
            abusive_functionality: "f".into(),
            version: XenVersion::V4_6,
            mode: Mode::Injection,
            erroneous_state: true,
            violations,
            handled: false,
            notes: vec![],
            error,
            outcome: CellOutcome::Completed,
            attempts: 1,
            wall_time_us: 0,
            hypercalls: 0,
            phase_us: intrusion_core::PhaseTimings::default(),
            snapshot: hvsim::SnapshotStats::default(),
            tlb: hvsim::TlbStats::default(),
            flight: Vec::new(),
        };
        let violation = SecurityViolation::HypervisorCrash { message: "x".into() };
        let clean = CampaignReport::from_cells(vec![cell(vec![], None)]);
        assert_eq!(CliOutcome::for_report(&clean), CliOutcome::Clean);
        let violated = CampaignReport::from_cells(vec![cell(vec![violation.clone()], None)]);
        assert_eq!(CliOutcome::for_report(&violated), CliOutcome::Violations);
        let degraded = CampaignReport::from_cells(vec![
            cell(vec![violation], None),
            cell(vec![], Some(CampaignError::HarnessCrash { payload: "boom".into() })),
        ]);
        assert_eq!(CliOutcome::for_report(&degraded), CliOutcome::Degraded);
    }

    #[test]
    fn trace_roundtrip_via_campaign() {
        let dir = std::env::temp_dir();
        let trace = dir.join("cli_trace_roundtrip.jsonl").display().to_string();
        let metrics = dir.join("cli_metrics_roundtrip.json").display().to_string();
        run(vec![
            "campaign".into(),
            "--jobs".into(),
            "2".into(),
            "--trace-out".into(),
            trace.clone(),
            "--metrics-out".into(),
            metrics.clone(),
        ])
        .unwrap();
        run(vec!["trace".into(), "validate".into(), trace.clone()]).unwrap();
        run(vec![
            "trace".into(),
            "summary".into(),
            trace.clone(),
            "--top".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(
            std::fs::read_to_string(&metrics).unwrap().contains("campaign.cells"),
            "metrics snapshot carries the campaign counters"
        );
        let err = run(vec!["trace".into(), "summary".into()]).unwrap_err();
        assert!(err.contains("file path"));
        let err = run(vec!["trace".into(), "frobnicate".into(), trace]).unwrap_err();
        assert!(err.contains("summary|validate"));
    }

    #[test]
    fn streamed_shards_merge_to_the_unsharded_report() {
        let dir = std::env::temp_dir();
        let full = dir.join("cli_stream_full.json").display().to_string();
        let s0 = dir.join("cli_stream_s0.json").display().to_string();
        let s1 = dir.join("cli_stream_s1.json").display().to_string();
        let merged = dir.join("cli_stream_merged.json").display().to_string();
        let stream = |extra: Vec<String>| {
            let mut argv = vec![
                "campaign".into(),
                "--stream".into(),
                "--jobs".into(),
                "2".into(),
            ];
            argv.extend(extra);
            run(argv).unwrap()
        };
        let outcome = stream(vec!["--report-out".into(), full.clone()]);
        assert_eq!(outcome, CliOutcome::Violations, "vulnerable versions violate");
        stream(vec!["--shard".into(), "0/2".into(), "--report-out".into(), s0.clone()]);
        stream(vec!["--shard".into(), "1/2".into(), "--report-out".into(), s1.clone()]);
        run(vec!["report".into(), "merge".into(), merged.clone(), s0, s1]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&merged).unwrap(),
            "merged shard reports must be byte-identical to the unsharded report"
        );
        let err = run(vec!["report".into(), "merge".into(), merged]).unwrap_err();
        assert!(err.contains("at least one input"));
        let err = run(vec!["report".into(), "explode".into()]).unwrap_err();
        assert!(err.contains("expected merge"));
        let err = run(vec!["campaign".into(), "--shard".into(), "5/2".into()]).unwrap_err();
        assert!(err.contains("--shard"));
    }

    #[test]
    fn checkpointed_run_resumes_to_the_same_report() {
        let dir = std::env::temp_dir();
        let journal = dir.join("cli_ckpt.journal").display().to_string();
        let full = dir.join("cli_ckpt_full.json").display().to_string();
        let resumed = dir.join("cli_ckpt_resumed.json").display().to_string();
        // A full checkpointed run with the opt-in forensic sidecar: the
        // journal ends complete and the sidecar holds slot records.
        let outcome = run(vec![
            "campaign".into(),
            "--checkpoint".into(),
            journal.clone(),
            "--checkpoint-interval".into(),
            "4".into(),
            "--journal-slots".into(),
            "--jobs".into(),
            "2".into(),
            "--report-out".into(),
            full.clone(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Violations);
        let sidecar = std::fs::read_to_string(format!("{journal}.slots")).unwrap();
        assert!(sidecar.contains("journal/slot"), "--journal-slots streams forensics");
        // Tear the journal's tail (simulating a mid-write kill), then
        // resume: the normalized report must come back byte-identical.
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - bytes.len() / 4]).unwrap();
        let outcome = run(vec![
            "campaign".into(),
            "resume".into(),
            journal.clone(),
            "--jobs".into(),
            "2".into(),
            "--report-out".into(),
            resumed.clone(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Violations);
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "resumed report must be byte-identical to the uninterrupted one"
        );
        // Resuming something that is not a journal fails loudly.
        let not_journal = dir.join("cli_ckpt_not_a_journal").display().to_string();
        std::fs::write(&not_journal, "definitely not a journal\n").unwrap();
        let err = run(vec!["campaign".into(), "resume".into(), not_journal]).unwrap_err();
        assert!(err.contains("journal"), "non-journals are rejected: {err}");
        let err = run(vec!["campaign".into(), "resume".into()]).unwrap_err();
        assert!(err.contains("journal path"));
        let err = run(vec!["campaign".into(), "sideways".into()]).unwrap_err();
        assert!(err.contains("unexpected argument"));
        for stale in [journal.clone(), format!("{journal}.slots"), full, resumed] {
            std::fs::remove_file(stale).ok();
        }
    }

    #[test]
    fn report_merge_refuses_mismatched_or_overlapping_inputs() {
        let dir = std::env::temp_dir();
        let a = dir.join("cli_merge_a.json").display().to_string();
        let merged = dir.join("cli_merge_out.json").display().to_string();
        run(vec![
            "campaign".into(),
            "--stream".into(),
            "--jobs".into(),
            "2".into(),
            "--shard".into(),
            "0/2".into(),
            "--report-out".into(),
            a.clone(),
        ])
        .unwrap();
        // The same shard twice would double-count every slot.
        let err =
            run(vec!["report".into(), "merge".into(), merged, a.clone(), a]).unwrap_err();
        assert!(err.contains("overlap"), "overlap is refused loudly: {err}");
    }

    #[test]
    fn chaos_seed_runs_deterministically_degraded() {
        let dir = std::env::temp_dir();
        let r1 = dir.join("cli_chaos_1.json").display().to_string();
        let r8 = dir.join("cli_chaos_8.json").display().to_string();
        let chaos = |jobs: &str, out: &str| {
            run(vec![
                "campaign".into(),
                "--chaos-seed".into(),
                "7".into(),
                "--jobs".into(),
                jobs.into(),
                "--report-out".into(),
                out.into(),
            ])
            .unwrap()
        };
        assert_eq!(chaos("1", &r1), CliOutcome::Degraded, "chaos degrades the run: exit 2");
        assert_eq!(chaos("8", &r8), CliOutcome::Degraded);
        assert_eq!(
            std::fs::read_to_string(&r1).unwrap(),
            std::fs::read_to_string(&r8).unwrap(),
            "seeded chaos is schedule-independent: jobs 1 and 8 agree byte-for-byte"
        );
        let err = run(vec!["campaign".into(), "--chaos-seed".into(), "soon".into()]).unwrap_err();
        assert!(err.contains("--chaos-seed"));
    }

    #[test]
    fn trace_validate_reports_every_bad_line() {
        let dir = std::env::temp_dir();
        let path = dir.join("cli_trace_corrupt.jsonl").display().to_string();
        // Two valid lines from a real tracer, two corrupted lines
        // interleaved: validate must report both with line numbers.
        let tracer = Tracer::enabled();
        drop(tracer.ctx(1).span("cell"));
        let valid = to_jsonl(&tracer.drain());
        let mut lines = valid.lines();
        let first = lines.next().unwrap();
        let second = lines.next().unwrap();
        let text = format!("{first}\nthis is not json\n{second}\n{{\"shard\":1}}\n");
        std::fs::write(&path, text).unwrap();
        let err = run(vec!["trace".into(), "validate".into(), path.clone()]).unwrap_err();
        assert!(err.contains("2 invalid line(s) out of 4"), "all bad lines counted: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_diff_flags_changes_and_identity() {
        let dir = std::env::temp_dir();
        let a = dir.join("cli_diff_a.json").display().to_string();
        let b = dir.join("cli_diff_b.json").display().to_string();
        std::fs::write(&a, r#"{"cells":3,"degraded":0,"tag":"x","gone":1}"#).unwrap();
        std::fs::write(&b, r#"{"cells":5,"degraded":0,"tag":"y","new":[1,2]}"#).unwrap();
        let outcome =
            run(vec!["report".into(), "diff".into(), a.clone(), b.clone()]).unwrap();
        assert_eq!(outcome, CliOutcome::Violations, "differing documents exit 1");
        let outcome = run(vec!["report".into(), "diff".into(), a.clone(), a.clone()]).unwrap();
        assert_eq!(outcome, CliOutcome::Clean, "a document never differs from itself");
        let err = run(vec!["report".into(), "diff".into(), a.clone()]).unwrap_err();
        assert!(err.contains("two paths"));
        let err = run(vec!["report".into(), "diff".into(), a.clone(), b, a]).unwrap_err();
        assert!(err.contains("unexpected argument"));
        let not_json = dir.join("cli_diff_nj.json").display().to_string();
        std::fs::write(&not_json, "][").unwrap();
        let err =
            run(vec!["report".into(), "diff".into(), not_json.clone(), not_json]).unwrap_err();
        assert!(err.contains("not JSON"));
    }

    #[test]
    fn chaos_run_writes_flight_dumps_and_timeline() {
        let dir = std::env::temp_dir().join("cli_flight_dumps");
        std::fs::remove_dir_all(&dir).ok();
        let dumps = dir.display().to_string();
        let timeline = std::env::temp_dir().join("cli_timeline.jsonl").display().to_string();
        let outcome = run(vec![
            "campaign".into(),
            "--chaos-seed".into(),
            "7".into(),
            "--jobs".into(),
            "2".into(),
            "--progress".into(),
            "--flight-out".into(),
            dumps.clone(),
            "--timeline-out".into(),
            timeline.clone(),
            "--metrics-interval-ms".into(),
            "25".into(),
        ])
        .unwrap();
        assert_eq!(outcome, CliOutcome::Degraded, "seed 7 degrades cells");
        // Every degraded slot carries a non-empty, schema-valid dump.
        let mut dump_files = 0usize;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            if !name.starts_with("slot-") {
                continue;
            }
            dump_files += 1;
            assert!(std::fs::metadata(&path).unwrap().len() > 0, "{name} must not be empty");
            run(vec!["trace".into(), "validate".into(), path.display().to_string()])
                .expect("flight dumps are trace-schema JSONL");
        }
        assert!(dump_files > 0, "a degraded chaos run must leave forensic dumps");
        let samples = std::fs::read_to_string(&timeline).unwrap();
        assert!(samples.contains("progress.done"), "timeline carries progress: {samples}");
        assert!(samples.contains("resident.cells"), "timeline carries stream gauges");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(timeline).ok();
        let err = run(vec![
            "campaign".into(),
            "--metrics-interval-ms".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert!(err.contains("--metrics-interval-ms"));
        let err =
            run(vec!["campaign".into(), "--flight-capacity".into(), "big".into()]).unwrap_err();
        assert!(err.contains("--flight-capacity"));
    }

    #[test]
    fn fault_containment_flags_parse_and_reject_garbage() {
        run(vec![
            "randomized".into(),
            "--trials".into(),
            "2".into(),
            "--version".into(),
            "4.13".into(),
            "--retries".into(),
            "1".into(),
        ])
        .unwrap();
        let err = run(vec!["randomized".into(), "--retries".into(), "lots".into()]).unwrap_err();
        assert!(err.contains("--retries"));
        let err =
            run(vec!["campaign".into(), "--cell-deadline-ms".into(), "soon".into()]).unwrap_err();
        assert!(err.contains("--cell-deadline-ms"));
    }
}
