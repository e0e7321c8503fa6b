//! The assessment campaign runner: every use case × version × mode, with
//! monitoring — the machinery behind the paper's Tables II/III and
//! Figs. 2/4.

use crate::chaos::{splitmix64, ChaosConfig, ChaosPolicy, ChaosSink, ChaosUseCase};
use crate::checkpoint::{fnv64, slot_digest, CheckpointSession, JournalSink, SlotBuffer};
use crate::error::{panic_payload, CampaignError, CellId, CellOutcome, CheckpointError};
use crate::executor::{self, SlotPlan};
use crate::injector::ArbitraryAccessInjector;
use crate::monitor::SecurityViolation;
use crate::obs_bridge;
use crate::report::{TextTable, CHECK, SHIELD};
use crate::scenario::{Mode, UseCase};
use crate::stream::{
    CellSpec, GridFingerprint, PartialFold, ResidentGauge, Shard, SpecGrid, StreamOutcome,
    StreamRunStats,
};
use crate::telemetry::{self, Telemetry};
use guestos::{BootError, World, WorldBuilder};
use hvsim::{SnapshotStats, TlbStats, XenVersion};
use hvsim_obs::{
    FlightEvent, FlightHandle, HistogramSummary, MetricsRegistry, MetricsSnapshot,
    MetricsTimeline, TraceCtx, Tracer, DEFAULT_FLIGHT_CAPACITY,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Builds a fresh world for one campaign cell: `(version,
/// injector_enabled)` — the paper keeps everything else identical across
/// runs ("the build and experimental environment are kept the same",
/// §V-B). Shared across worker threads, hence `Arc + Send + Sync`.
/// Boot failures are data: the campaign records them per cell instead of
/// aborting, and retries transient ones under its retry budget.
pub type WorldFactory = Arc<dyn Fn(XenVersion, bool) -> Result<World, BootError> + Send + Sync>;

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The world used throughout the evaluation: privileged dom0 (`xen3`)
/// plus guests `xen2` and `guest03`; `guest03` is the compromised guest
/// the exploits run in.
///
/// # Errors
///
/// Propagates [`BootError`] from world construction.
pub fn standard_world(version: XenVersion, injector: bool) -> Result<World, BootError> {
    WorldBuilder::new(version)
        .injector(injector)
        .guest("xen2", 64)
        .guest("guest03", 64)
        .build()
}

/// A [`WorldFactory`] building [`standard_world`]s with an explicit
/// copy-on-write chunk size (`None` keeps the default). Chunking is a
/// pure performance knob, so campaigns run through this factory must
/// produce byte-identical normalized reports at any chunk size — CI
/// drives the 1-frame worst case through it.
pub fn standard_world_factory(chunk_frames: Option<usize>) -> WorldFactory {
    Arc::new(move |version, injector| {
        let mut builder = WorldBuilder::new(version)
            .injector(injector)
            .guest("xen2", 64)
            .guest("guest03", 64);
        if let Some(chunk) = chunk_frames {
            builder = builder.chunk_frames(chunk);
        }
        builder.build()
    })
}

/// Name of the attacker guest in the standard world.
pub const ATTACKER_GUEST: &str = "guest03";

/// Wall-clock time spent in each cell phase, in microseconds. `None`
/// means the phase was never reached; a phase that crashed or timed out
/// records the time it consumed before dying, so a degraded cell is
/// attributable to boot vs inject vs monitor. Which phases are `Some`
/// is deterministic for a fixed workload; the durations themselves are
/// wall-clock and are zeroed by [`CampaignReport::normalized`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// World acquisition (snapshot clone or factory boot).
    pub boot_us: Option<u64>,
    /// The scenario body (exploit or injection path).
    pub inject_us: Option<u64>,
    /// Monitoring for security violations.
    pub monitor_us: Option<u64>,
}

impl PhaseTimings {
    /// The timings with every recorded duration zeroed, preserving
    /// which phases ran.
    #[must_use]
    pub fn normalized(self) -> Self {
        Self {
            boot_us: self.boot_us.map(|_| 0),
            inject_us: self.inject_us.map(|_| 0),
            monitor_us: self.monitor_us.map(|_| 0),
        }
    }
}

/// One campaign cell: a use case run in one mode on one version.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// Use-case name (e.g. `XSA-212-crash`).
    pub use_case: String,
    /// The abusive functionality of its intrusion model (for Table II).
    pub abusive_functionality: String,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
    /// Whether the erroneous state was induced.
    pub erroneous_state: bool,
    /// Violations observed afterwards.
    pub violations: Vec<SecurityViolation>,
    /// State induced but no violation — the system *handled* it (the
    /// shield of Table III).
    pub handled: bool,
    /// The run's log.
    pub notes: Vec<String>,
    /// What went wrong, as the typed campaign taxonomy: a failed
    /// injection attempt (assessment data), or a harness failure (boot,
    /// monitor, crash, deadline).
    pub error: Option<CampaignError>,
    /// How far the cell got: completed, boot-failed, crashed, or
    /// timed out.
    pub outcome: CellOutcome,
    /// World-boot attempts consumed by this cell (1 unless transient
    /// boot failures were retried).
    pub attempts: u32,
    /// Wall-clock time spent on this cell (world acquisition + run +
    /// monitoring), in microseconds. Non-deterministic;
    /// [`CampaignReport::normalized`] zeroes it for run-to-run
    /// comparisons.
    pub wall_time_us: u64,
    /// Hypercalls executed while running this cell (deterministic for a
    /// given configuration). Kept for report compatibility; campaign
    /// totals are also published as the `campaign.hypercalls` registry
    /// counter when metrics are enabled (see [`Campaign::metrics`]).
    pub hypercalls: u64,
    /// Per-phase wall-clock breakdown — recorded for degraded cells
    /// too, so a timeout or crash is attributable to a phase.
    pub phase_us: PhaseTimings,
    /// Copy-on-write accounting of the cell's world at collection time.
    /// `frames_shared` depends on which sibling snapshots happen to be
    /// alive when the cell finishes (and `frames_copied` on whether the
    /// world was cloned or freshly booted), so the whole record is
    /// zeroed by [`CampaignReport::normalized`].
    pub snapshot: SnapshotStats,
    /// Software-TLB hit/miss counters for the cell's world. Differs by
    /// construction when the TLB is disabled, so it is zeroed by
    /// [`CampaignReport::normalized`] too.
    pub tlb: TlbStats,
    /// The cell's forensic tail: flight-recorder events its worker
    /// retained for this slot, attached only when the cell degraded
    /// (empty otherwise, and whenever the recorder is off). Cleared by
    /// [`CampaignReport::normalized`] so normalized reports are
    /// byte-identical with the recorder on or off.
    pub flight: Vec<FlightEvent>,
}

impl CellResult {
    /// `true` if at least one security violation was observed.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// `true` when the harness (not the system under test) degraded on
    /// this cell: it crashed, timed out, never booted, or lost part of
    /// its observation. Failed injection attempts are *not* degradation
    /// — they are the paper's fixed-version data points.
    pub fn degraded(&self) -> bool {
        self.outcome.is_degraded()
            || self.error.as_ref().is_some_and(CampaignError::is_harness_failure)
    }
}

/// A complete campaign report.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CampaignReport {
    cells: Vec<CellResult>,
    metrics: Option<MetricsSnapshot>,
}

impl CampaignReport {
    /// Builds a report from pre-computed cells (used by the benchmark
    /// layer and by report deserialization).
    pub fn from_cells(cells: Vec<CellResult>) -> Self {
        Self { cells, metrics: None }
    }

    /// All cells.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// The metrics snapshot taken at collection time, when the campaign
    /// ran with a registry attached (see [`Campaign::metrics`]).
    pub fn metrics(&self) -> Option<&MetricsSnapshot> {
        self.metrics.as_ref()
    }

    /// Looks up one cell.
    pub fn cell(&self, use_case: &str, version: XenVersion, mode: Mode) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.use_case == use_case && c.version == version && c.mode == mode)
    }

    /// Iterates the first cell of each use case, in campaign order — the
    /// per-use-case anchor rows shared by the Table II/III and Fig. 4
    /// renderers.
    pub fn first_cell_per_use_case(&self) -> impl Iterator<Item = &CellResult> {
        let mut seen = BTreeSet::new();
        self.cells.iter().filter(move |c| seen.insert(c.use_case.clone()))
    }

    /// A copy with every wall-clock timing zeroed — per-cell totals,
    /// per-phase breakdowns, and metric histogram quantiles. Timing is
    /// the only non-deterministic part of a report; the normalized form
    /// is byte-identical across runs and worker counts for the same
    /// configuration.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut report = self.clone();
        for cell in &mut report.cells {
            cell.wall_time_us = 0;
            cell.phase_us = cell.phase_us.normalized();
            // COW sharing depends on concurrently-alive sibling
            // snapshots (worker count, reuse) and TLB counters on the
            // cache toggle; neither is part of the assessment result.
            cell.snapshot = SnapshotStats::default();
            cell.tlb = TlbStats::default();
            // Forensic tails are wall-clock-stamped diagnostics whose
            // presence depends on the recorder setting; normalization
            // drops them so recorder-on and recorder-off reports match.
            cell.flight = Vec::new();
        }
        report.metrics = report.metrics.as_ref().map(MetricsSnapshot::normalized);
        report
    }

    /// Total wall-clock time across all cells, in microseconds.
    pub fn total_wall_time_us(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_time_us).sum()
    }

    /// Total hypercalls executed across all cells.
    pub fn total_hypercalls(&self) -> u64 {
        self.cells.iter().map(|c| c.hypercalls).sum()
    }

    /// Cells that completed cleanly (including failed injection
    /// attempts, which are assessment data).
    pub fn completed_cells(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter().filter(|c| !c.degraded())
    }

    /// Cells on which the harness degraded: crashed, timed out, failed
    /// to boot, or lost part of their observation.
    pub fn degraded_cells(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter().filter(|c| c.degraded())
    }

    /// `true` when any cell degraded — the CLI maps this to exit code 2.
    pub fn is_degraded(&self) -> bool {
        self.cells.iter().any(CellResult::degraded)
    }

    /// `true` when any cell observed a security violation — the CLI
    /// maps this to exit code 1 (when nothing degraded).
    pub fn has_violations(&self) -> bool {
        self.cells.iter().any(CellResult::violated)
    }

    /// Renders Table II: use case → abusive functionality.
    pub fn render_table2(&self) -> String {
        let mut table = TextTable::new(["Use Case", "Abusive Functionality"])
            .title("TABLE II: use cases and their abusive functionality");
        for c in self.first_cell_per_use_case() {
            table.row([c.use_case.clone(), c.abusive_functionality.clone()]);
        }
        table.to_string()
    }

    /// Renders Table III: the injection campaign on the non-vulnerable
    /// versions. A check marks a correctly induced property; the shield
    /// marks an erroneous state the system handled.
    pub fn render_table3(&self) -> String {
        let mut table = TextTable::new([
            "Use Case",
            "4.8 Err. State",
            "4.8 Sec. Viol.",
            "4.13 Err. State",
            "4.13 Sec. Viol.",
        ])
        .title(
            "TABLE III: injection campaign in non-vulnerable versions \
             (check = property induced, shield = erroneous state handled)",
        );
        for c in self.first_cell_per_use_case() {
            let mut row = vec![c.use_case.clone()];
            for version in [XenVersion::V4_8, XenVersion::V4_13] {
                match self.cell(&c.use_case, version, Mode::Injection) {
                    Some(cell) => {
                        row.push(if cell.erroneous_state { CHECK } else { "x" }.to_owned());
                        row.push(
                            if cell.violated() {
                                CHECK.to_owned()
                            } else if cell.handled {
                                SHIELD.to_owned()
                            } else {
                                "x".to_owned()
                            },
                        );
                    }
                    None => {
                        row.push("-".into());
                        row.push("-".into());
                    }
                }
            }
            table.row(row);
        }
        table.to_string()
    }

    /// Renders the Fig. 4 comparison: on the vulnerable version, does the
    /// injection reproduce the exploit's erroneous state *and* security
    /// violation?
    pub fn render_fig4(&self) -> String {
        let mut table = TextTable::new([
            "Use Case",
            "exploit err/viol (4.6)",
            "injection err/viol (4.6)",
            "equivalent",
        ])
        .title("FIG. 4: experimental validation on the vulnerable version (Xen 4.6)");
        for c in self.first_cell_per_use_case() {
            let e = self.cell(&c.use_case, XenVersion::V4_6, Mode::Exploit);
            let i = self.cell(&c.use_case, XenVersion::V4_6, Mode::Injection);
            let fmt_cell = |c: Option<&CellResult>| match c {
                Some(c) => format!(
                    "{}/{}",
                    if c.erroneous_state { CHECK } else { "x" },
                    if c.violated() { CHECK } else { "x" }
                ),
                None => "-".into(),
            };
            let equivalent = match (e, i) {
                (Some(e), Some(i)) => {
                    e.erroneous_state == i.erroneous_state && e.violated() == i.violated()
                }
                _ => false,
            };
            table.row([
                c.use_case.clone(),
                fmt_cell(e),
                fmt_cell(i),
                if equivalent { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        table.to_string()
    }

    /// Renders the Fig. 2 methodology view for one use case on one
    /// version: the traditional path vs the injection path.
    pub fn render_fig2(&self, use_case: &str, version: XenVersion) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FIG. 2: methodology paths for {use_case} on Xen {version}\n"
        ));
        for (mode, label) in [
            (Mode::Exploit, "traditional: attack -> vulnerability -> intrusion"),
            (Mode::Injection, "injection:   intrusion injector (intrusion model)"),
        ] {
            if let Some(c) = self.cell(use_case, version, mode) {
                let terminal = if c.violated() {
                    "security violation"
                } else if c.handled {
                    "erroneous state handled"
                } else {
                    "no erroneous state"
                };
                out.push_str(&format!(
                    "  {label} -> erroneous state: {} -> {terminal}\n",
                    if c.erroneous_state { "induced" } else { "not induced" },
                ));
            }
        }
        out
    }

    /// Serializes the report to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (unreachable for this data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(&self.cells)
    }
}

/// Completed/degraded histogram summaries for one cell phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseLatency {
    /// Summary over cells that completed cleanly.
    pub completed: HistogramSummary,
    /// Summary over cells on which the harness degraded.
    pub degraded: HistogramSummary,
}

/// Per-phase latency summaries (p50/p95/max), split completed vs
/// degraded — the histogram block `BENCH_campaign.json` carries
/// alongside the existing throughput fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// World acquisition.
    pub boot: PhaseLatency,
    /// Scenario body.
    pub inject: PhaseLatency,
    /// Violation monitoring.
    pub monitor: PhaseLatency,
}

impl LatencyBreakdown {
    /// Summarizes a report's per-phase timings.
    pub fn from_report(report: &CampaignReport) -> Self {
        let phase = |value: fn(&CellResult) -> Option<u64>| PhaseLatency {
            completed: obs_bridge::phase_summary(report.completed_cells(), value),
            degraded: obs_bridge::phase_summary(report.degraded_cells(), value),
        };
        Self {
            boot: phase(|c| c.phase_us.boot_us),
            inject: phase(|c| c.phase_us.inject_us),
            monitor: phase(|c| c.phase_us.monitor_us),
        }
    }
}

/// A machine-readable campaign throughput record — what the Table III
/// regenerator writes to `BENCH_campaign.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignThroughput {
    /// Cells the campaign scheduled.
    pub cells: usize,
    /// Cells that completed cleanly (throughput counts only these).
    pub completed_cells: usize,
    /// Cells on which the harness degraded (crashed / timed out /
    /// boot-failed / partial observation).
    pub degraded_cells: usize,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end elapsed wall-clock time, in microseconds.
    pub elapsed_us: u64,
    /// *Completed* cells per second of elapsed time — degraded cells do
    /// not inflate throughput, so BENCH trajectories stay comparable
    /// across clean and degraded runs.
    pub cells_per_sec: f64,
    /// Sum of per-cell wall-clock times (≈ CPU time across workers).
    pub total_cell_wall_time_us: u64,
    /// Hypercalls executed across all cells.
    pub total_hypercalls: u64,
    /// Per-phase latency summaries, split completed vs degraded.
    pub latency: LatencyBreakdown,
    /// Copy-on-write aggregate: `frames_total`/`frames_shared` are the
    /// per-cell maxima (worlds share one size; peak sharing shows how
    /// much of a snapshot stayed shared), `frames_copied` is summed
    /// across cells.
    pub snapshot: SnapshotStats,
    /// Software-TLB hit/miss totals summed across cells.
    pub tlb: TlbStats,
}

impl CampaignThroughput {
    /// Derives the record from a report, the worker count, and the
    /// elapsed run time.
    pub fn new(report: &CampaignReport, workers: usize, elapsed_us: u64) -> Self {
        let elapsed_us = elapsed_us.max(1);
        let cells = report.cells().len();
        let degraded_cells = report.degraded_cells().count();
        let completed_cells = cells - degraded_cells;
        Self {
            cells,
            completed_cells,
            degraded_cells,
            workers,
            elapsed_us,
            cells_per_sec: completed_cells as f64 * 1_000_000.0 / elapsed_us as f64,
            total_cell_wall_time_us: report.total_wall_time_us(),
            total_hypercalls: report.total_hypercalls(),
            latency: LatencyBreakdown::from_report(report),
            snapshot: SnapshotStats {
                frames_total: report.cells().iter().map(|c| c.snapshot.frames_total).max().unwrap_or(0),
                frames_shared: report.cells().iter().map(|c| c.snapshot.frames_shared).max().unwrap_or(0),
                frames_copied: report.cells().iter().map(|c| c.snapshot.frames_copied).sum(),
                chunks_privatized: report.cells().iter().map(|c| c.snapshot.chunks_privatized).sum(),
            },
            tlb: TlbStats {
                hits: report.cells().iter().map(|c| c.tlb.hits).sum(),
                misses: report.cells().iter().map(|c| c.tlb.misses).sum(),
                fill_conflicts: report.cells().iter().map(|c| c.tlb.fill_conflicts).sum(),
            },
        }
    }
}

/// Fault-containment and scheduling knobs shared by campaign runs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads; `None` means one per hardware thread.
    pub jobs: Option<usize>,
    /// Boot each `(version, injector)` base world once and clone it per
    /// cell (on by default via [`Campaign::new`]).
    pub reuse_snapshots: bool,
    /// Per-cell deadline, checked when the cell returns: a cell that
    /// would otherwise complete but ran longer is reported
    /// [`CellOutcome::TimedOut`]; a crash or failed boot keeps its own
    /// outcome. `None` disables the check. A cell body that never
    /// returns holds its worker until it does.
    pub cell_deadline: Option<Duration>,
    /// Extra boot attempts for *transient* failures (`-ENOMEM`/`-EBUSY`)
    /// per cell; `0` means fail on the first error.
    pub retries: u32,
    /// Disables the software TLB in every cell's world (the `--no-tlb`
    /// escape hatch; default `false` = TLB on). The cache is
    /// semantically transparent, so reports are identical either way.
    pub disable_tlb: bool,
    /// Trials per `(use_case, version, mode)` key — the parameter-grid
    /// axis of the campaign grid. Each trial is its own cell; use cases
    /// see the trial index via
    /// [`UseCase::run_injection_trial`](crate::UseCase::run_injection_trial).
    /// Defaults to 1 (the classic single-shot grid).
    pub trials: u64,
    /// Run only this shard of the grid (slots congruent to `index`
    /// modulo `count`); `None` runs everything. Merging the `n` shard
    /// reports reproduces the unsharded report byte-for-byte after
    /// normalization.
    pub shard: Option<Shard>,
    /// Slots between durable fold records per worker when a streaming
    /// run is checkpointed (see
    /// [`Campaign::run_streaming_checkpointed`]). Smaller intervals
    /// lose less work on a crash but sync more often.
    pub checkpoint_interval: u64,
    /// Also stream per-cell forensic slot records to the `<journal>.slots`
    /// sidecar during a checkpointed run (which cells ran, in what
    /// order, with what digest). Off by default: recovery never reads
    /// slot records, and at ~150 bytes per cell they cost measurable
    /// throughput on slow or contended storage.
    pub journal_slots: bool,
    /// Seeded harness-fault injection (see [`crate::chaos`]); `None`
    /// (the default) runs no chaos.
    pub chaos: Option<ChaosConfig>,
    /// Per-worker flight-recorder ring capacity, in events. The
    /// recorder is always on at negligible cost (one mutexed ring push
    /// per event, no allocation beyond the event itself); `0` disables
    /// it, which is the escape hatch the overhead gate measures
    /// against. Defaults to [`DEFAULT_FLIGHT_CAPACITY`].
    pub flight_capacity: usize,
    /// Directory stall-triggered flight dumps are written into by the
    /// supervisor (`stall-worker-<n>.jsonl`); `None` disables stall
    /// dumps (stalls are still counted).
    pub flight_out: Option<PathBuf>,
    /// Metrics-timeline sampling interval. `Some` starts the
    /// supervisor thread which pushes one [`TimelineSample`]
    /// (`hvsim_obs::TimelineSample`) per tick into the attached
    /// timeline; `None` leaves sampling off unless `progress` or
    /// `flight_out` needs the supervisor anyway (then a 200ms default
    /// is used).
    pub metrics_interval: Option<Duration>,
    /// Redraw a live progress line (done/total, cells/s, ETA, degraded
    /// count) on stderr every sampling tick.
    pub progress: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            jobs: None,
            reuse_snapshots: false,
            cell_deadline: None,
            retries: 0,
            disable_tlb: false,
            trials: 1,
            shard: None,
            checkpoint_interval: 1024,
            journal_slots: false,
            chaos: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            flight_out: None,
            metrics_interval: None,
            progress: false,
        }
    }
}

/// The campaign: use cases × versions × modes.
pub struct Campaign {
    use_cases: Vec<Box<dyn UseCase>>,
    versions: Vec<XenVersion>,
    modes: Vec<Mode>,
    factory: WorldFactory,
    config: CampaignConfig,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
    timeline: Option<MetricsTimeline>,
}

impl Campaign {
    /// A campaign over all three versions and both modes, using the
    /// standard world, snapshot reuse, and one worker per hardware
    /// thread. Tracing and metrics are off until attached.
    pub fn new() -> Self {
        Self {
            use_cases: Vec::new(),
            versions: XenVersion::ALL.to_vec(),
            modes: vec![Mode::Exploit, Mode::Injection],
            factory: Arc::new(standard_world),
            config: CampaignConfig { reuse_snapshots: true, ..CampaignConfig::default() },
            tracer: Tracer::disabled(),
            metrics: None,
            timeline: None,
        }
    }

    /// Adds a use case.
    #[must_use]
    pub fn with_use_case(mut self, uc: Box<dyn UseCase>) -> Self {
        self.use_cases.push(uc);
        self
    }

    /// Restricts the versions under test.
    #[must_use]
    pub fn versions(mut self, versions: &[XenVersion]) -> Self {
        self.versions = versions.to_vec();
        self
    }

    /// Restricts the modes.
    #[must_use]
    pub fn modes(mut self, modes: &[Mode]) -> Self {
        self.modes = modes.to_vec();
        self
    }

    /// Replaces the world factory.
    #[must_use]
    pub fn world_factory(mut self, factory: WorldFactory) -> Self {
        self.factory = factory;
        self
    }

    /// Sets the worker count used by [`Campaign::run`]. `0` or unset
    /// means one worker per hardware thread.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = (jobs > 0).then_some(jobs);
        self
    }

    /// Enables or disables world-snapshot reuse. When enabled (the
    /// default), each `(version, injector_enabled)` base world boots
    /// once and every cell starts from a clone of it; when disabled,
    /// every cell boots its own world through the factory, like the
    /// paper's original setup. Booting is deterministic, so both paths
    /// produce identical reports.
    #[must_use]
    pub fn reuse_snapshots(mut self, reuse: bool) -> Self {
        self.config.reuse_snapshots = reuse;
        self
    }

    /// Sets the per-cell deadline (see [`CampaignConfig::cell_deadline`]).
    #[must_use]
    pub fn cell_deadline(mut self, deadline: Duration) -> Self {
        self.config.cell_deadline = Some(deadline);
        self
    }

    /// Allows up to `retries` extra boot attempts per cell for transient
    /// failures (see [`CampaignConfig::retries`]).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.config.retries = retries;
        self
    }

    /// Enables or disables the per-world software TLB (on by default;
    /// see [`CampaignConfig::disable_tlb`]).
    #[must_use]
    pub fn use_tlb(mut self, enabled: bool) -> Self {
        self.config.disable_tlb = !enabled;
        self
    }

    /// Sets the trials axis of the grid (see [`CampaignConfig::trials`]).
    /// `0` is treated as 1.
    #[must_use]
    pub fn trials(mut self, trials: u64) -> Self {
        self.config.trials = trials.max(1);
        self
    }

    /// Restricts the run to one shard of the grid (see
    /// [`CampaignConfig::shard`]).
    #[must_use]
    pub fn shard(mut self, shard: Shard) -> Self {
        self.config.shard = Some(shard);
        self
    }

    /// Sets the checkpoint fold interval (see
    /// [`CampaignConfig::checkpoint_interval`]). `0` is treated as 1.
    #[must_use]
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.config.checkpoint_interval = interval.max(1);
        self
    }

    /// Enables the per-cell forensic slot sidecar for checkpointed
    /// runs (see [`CampaignConfig::journal_slots`]).
    #[must_use]
    pub fn journal_slots(mut self, enabled: bool) -> Self {
        self.config.journal_slots = enabled;
        self
    }

    /// Enables seeded harness-fault injection (see
    /// [`CampaignConfig::chaos`]).
    #[must_use]
    pub fn chaos(mut self, config: ChaosConfig) -> Self {
        self.config.chaos = Some(config);
        self
    }

    /// Sets the per-worker flight-recorder ring capacity (see
    /// [`CampaignConfig::flight_capacity`]); `0` disables the recorder.
    #[must_use]
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.config.flight_capacity = capacity;
        self
    }

    /// Sets the directory stall-triggered flight dumps are written
    /// into (see [`CampaignConfig::flight_out`]).
    #[must_use]
    pub fn flight_out(mut self, dir: PathBuf) -> Self {
        self.config.flight_out = Some(dir);
        self
    }

    /// Enables the metrics-timeline sampler at `interval` (see
    /// [`CampaignConfig::metrics_interval`]).
    #[must_use]
    pub fn metrics_interval(mut self, interval: Duration) -> Self {
        self.config.metrics_interval = Some(interval);
        self
    }

    /// Enables the live progress line on stderr (see
    /// [`CampaignConfig::progress`]).
    #[must_use]
    pub fn progress(mut self, enabled: bool) -> Self {
        self.config.progress = enabled;
        self
    }

    /// Attaches a timeline the supervisor pushes live samples into;
    /// drain it after the run (see [`MetricsTimeline::to_jsonl`]).
    /// Implies the supervisor runs even without an explicit
    /// [`Campaign::metrics_interval`].
    #[must_use]
    pub fn timeline(mut self, timeline: MetricsTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The campaign's cell grid: use cases × versions × modes × trials.
    pub fn grid(&self) -> SpecGrid {
        SpecGrid::new(self.use_cases.len(), &self.versions, &self.modes, self.config.trials)
    }

    /// The campaign's grid identity — stamped into streamed reports
    /// (so mismatched reports refuse to merge) and into checkpoint
    /// journals (so a journal refuses to resume the wrong campaign).
    pub fn fingerprint(&self) -> GridFingerprint {
        GridFingerprint {
            use_cases: self.use_cases.iter().map(|uc| uc.name().to_owned()).collect(),
            versions: self.versions.clone(),
            modes: self.modes.clone(),
            trials: self.config.trials.max(1),
        }
    }

    /// Replaces the whole configuration at once.
    #[must_use]
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a tracer: campaign setup, every cell phase, guest boot
    /// stages and hypervisor audit events are recorded as structured
    /// trace events (drain the tracer after the run). A disabled tracer
    /// (the default) costs one branch per instrumentation point.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a metrics registry: at collection time the campaign
    /// folds `campaign.*` counters and per-phase latency histograms
    /// into it and embeds a snapshot in the report.
    #[must_use]
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Runs every cell with the configured worker count. Exploit cells
    /// run on a stock build, injection cells on an injector build,
    /// exactly like the paper's setup; each cell gets a pristine world
    /// (a snapshot clone, or a fresh boot when snapshot reuse is off),
    /// runs its scenario, then monitors for violations.
    ///
    /// The run is fail-soft: a panicking world, injector, or monitor, a
    /// failed boot, or a deadline overrun degrades *that cell* (recorded
    /// in its [`CellOutcome`] / [`CampaignError`]) and the rest of the
    /// campaign completes.
    pub fn run(&self) -> CampaignReport {
        self.run_with_jobs(self.config.jobs.unwrap_or_else(default_jobs))
    }

    /// Runs every cell on exactly `jobs` worker threads. Cells fold into
    /// per-worker vectors that are sorted by slot at the end, so the
    /// report's cell order — and, because each cell starts from a
    /// pristine world, the cells themselves — are identical for every
    /// worker count.
    pub fn run_with_jobs(&self, jobs: usize) -> CampaignReport {
        if self.grid().shard_len(self.config.shard) == 0 {
            return CampaignReport::default();
        }
        let policy = self.chaos_policy();
        let run = self.execute(jobs, None, policy.as_deref(), |_| Vec::new());
        let mut cells: Vec<(u64, CellResult)> = run.folds.into_iter().flatten().collect();
        cells.sort_unstable_by_key(|&(slot, _)| slot);
        let cells = cells.into_iter().map(|(_, cell)| cell).collect();
        let mut report = CampaignReport { cells, metrics: None };
        // Metrics fold in at collection time, after the slot-ordered
        // cells are assembled: counter updates happen in report order,
        // never in worker-scheduling order.
        if let Some(registry) = &self.metrics {
            obs_bridge::record_report_metrics(&report, registry);
            // When chaos is configured the `campaign.chaos.*` counters
            // are always published — zeros distinguish "chaos quiet"
            // from "chaos off".
            if self.config.chaos.is_some() {
                obs_bridge::record_chaos_metrics(policy.as_deref(), registry);
            }
            report.metrics = Some(registry.snapshot());
        }
        report
    }

    /// Whether this run needs the telemetry supervisor thread.
    fn supervisor_wanted(&self) -> bool {
        self.config.metrics_interval.is_some()
            || self.config.progress
            || self.config.flight_out.is_some()
            || self.timeline.is_some()
    }

    /// The run's telemetry supervisor, borrowing the per-worker flight
    /// handles so a stall can dump the wedged worker's ring.
    fn supervisor<'a>(&'a self, flights: &'a [FlightHandle]) -> telemetry::Supervisor<'a> {
        let interval = self.config.metrics_interval.unwrap_or(Duration::from_millis(200));
        // A busy worker counts as stalled only when its heartbeat age
        // dwarfs both the sampling cadence and the worst legitimate
        // cell — chaos slowdowns sleep 2× the deadline, so 4× is
        // comfortably past anything a healthy worker does.
        let stall_after = (interval * 4)
            .max(self.config.cell_deadline.map_or(Duration::ZERO, |d| d * 4))
            .max(Duration::from_secs(2));
        telemetry::Supervisor {
            interval,
            stall_after,
            progress: self.config.progress,
            timeline: self.timeline.as_ref(),
            registry: self.metrics.as_ref(),
            flight: flights,
            flight_out: self.config.flight_out.as_deref(),
        }
    }

    /// Streams every cell of the (possibly sharded) grid with the
    /// configured worker count. See [`Campaign::run_streaming_with_jobs`].
    pub fn run_streaming(&self) -> StreamOutcome {
        self.run_streaming_with_jobs(self.config.jobs.unwrap_or_else(default_jobs))
    }

    /// Streams the grid on exactly `jobs` workers with O(workers)
    /// resident memory: each worker claims the next slot, runs its
    /// cell, folds it into a per-worker partial report and drops it,
    /// and the partials merge — ordered by first slot — into one
    /// [`StreamReport`](crate::StreamReport).
    ///
    /// Every aggregate in the report is a commutative monoid over
    /// per-cell values that depend only on the cell's spec, so the
    /// normalized report is byte-identical for every worker count and
    /// sharding. Deadlines are enforced by the same post-return check
    /// as [`Campaign::run_with_jobs`].
    pub fn run_streaming_with_jobs(&self, jobs: usize) -> StreamOutcome {
        self.stream_impl(jobs, None, self.chaos_policy())
    }

    /// Streams the grid like [`Campaign::run_streaming`], journaling
    /// durable progress to `path` so a killed run can
    /// [`Campaign::resume`] and still produce a byte-identical merged
    /// report. The journal is created fresh (any existing file is
    /// truncated) and its header is made durable before any cell runs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the journal cannot be created — a
    /// checkpointed campaign refuses to run without durability. Journal
    /// errors *after* startup are fail-soft: journaling stops (counted
    /// in `campaign.checkpoint.write_errors`) and the run completes.
    pub fn run_streaming_checkpointed(&self, path: &Path) -> Result<StreamOutcome, CheckpointError> {
        let policy = self.chaos_policy();
        let session = self.with_journal_wrap(&policy, |wrap| {
            CheckpointSession::create(
                path,
                self.fingerprint(),
                self.config.shard,
                self.config.checkpoint_interval,
                self.config.journal_slots,
                wrap,
            )
        })?;
        Ok(self.stream_impl(
            self.config.jobs.unwrap_or_else(default_jobs),
            Some(session),
            policy,
        ))
    }

    /// Resumes a checkpointed streaming run from its journal: reloads
    /// the valid prefix (truncating a torn tail), runs only the slots
    /// no durable fold record covers, and merges the recovered folds
    /// with the fresh ones — so the final normalized report is
    /// byte-identical to an uninterrupted run of the same campaign.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the journal is unreadable, is not a
    /// journal, or was written by a different campaign grid or shard.
    pub fn resume(&self, path: &Path) -> Result<StreamOutcome, CheckpointError> {
        let policy = self.chaos_policy();
        let session = self.with_journal_wrap(&policy, |wrap| {
            CheckpointSession::resume(
                path,
                &self.fingerprint(),
                self.config.shard,
                self.config.checkpoint_interval,
                self.config.journal_slots,
                wrap,
            )
        })?;
        Ok(self.stream_impl(
            self.config.jobs.unwrap_or_else(default_jobs),
            Some(session),
            policy,
        ))
    }

    /// The run's chaos policy, when chaos is configured and non-noop.
    fn chaos_policy(&self) -> Option<Arc<ChaosPolicy>> {
        self.config
            .chaos
            .filter(|config| !config.is_noop())
            .map(|config| Arc::new(ChaosPolicy::new(config)))
    }

    /// Calls `open` with the journal sink transformer this run needs:
    /// the identity normally, the torn-write chaos wrapper when chaos
    /// configures one.
    fn with_journal_wrap<T>(
        &self,
        policy: &Option<Arc<ChaosPolicy>>,
        open: impl FnOnce(crate::checkpoint::SinkWrap<'_>) -> T,
    ) -> T {
        match policy {
            Some(p) if p.config().torn_write_permille > 0 => {
                let p = Arc::clone(p);
                open(&move |sink: Box<dyn JournalSink>| {
                    Box::new(ChaosSink::new(sink, Arc::clone(&p))) as Box<dyn JournalSink>
                })
            }
            _ => open(&|sink| sink),
        }
    }

    /// The streaming fold shared by plain, checkpointed, and resumed
    /// runs: each worker aggregates its cells into a [`PartialFold`]
    /// and, with a session, journals its progress (a synced fold record
    /// every `checkpoint_interval` slots and at drain, plus per-cell
    /// slot records when the forensic sidecar is enabled). Recovered
    /// folds merge in exactly like fresh ones.
    fn stream_impl(
        &self,
        jobs: usize,
        session: Option<CheckpointSession>,
        policy: Option<Arc<ChaosPolicy>>,
    ) -> StreamOutcome {
        let run_start = Instant::now();
        let shard = self.config.shard;
        if self.grid().shard_len(shard) == 0 {
            return StreamOutcome::default();
        }
        let first_worker = session.as_ref().map_or(1, |s| s.first_worker);
        let run = self.execute(jobs, session.as_ref(), policy.as_deref(), |index| StreamFold {
            fold: PartialFold::default(),
            journal: session.as_ref().map(|session| WorkerJournal {
                session,
                worker_id: first_worker + index as u64,
                seq: 0,
                batch: Vec::new(),
                pending: SlotBuffer::default(),
            }),
        });
        let merge_start = Instant::now();
        let mut parts: Vec<PartialFold> = run.folds.into_iter().map(|f| f.fold).collect();
        if let Some(s) = &session {
            parts.extend(s.recovered.iter().cloned());
        }
        // Merge in first-slot order. All aggregates commute, so this is
        // for reproducibility of intermediate states, not correctness.
        parts.sort_by_key(|fold| fold.first_slot().unwrap_or(u64::MAX));
        let mut whole = PartialFold::default();
        for part in &parts {
            whole.absorb(part);
        }
        let merge_us = merge_start.elapsed().as_micros() as u64;
        let (mut report, phases) = whole.finish();
        report.grid = self.fingerprint();
        report.coverage = vec![shard.unwrap_or(Shard { index: 0, count: 1 })];
        let elapsed_us = (run_start.elapsed().as_micros() as u64).max(1);
        let stats = StreamRunStats {
            workers: run.workers as u64,
            elapsed_us,
            cells_per_sec: report.completed as f64 * 1_000_000.0 / elapsed_us as f64,
            peak_resident_cells: run.peak_resident,
            merge_us,
            base_world_wait_us: run.base_world_wait_us,
        };
        if let Some(registry) = &self.metrics {
            obs_bridge::record_stream_metrics(&report, &phases, &stats, registry);
            if let Some(s) = &session {
                obs_bridge::record_checkpoint_metrics(
                    &s.writer.counters(),
                    s.resumed_slots(),
                    registry,
                );
            }
            // Published whenever chaos is configured — even a no-op or
            // quiet policy records explicit zeros, so dashboards can
            // tell "chaos quiet" from "chaos off".
            if self.config.chaos.is_some() {
                obs_bridge::record_chaos_metrics(policy.as_deref(), registry);
            }
        }
        StreamOutcome { report, stats }
    }

    /// Runs the (possibly sharded, possibly resumed) grid on the slot
    /// executor, folding each finished cell into the per-worker fold
    /// `new_fold` builds. Every entry point goes through here; they
    /// differ only in their fold.
    ///
    /// Trace context 0 holds the `campaign` span, the cell in grid
    /// slot `s` uses context `s + 1`, and the base world of key `k`
    /// boots under context `len + 1 + k`. Assignment is positional, so
    /// the trace's logical structure is independent of the worker count.
    fn execute<F: CellFold>(
        &self,
        jobs: usize,
        session: Option<&CheckpointSession>,
        policy: Option<&ChaosPolicy>,
        new_fold: impl Fn(usize) -> F,
    ) -> Executed<F> {
        let grid = self.grid();
        let done = |slot| session.is_some_and(|s| s.is_done(slot));
        let plan = SlotPlan { len: grid.len(), shard: self.config.shard, done: Some(&done) };
        let total = grid.shard_len(plan.shard);
        let workers = jobs.max(1).min(usize::try_from(total).unwrap_or(usize::MAX));
        let campaign_span = self.tracer.ctx(0).span("campaign");
        let base_worlds =
            self.config.reuse_snapshots.then(|| BaseWorlds::new(self, grid.len() + 1));
        let resident = ResidentGauge::default();
        let flights: Vec<FlightHandle> =
            (0..workers).map(|_| FlightHandle::new(self.config.flight_capacity)).collect();
        let resumed = session.map_or(0, CheckpointSession::resumed_slots);
        let telemetry = Telemetry::new(total.saturating_sub(resumed), workers);
        let shared = SlotRun {
            grid: &grid,
            base_worlds: base_worlds.as_ref(),
            policy,
            telemetry: &telemetry,
            resident: &resident,
        };
        let gauges = |values: &mut Vec<(String, u64)>| {
            values.push(("resident.cells".to_owned(), resident.current()));
            values.push(("resident.peak".to_owned(), resident.peak()));
            if let Some(s) = session {
                let counters = s.writer.counters();
                values.push(("checkpoint.slots".to_owned(), counters.slots));
                values.push(("checkpoint.folds".to_owned(), counters.folds));
                values.push(("checkpoint.syncs".to_owned(), counters.syncs));
                values.push(("checkpoint.bytes".to_owned(), counters.bytes));
            }
            if let Some(p) = policy {
                let (panics, boots, slowdowns, stalls, torn) = p.fired();
                values.push(("chaos.fired".to_owned(), panics + boots + slowdowns + stalls + torn));
            }
        };
        let supervisor = self.supervisor_wanted().then(|| self.supervisor(&flights));
        let sidecar = supervisor.as_ref().map(|s| || s.run(&telemetry, &gauges));
        let states = flights
            .iter()
            .enumerate()
            .map(|(index, flight)| CellWorker {
                index,
                flight: flight.clone(),
                fold: new_fold(index),
            })
            .collect();
        let boot_bases = base_worlds.as_ref().map(|b| || b.boot_needed(&grid, &plan));
        let states = executor::execute(
            &plan,
            states,
            |worker, slot| self.run_slot(&shared, worker, slot),
            |worker| {
                worker.fold.drain();
                telemetry.worker_finished(worker.index);
            },
            sidecar.as_ref().map(|f| f as &(dyn Fn() + Sync)),
            boot_bases.as_ref().map(|f| f as &dyn Fn()),
        );
        drop(campaign_span);
        Executed {
            folds: states.into_iter().map(|worker| worker.fold).collect(),
            workers,
            peak_resident: resident.peak(),
            base_world_wait_us: base_worlds.as_ref().map_or(0, BaseWorlds::wait_us),
        }
    }

    /// Runs the cell of `slot` on the calling worker and folds it.
    /// Chaos decisions are slot-keyed and made exactly once, here — the
    /// only place that knows both the slot and the cell.
    fn run_slot<F: CellFold>(&self, run: &SlotRun<'_>, worker: &mut CellWorker<F>, slot: u64) {
        let Some(spec) = run.grid.decode(slot) else {
            return;
        };
        run.telemetry.beat(worker.index);
        let flight = &worker.flight;
        // A chaos claim stall delays the cell before its clock starts:
        // it shapes throughput, never an outcome.
        if let Some(stall) = run.policy.and_then(|p| p.queue_stall(slot)) {
            std::thread::sleep(stall);
        }
        run.resident.enter();
        let ctx = self.tracer.ctx(slot + 1);
        let uc = &*self.use_cases[spec.use_case];
        let (chaos_panic, chaos_slow, chaos_boot_faults) = run.policy.map_or((false, None, 0), |p| {
            (
                p.worker_panic(slot),
                p.slowdown(slot, self.config.cell_deadline),
                p.transient_boot_faults(slot, self.config.retries),
            )
        });
        // Chaos decisions land in the flight ring too: a degraded cell's
        // forensic tail shows which fault was injected, not just its
        // effect. All three are pure functions of (seed, slot), so tails
        // stay deterministic.
        if chaos_panic {
            flight.record(slot, "chaos/worker_panic", 0);
        }
        if let Some(slow) = chaos_slow {
            flight.record_with(slot, "chaos/slowdown", slow.as_micros() as u64, |d| {
                d.push_str("2x deadline");
            });
        }
        if chaos_boot_faults > 0 {
            flight.record_with(slot, "chaos/transient_boots", 0, |d| {
                let _ = write!(d, "faults={chaos_boot_faults}");
            });
        }
        let chaos_uc;
        let run_uc: &dyn UseCase = if chaos_panic || chaos_slow.is_some() {
            chaos_uc = ChaosUseCase::new(uc, chaos_panic, chaos_slow);
            &chaos_uc
        } else {
            uc
        };
        // Forced transient boots take the fresh-boot path (snapshot
        // clones are proven identical to fresh boots, so the report is
        // unmoved).
        let worlds = if chaos_boot_faults > 0 { None } else { run.base_worlds };
        let cell = self.run_cell_contained(&ctx, run_uc, &spec, worlds, chaos_boot_faults, flight);
        let mut cell = self.apply_deadline(cell, flight, slot);
        if cell.degraded() {
            cell.flight = flight.tail(slot);
        }
        run.telemetry.cell_done(cell.degraded());
        worker.fold.fold(&ctx, &spec, cell);
        run.resident.exit();
    }

    /// Outcome precedence, decided in one place: the deadline relabels
    /// a cell `TimedOut` only when the cell would otherwise be
    /// `Completed` and its own wall-clock time passed the deadline. A
    /// crash or a failed boot keeps its outcome however long it took.
    /// The timed-out record keeps the phase breakdown, so the overrun
    /// is attributable to boot, inject or monitor.
    fn apply_deadline(&self, cell: CellResult, flight: &FlightHandle, slot: u64) -> CellResult {
        let Some(deadline) = self.config.cell_deadline else {
            return cell;
        };
        if !matches!(cell.outcome, CellOutcome::Completed)
            || Duration::from_micros(cell.wall_time_us) <= deadline
        {
            return cell;
        }
        flight.record(slot, "cell/deadline_exceeded", 0);
        let deadline_us = deadline.as_micros() as u64;
        CellResult {
            erroneous_state: false,
            violations: Vec::new(),
            handled: false,
            notes: Vec::new(),
            error: Some(CampaignError::Deadline { deadline_us }),
            outcome: CellOutcome::TimedOut { deadline_us },
            attempts: 1,
            wall_time_us: deadline_us,
            hypercalls: 0,
            snapshot: SnapshotStats::default(),
            tlb: TlbStats::default(),
            flight: Vec::new(),
            ..cell
        }
    }

    /// Boots one world through the factory under the retry policy,
    /// folding any backoff sleep into the registry. `boot_faults` > 0
    /// (chaos only) makes the first that many factory calls fail with a
    /// transient [`BootError`], exercising the real retry/backoff path.
    fn boot(
        &self,
        version: XenVersion,
        injector: bool,
        boot_faults: u32,
    ) -> (Result<World, CampaignError>, u32) {
        let remaining_faults = std::cell::Cell::new(boot_faults);
        let (world, attempts, backoff_us) =
            boot_with_retries(format_args!("{version}/{injector}"), self.config.retries, || {
                if remaining_faults.get() > 0 {
                    remaining_faults.set(remaining_faults.get() - 1);
                    return Err(BootError::transient("chaos", "injected transient boot failure"));
                }
                (self.factory)(version, injector)
            });
        if backoff_us > 0 {
            if let Some(registry) = &self.metrics {
                registry.add(obs_bridge::M_RETRY_BACKOFF_US, backoff_us);
            }
        }
        (world, attempts)
    }

    /// Runs one cell on the calling thread with panic containment
    /// around each phase: world acquisition, the scenario body, and
    /// monitoring. Never panics; every failure becomes a typed cell.
    ///
    /// Each phase runs under a trace span and records its wall-clock
    /// duration in the cell's [`PhaseTimings`] — degraded cells too, so
    /// a crash or timeout is attributable to the phase that ate the
    /// time. Time spent waiting for a shared base world to boot is not
    /// the cell's own work: it shows in the `cell/boot/base_wait` span
    /// but not in the cell's timings, so it never counts against the
    /// deadline of whichever cell happened to need the world first.
    /// Audit events the cell generated (everything past the acquired
    /// world's baseline) are bridged into the trace before every
    /// return. `boot_faults` > 0 (chaos only) makes the fresh boot fail
    /// transiently that many times; the caller forces the fresh-boot
    /// arm first.
    fn run_cell_contained(
        &self,
        ctx: &TraceCtx,
        uc: &dyn UseCase,
        spec: &CellSpec,
        worlds: Option<&BaseWorlds<'_>>,
        boot_faults: u32,
        flight: &FlightHandle,
    ) -> CellResult {
        let &CellSpec { slot, version, mode, trial, .. } = spec;
        let start = Instant::now();
        let mut phases = PhaseTimings::default();
        let _cell_span = ctx.span_with("cell", || {
            vec![
                ("use_case".to_owned(), uc.name().to_owned()),
                ("version".to_owned(), version.to_string()),
                ("mode".to_owned(), mode.to_string()),
            ]
        });
        flight.record_with(slot, "cell/start", 0, |d| {
            let _ = write!(d, "{}/{version}/{mode} trial={trial}", uc.name());
        });
        // Phase 1: world acquisition. `AssertUnwindSafe` is sound here:
        // the base snapshot is only read through `&` during `Clone`, and
        // a partially-cloned world is dropped inside the boundary — no
        // broken state can leak to other cells.
        let boot_span = ctx.span("cell/boot");
        let boot_start = Instant::now();
        let fresh_boot = worlds.is_none();
        // Base-world lookup runs under its own span unconditionally
        // (one event per reuse-mode cell — deterministic), so a wait on
        // a booting base world is visible in the trace.
        let (acquired, shared) = match worlds {
            Some(worlds) => {
                let _wait_span = ctx.span("cell/boot/base_wait");
                let asked = Instant::now();
                let base = worlds.get(version, mode == Mode::Injection);
                (Some(base), asked.elapsed())
            }
            None => (None, Duration::ZERO),
        };
        let (start, boot_start) = (start + shared, boot_start + shared);
        let (world, attempts) = match acquired {
            Some(Ok(base)) => (
                catch_unwind(AssertUnwindSafe(|| base.clone())).map_err(|p| {
                    CampaignError::HarnessCrash { payload: panic_payload(p.as_ref()) }
                }),
                1,
            ),
            Some(Err(e)) => (Err(e.clone()), 1),
            None => self.boot(version, mode == Mode::Injection, boot_faults),
        };
        phases.boot_us = Some(boot_start.elapsed().as_micros() as u64);
        ctx.point("cell/boot/result", 0, || {
            vec![
                ("attempts".to_owned(), attempts.to_string()),
                ("source".to_owned(), if fresh_boot { "boot" } else { "snapshot" }.to_owned()),
                ("ok".to_owned(), world.is_ok().to_string()),
            ]
        });
        flight.record_with(slot, "cell/boot/result", phases.boot_us.unwrap_or(0), |d| {
            let _ = write!(
                d,
                "attempts={attempts} source={} ok={}",
                if fresh_boot { "boot" } else { "snapshot" },
                world.is_ok()
            );
        });
        drop(boot_span);
        let mut world = match world {
            Ok(world) => world,
            Err(error) => {
                let wall = start.elapsed().as_micros() as u64;
                flight.record_with(slot, "cell/degraded", 0, |d| {
                    let _ = write!(d, "{error}");
                });
                return self.degraded_cell(uc, version, mode, error, attempts, wall, phases);
            }
        };
        if self.config.disable_tlb {
            world.set_tlb_enabled(false);
        }
        if fresh_boot {
            obs_bridge::bridge_boot_stages(ctx, "cell/boot", world.boot_trace());
            flight.with_recorder(|recorder| {
                for stage in world.boot_trace() {
                    recorder.record_parts(slot, stage.wall_us, |path, _| {
                        path.push_str("cell/boot/");
                        path.push_str(stage.stage);
                    });
                }
            });
        }
        let base_hypercalls = world.hv().hypercall_count();
        // Audit events up to here belong to the world's boot (or to the
        // snapshot it was cloned from); everything past this baseline is
        // this cell's doing and gets bridged into its trace shard.
        let audit_baseline = world.hv().audit().events().len();
        // Traces get the cell's audit events unconditionally; the
        // flight ring gets them only when the cell degrades. A clean
        // cell's audits can never surface in a forensic tail (tails
        // filter by slot), so recording them would only pay the
        // per-hypercall cost — the bulk of a cell's event volume — for
        // data nothing can read back.
        let bridge_audit = |world: &World, degrading: bool| {
            let events = world.hv().audit().events();
            let fresh = events.get(audit_baseline..).unwrap_or(&[]);
            obs_bridge::bridge_audit(ctx, fresh);
            if degrading {
                obs_bridge::bridge_audit_flight(flight, slot, fresh);
            }
        };
        let Some(attacker) =
            world.domain_by_name(ATTACKER_GUEST).or_else(|| world.domains().last().copied())
        else {
            let error = CampaignError::Boot {
                message: "world booted with no domains".to_owned(),
                attempts,
            };
            let wall = start.elapsed().as_micros() as u64;
            flight.record_with(slot, "cell/degraded", 0, |d| {
                let _ = write!(d, "{error}");
            });
            return self.degraded_cell(uc, version, mode, error, attempts, wall, phases);
        };

        // Phase 2: the scenario body. The world is owned by this cell,
        // so a panicking exploit/injector takes only its own clone down.
        let inject_span = ctx.span("cell/inject");
        let inject_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match mode {
            Mode::Exploit => uc.run_exploit_trial(&mut world, attacker, trial),
            Mode::Injection => {
                uc.run_injection_trial(&mut world, attacker, &ArbitraryAccessInjector, trial)
            }
        }));
        phases.inject_us = Some(inject_start.elapsed().as_micros() as u64);
        drop(inject_span);
        flight.record_with(slot, "cell/inject", phases.inject_us.unwrap_or(0), |d| {
            let _ = write!(d, "ok={}", outcome.is_ok());
        });
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(p) => {
                let error = CampaignError::HarnessCrash { payload: panic_payload(p.as_ref()) };
                let wall = start.elapsed().as_micros() as u64;
                bridge_audit(&world, true);
                flight.record_with(slot, "cell/degraded", 0, |d| {
                    let _ = write!(d, "{error}");
                });
                return self.degraded_cell(uc, version, mode, error, attempts, wall, phases);
            }
        };

        // Phase 3: monitoring, with per-detector containment — one
        // panicking detector costs its own observations, not the cell's.
        let monitor_span = ctx.span("cell/monitor");
        let monitor_start = Instant::now();
        let observed = catch_unwind(AssertUnwindSafe(|| {
            uc.monitor(&world, attacker).observe_contained(&world)
        }));
        phases.monitor_us = Some(monitor_start.elapsed().as_micros() as u64);
        drop(monitor_span);
        flight.record_with(slot, "cell/monitor", phases.monitor_us.unwrap_or(0), |d| {
            let _ = write!(d, "ok={}", observed.is_ok());
        });
        let (observation, detector_failures) = match observed {
            Ok(observed) => observed,
            Err(p) => {
                let error = CampaignError::Monitor { message: panic_payload(p.as_ref()) };
                let wall = start.elapsed().as_micros() as u64;
                bridge_audit(&world, true);
                flight.record_with(slot, "cell/degraded", 0, |d| {
                    let _ = write!(d, "{error}");
                });
                return self.degraded_cell(uc, version, mode, error, attempts, wall, phases);
            }
        };
        let error = if detector_failures.is_empty() {
            outcome.error.map(|message| CampaignError::Injection { message })
        } else {
            Some(CampaignError::Monitor { message: detector_failures.join("; ") })
        };

        // A completed cell still degrades when its error is a harness
        // failure (detector panics), so that tail keeps its audits too.
        bridge_audit(&world, error.as_ref().is_some_and(CampaignError::is_harness_failure));
        let handled = outcome.erroneous_state && observation.is_clean();
        flight.record_with(slot, "cell/done", 0, |d| {
            let _ = write!(
                d,
                "erroneous_state={} violations={} handled={handled}",
                outcome.erroneous_state,
                observation.violations.len()
            );
        });
        CellResult {
            use_case: uc.name().to_owned(),
            abusive_functionality: uc.intrusion_model().abusive_functionality.label().to_owned(),
            version,
            mode,
            erroneous_state: outcome.erroneous_state,
            violations: observation.violations,
            handled,
            notes: outcome.notes,
            error,
            outcome: CellOutcome::Completed,
            attempts,
            wall_time_us: 0, // patched below, after the clock stops
            hypercalls: world.hv().hypercall_count().saturating_sub(base_hypercalls),
            phase_us: phases,
            snapshot: world.snapshot_stats(),
            tlb: world.tlb_stats(),
            flight: Vec::new(),
        }
        .with_wall_time(start.elapsed().as_micros() as u64)
    }

    /// A cell record for a harness failure (boot / crash / monitor).
    // Private helper mirroring the cell-result fields one-to-one; a
    // params struct would just restate `CellResult`.
    #[allow(clippy::too_many_arguments)]
    fn degraded_cell(
        &self,
        uc: &dyn UseCase,
        version: XenVersion,
        mode: Mode,
        error: CampaignError,
        attempts: u32,
        wall_time_us: u64,
        phases: PhaseTimings,
    ) -> CellResult {
        let cell_id =
            || CellId { use_case: uc.name().to_owned(), version, mode };
        let outcome = match &error {
            CampaignError::Boot { .. } => CellOutcome::BootFailed,
            CampaignError::Deadline { deadline_us } => {
                CellOutcome::TimedOut { deadline_us: *deadline_us }
            }
            CampaignError::HarnessCrash { payload } => {
                CellOutcome::Crashed { payload: payload.clone(), cell: cell_id() }
            }
            CampaignError::Monitor { message } => {
                CellOutcome::Crashed { payload: message.clone(), cell: cell_id() }
            }
            CampaignError::Injection { .. } => CellOutcome::Completed,
        };
        CellResult {
            use_case: uc.name().to_owned(),
            abusive_functionality: uc.intrusion_model().abusive_functionality.label().to_owned(),
            version,
            mode,
            erroneous_state: false,
            violations: Vec::new(),
            handled: false,
            notes: Vec::new(),
            error: Some(error),
            outcome,
            attempts,
            wall_time_us,
            hypercalls: 0,
            phase_us: phases,
            snapshot: SnapshotStats::default(),
            tlb: TlbStats::default(),
            flight: Vec::new(),
        }
    }
}

/// What every slot of one run shares: the grid, the lazily booted base
/// worlds, the chaos policy and the live gauges.
struct SlotRun<'a> {
    grid: &'a SpecGrid,
    base_worlds: Option<&'a BaseWorlds<'a>>,
    policy: Option<&'a ChaosPolicy>,
    telemetry: &'a Telemetry,
    resident: &'a ResidentGauge,
}

/// One executor worker of a grid campaign: its index, its flight
/// recorder, and the fold its cells go into.
struct CellWorker<F> {
    index: usize,
    flight: FlightHandle,
    fold: F,
}

/// What [`Campaign::execute`] hands back to its entry point.
struct Executed<F> {
    /// Per-worker folds, in first-slot order.
    folds: Vec<F>,
    workers: usize,
    peak_resident: u64,
    base_world_wait_us: u64,
}

/// What a grid campaign's workers fold their finished cells into.
trait CellFold: Send {
    /// Folds one finished cell; `ctx` is the cell's trace context.
    fn fold(&mut self, ctx: &TraceCtx, spec: &CellSpec, cell: CellResult);

    /// Called once on the worker's thread after its last cell.
    fn drain(&mut self) {}
}

/// The classic fold: keep every cell, tagged with its slot so the
/// report can be sorted into grid order.
impl CellFold for Vec<(u64, CellResult)> {
    fn fold(&mut self, _ctx: &TraceCtx, spec: &CellSpec, cell: CellResult) {
        self.push((spec.slot, cell));
    }
}

/// The streaming fold: aggregate each cell, drop it, and journal the
/// progress when the run is checkpointed.
struct StreamFold<'a> {
    fold: PartialFold,
    journal: Option<WorkerJournal<'a>>,
}

/// One worker's side of a checkpoint session.
struct WorkerJournal<'a> {
    session: &'a CheckpointSession,
    worker_id: u64,
    seq: u64,
    /// Slots folded since the worker's last durable fold record.
    batch: Vec<u64>,
    pending: SlotBuffer,
}

impl WorkerJournal<'_> {
    /// Records a durable fold covering the current batch.
    fn record_fold(&mut self, fold: &PartialFold) {
        self.seq += 1;
        let batch = std::mem::take(&mut self.batch);
        self.session.record_fold(&mut self.pending, self.worker_id, self.seq, batch, fold);
    }
}

impl CellFold for StreamFold<'_> {
    fn fold(&mut self, ctx: &TraceCtx, spec: &CellSpec, cell: CellResult) {
        self.fold.fold(spec, &cell);
        if let Some(journal) = &mut self.journal {
            let _journal_span = ctx.span("cell/journal");
            journal.seq += 1;
            if journal.session.writer.slot_recording() {
                journal.session.record_slot(
                    &mut journal.pending,
                    journal.worker_id,
                    journal.seq,
                    spec.slot,
                    slot_digest(&cell),
                );
            }
            journal.batch.push(spec.slot);
            if journal.batch.len() as u64 >= journal.session.interval {
                journal.record_fold(&self.fold);
            }
        }
    }

    fn drain(&mut self) {
        if let Some(journal) = &mut self.journal {
            if !journal.batch.is_empty() {
                journal.record_fold(&self.fold);
            }
        }
    }
}

/// Number of `(version, injector)` base-world keys.
const BASE_KEYS: usize = 2 * XenVersion::ALL.len();

/// The index of base-world key `(version, injector)`.
fn base_key(version: XenVersion, injector: bool) -> usize {
    2 * XenVersion::ALL.iter().position(|&v| v == version).unwrap_or(0) + usize::from(injector)
}

/// The campaign's base worlds, booted lazily on the thread that called
/// the run while the workers run cells: only the keys the run's slots
/// need boot, in the order the slots first need them, and a worker
/// whose cell needs a key that is not booted yet blocks on it. Boots
/// stay on one thread so their allocations stay in one allocator
/// arena: booted on the workers, the worlds land in different
/// per-thread arenas, each arena keeps its own high-water mark across
/// runs, and peak RSS grows with the worker count. A world that fails
/// to boot (or panics the factory) poisons only the cells that need
/// it — each gets a clone of the error.
struct BaseWorlds<'a> {
    campaign: &'a Campaign,
    /// Trace context of key 0; key `k` boots under `first_ctx + k`.
    first_ctx: u64,
    keys: [OnceLock<Result<World, CampaignError>>; BASE_KEYS],
    /// Time workers spent blocked on a key that was still booting.
    wait_us: AtomicU64,
}

impl<'a> BaseWorlds<'a> {
    fn new(campaign: &'a Campaign, first_ctx: u64) -> Self {
        Self {
            campaign,
            first_ctx,
            keys: std::array::from_fn(|_| OnceLock::new()),
            wait_us: AtomicU64::new(0),
        }
    }

    /// The base world for `(version, injector)`, waiting for its boot
    /// if it is not booted yet.
    fn get(&self, version: XenVersion, injector: bool) -> &Result<World, CampaignError> {
        let cell = &self.keys[base_key(version, injector)];
        if let Some(base) = cell.get() {
            return base;
        }
        let asked = Instant::now();
        let base = cell.wait();
        self.wait_us.fetch_add(asked.elapsed().as_micros() as u64, Ordering::Relaxed);
        base
    }

    /// Boots every key the slots of `plan` need, in first-need order.
    /// A slot's key depends only on the slot modulo trials × modes ×
    /// versions, and a shard's first that many slots already reach
    /// every residue the shard can, so the scan stops there. Every key
    /// ends up set — a panic becomes a harness-crash error — so no
    /// worker waits forever.
    fn boot_needed(&self, grid: &SpecGrid, plan: &SlotPlan<'_>) {
        let keys_period = (grid.modes().len() * grid.versions().len()) as u64;
        let period = grid.trials().saturating_mul(keys_period);
        let mut needed = Vec::new();
        let slots = (0..period).map_while(|ordinal| plan.slot(ordinal));
        for spec in slots.filter_map(|slot| grid.decode(slot)) {
            let key = base_key(spec.version, spec.mode == Mode::Injection);
            if !needed.contains(&key) {
                needed.push(key);
            }
        }
        for key in needed {
            self.keys[key].get_or_init(|| {
                catch_unwind(AssertUnwindSafe(|| self.boot(key))).unwrap_or_else(|p| {
                    Err(CampaignError::HarnessCrash { payload: panic_payload(p.as_ref()) })
                })
            });
        }
    }

    /// Boots key `key` under its own trace context.
    fn boot(&self, key: usize) -> Result<World, CampaignError> {
        let (version, injector) = (XenVersion::ALL[key / 2], key % 2 == 1);
        let ctx = self.campaign.tracer.ctx(self.first_ctx + key as u64);
        let span = ctx.span_with("campaign/snapshot_boot", || {
            vec![
                ("version".to_owned(), version.to_string()),
                ("injector".to_owned(), injector.to_string()),
            ]
        });
        let (world, attempts) = self.campaign.boot(version, injector, 0);
        if let Ok(world) = &world {
            obs_bridge::bridge_boot_stages(&ctx, "campaign/snapshot_boot", world.boot_trace());
        }
        ctx.point("campaign/snapshot_boot/result", 0, || {
            vec![
                ("attempts".to_owned(), attempts.to_string()),
                ("ok".to_owned(), world.is_ok().to_string()),
            ]
        });
        drop(span);
        world
    }

    /// Total time workers blocked on a booting key, µs.
    fn wait_us(&self) -> u64 {
        self.wait_us.load(Ordering::Relaxed)
    }
}

/// Hard ceiling on total backoff sleep per world boot, µs. Keeps the
/// retry loop's worst case well under any sane cell deadline: deadlines
/// dominate, backoff only spaces the attempts out.
const MAX_BOOT_BACKOFF_US: u64 = 20_000;

/// The backoff before retry number `attempt` of a transient boot
/// failure: exponential from 200µs (doubling per attempt, capped at
/// 5ms), scaled by a deterministic ±25% jitter keyed on `(key,
/// attempt)` — seeded, not sampled, so reruns sleep the same schedule
/// and reports stay reproducible.
pub(crate) fn retry_backoff_us(key: impl fmt::Display, attempt: u32) -> u64 {
    let base = (200u64 << attempt.min(6).saturating_sub(1)).min(5_000);
    let salt = format!("{key}/{attempt}");
    let jitter = 750 + splitmix64(fnv64(salt.as_bytes())) % 501;
    base * jitter / 1000
}

/// Calls `factory` with panic containment and the bounded retry policy:
/// transient failures (`BootError::is_transient`) are retried up to
/// `retries` extra times with deterministic exponential backoff whose
/// jitter is keyed on `key` (total sleep capped at
/// [`MAX_BOOT_BACKOFF_US`]); deterministic failures and factory panics
/// fail immediately. Returns the attempts consumed and the backoff
/// slept, µs.
pub(crate) fn boot_with_retries<T>(
    key: fmt::Arguments<'_>,
    retries: u32,
    factory: impl Fn() -> Result<T, BootError>,
) -> (Result<T, CampaignError>, u32, u64) {
    let mut attempts = 0u32;
    let mut backoff_us = 0u64;
    loop {
        attempts += 1;
        let error = match catch_unwind(AssertUnwindSafe(&factory)) {
            Ok(Ok(booted)) => return (Ok(booted), attempts, backoff_us),
            Ok(Err(boot)) if boot.is_transient() && attempts <= retries => {
                let sleep = retry_backoff_us(key, attempts)
                    .min(MAX_BOOT_BACKOFF_US.saturating_sub(backoff_us));
                if sleep > 0 {
                    std::thread::sleep(Duration::from_micros(sleep));
                    backoff_us += sleep;
                }
                continue;
            }
            Ok(Err(boot)) => CampaignError::Boot { message: boot.to_string(), attempts },
            Err(p) => CampaignError::HarnessCrash { payload: panic_payload(p.as_ref()) },
        };
        return (Err(error), attempts, backoff_us);
    }
}

impl CellResult {
    fn with_wall_time(mut self, wall_time_us: u64) -> Self {
        self.wall_time_us = wall_time_us;
        self
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erroneous_state::ErroneousStateSpec;
    use crate::injector::Injector;
    use crate::model::IntrusionModel;
    use crate::scenario::ScenarioOutcome;
    use crate::taxonomy::AbusiveFunctionality;
    use hvsim_mem::DomainId;
    use std::sync::Mutex;

    /// A synthetic use case: injects IDT corruption and triggers a fault.
    struct CrashCase;

    impl UseCase for CrashCase {
        fn name(&self) -> &'static str {
            "synthetic-crash"
        }

        fn intrusion_model(&self) -> IntrusionModel {
            IntrusionModel::guest_hypercall_memory(
                "IM-test",
                AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
                &["XSA-212"],
            )
        }

        fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
            // "Exploit" stand-in: only works where XSA-212 exists.
            let vulnerable = world.hv().version().is_vulnerable();
            if !vulnerable {
                return ScenarioOutcome::failed("-EFAULT (bad address)");
            }
            let spec = ErroneousStateSpec::OverwriteIdtGate { cpu: 0, vector: 14, value: 0x41 };
            let gate_va = world.hv().sidt(0).offset(14 * 16);
            let args = hvsim::ExchangeArgs::write_what_where(gate_va, 0x41, 0);
            let _ = world.hv_mut().hc_memory_exchange(attacker, &args);
            let audit = spec.audit(world);
            let mut out = ScenarioOutcome {
                erroneous_state: audit.present,
                state_audit: Some(audit),
                notes: vec![],
                error: None,
            };
            let mut buf = [0u8; 1];
            let _ = world
                .hv_mut()
                .guest_read_va(attacker, hvsim_mem::VirtAddr::new(0x7f00_0000_0000), &mut buf);
            out.note("triggered page fault");
            out
        }

        fn run_injection(
            &self,
            world: &mut World,
            attacker: DomainId,
            injector: &dyn Injector,
        ) -> ScenarioOutcome {
            let spec = ErroneousStateSpec::OverwriteIdtGate { cpu: 0, vector: 14, value: 0x41 };
            match injector.inject(world, attacker, &spec) {
                Ok(ev) => {
                    let mut buf = [0u8; 1];
                    let _ = world.hv_mut().guest_read_va(
                        attacker,
                        hvsim_mem::VirtAddr::new(0x7f00_0000_0000),
                        &mut buf,
                    );
                    ScenarioOutcome {
                        erroneous_state: true,
                        state_audit: Some(ev.audit),
                        notes: vec!["injected and triggered".into()],
                        error: None,
                    }
                }
                Err(e) => ScenarioOutcome::failed(e.to_string()),
            }
        }
    }

    #[test]
    fn campaign_produces_full_matrix() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run();
        assert_eq!(report.cells().len(), 6, "3 versions x 2 modes");
        // Exploit works only on 4.6.
        let e46 = report.cell("synthetic-crash", XenVersion::V4_6, Mode::Exploit).unwrap();
        assert!(e46.erroneous_state);
        assert!(e46.violated());
        let e48 = report.cell("synthetic-crash", XenVersion::V4_8, Mode::Exploit).unwrap();
        assert!(!e48.erroneous_state);
        assert_eq!(
            e48.error,
            Some(CampaignError::Injection { message: "-EFAULT (bad address)".into() })
        );
        assert_eq!(e48.outcome, CellOutcome::Completed);
        assert!(!e48.degraded(), "a failed exploit attempt is data, not degradation");
        // Injection works everywhere and the crash follows everywhere.
        for v in XenVersion::ALL {
            let c = report.cell("synthetic-crash", v, Mode::Injection).unwrap();
            assert!(c.erroneous_state, "injection on {v}");
            assert!(c.violated(), "crash on {v}");
            assert!(!c.handled);
        }
    }

    #[test]
    fn report_renderers_produce_tables() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run();
        let t2 = report.render_table2();
        assert!(t2.contains("synthetic-crash"));
        assert!(t2.contains("Write Unauthorized Arbitrary Memory"));
        let t3 = report.render_table3();
        assert!(t3.contains("4.13 Sec. Viol."));
        assert!(t3.contains(CHECK));
        let f4 = report.render_fig4();
        assert!(f4.contains("yes"), "exploit and injection equivalent on 4.6:\n{f4}");
        let f2 = report.render_fig2("synthetic-crash", XenVersion::V4_6);
        assert!(f2.contains("traditional"));
        assert!(f2.contains("injection"));
        let json = report.to_json().unwrap();
        assert!(json.contains("\"use_case\""));
    }

    #[test]
    fn worker_count_and_snapshot_reuse_do_not_change_the_report() {
        let campaign = Campaign::new().with_use_case(Box::new(CrashCase));
        let serial = campaign.run_with_jobs(1).normalized().to_json().unwrap();
        let parallel = campaign.run_with_jobs(8).normalized().to_json().unwrap();
        assert_eq!(serial, parallel, "jobs=1 and jobs=8 reports must be byte-identical");
        let booted = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .reuse_snapshots(false)
            .run_with_jobs(2)
            .normalized()
            .to_json()
            .unwrap();
        assert_eq!(serial, booted, "snapshot clones must equal fresh boots");
    }

    #[test]
    fn tlb_toggle_does_not_change_the_report() {
        let with_tlb = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .run_with_jobs(2);
        let without_tlb = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .use_tlb(false)
            .run_with_jobs(2);
        assert_eq!(
            with_tlb.normalized().to_json().unwrap(),
            without_tlb.normalized().to_json().unwrap(),
            "the TLB must be semantically transparent"
        );
        // The raw (non-normalized) stats prove the toggle took effect:
        // an enabled TLB counts every lookup (the synthetic use case is
        // too small to guarantee repeat hits, but not lookups).
        let lookups: u64 = with_tlb.cells().iter().map(|c| c.tlb.hits + c.tlb.misses).sum();
        assert!(lookups > 0, "an enabled TLB observes translations during a campaign");
        for c in without_tlb.cells() {
            assert_eq!(c.tlb, hvsim::TlbStats::default(), "disabled TLB records nothing");
        }
    }

    #[test]
    fn snapshot_cells_record_cow_stats() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run_with_jobs(1);
        for c in report.cells() {
            assert!(c.snapshot.frames_total > 0, "cells report their world size");
            assert!(
                c.snapshot.frames_copied < c.snapshot.frames_total / 4,
                "COW must materialize a small fraction of the world, got {}/{}",
                c.snapshot.frames_copied,
                c.snapshot.frames_total
            );
        }
        let copied: u64 = report.cells().iter().map(|c| c.snapshot.frames_copied).sum();
        assert!(copied > 0, "cells that write dirty shared frames via COW");
        // Normalization zeroes the schedule-dependent stats.
        for c in report.normalized().cells() {
            assert_eq!(c.snapshot, hvsim::SnapshotStats::default());
            assert_eq!(c.tlb, hvsim::TlbStats::default());
        }
        // The throughput record aggregates them.
        let t = CampaignThroughput::new(&report, 1, 1);
        assert!(t.snapshot.frames_copied > 0);
        assert_eq!(t.snapshot.frames_total, 4096, "the standard world's frame count");
    }

    #[test]
    fn hypercall_counter_matches_canonical_per_cell_sum() {
        // The compatibility shim: the per-cell sum in the report is the
        // canonical count (see `report::canonical_hypercall_total`); the
        // `campaign.hypercalls` registry counter is derived from it and
        // the two must always agree.
        let registry = MetricsRegistry::new();
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .metrics(registry.clone())
            .run_with_jobs(2);
        let canonical = crate::report::canonical_hypercall_total(&report);
        assert_eq!(canonical, report.total_hypercalls());
        let counter = report
            .metrics()
            .expect("metrics snapshot attached")
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_HYPERCALLS)
            .expect("campaign.hypercalls counter");
        assert_eq!(counter.value, canonical, "registry counter must equal the canonical sum");
        assert!(canonical > 0);
    }

    #[test]
    fn cells_record_timing_and_hypercalls() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run();
        // Every injection cell goes through the injector's hypercalls.
        for c in report.cells().iter().filter(|c| c.mode == Mode::Injection) {
            assert!(c.hypercalls > 0, "injection on {} made no hypercalls", c.version);
        }
        assert!(report.total_hypercalls() > 0);
        assert!(report.total_wall_time_us() > 0);
        // Normalization zeroes the only non-deterministic field.
        assert!(report.normalized().cells().iter().all(|c| c.wall_time_us == 0));
        let t = CampaignThroughput::new(&report, 2, 1_000_000);
        assert_eq!(t.cells, report.cells().len());
        assert_eq!(t.completed_cells, report.cells().len(), "clean run: all cells complete");
        assert_eq!(t.degraded_cells, 0);
        assert!((t.cells_per_sec - t.completed_cells as f64).abs() < 1e-9);
    }

    #[test]
    fn cells_record_phase_timings() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run();
        for c in report.cells() {
            assert!(c.phase_us.boot_us.is_some(), "boot phase timed on {}", c.version);
            assert!(c.phase_us.inject_us.is_some(), "inject phase timed on {}", c.version);
            assert!(c.phase_us.monitor_us.is_some(), "monitor phase timed on {}", c.version);
        }
        // Normalization keeps phase presence but zeroes the durations.
        for c in report.normalized().cells() {
            assert_eq!(c.phase_us.boot_us, Some(0));
            assert_eq!(c.phase_us.inject_us, Some(0));
            assert_eq!(c.phase_us.monitor_us, Some(0));
        }
        let t = CampaignThroughput::new(&report, 1, 1_000_000);
        assert_eq!(t.latency.boot.completed.count as usize, report.cells().len());
        assert_eq!(t.latency.monitor.degraded.count, 0, "clean run: no degraded latencies");
    }

    #[test]
    fn tracer_and_metrics_capture_the_campaign() {
        let tracer = Tracer::enabled();
        let registry = MetricsRegistry::new();
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .tracer(tracer.clone())
            .metrics(registry.clone())
            .run_with_jobs(2);
        let events = tracer.drain();
        assert!(!events.is_empty());
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"campaign"), "root span missing: {paths:?}");
        assert!(paths.contains(&"campaign/snapshot_boot"));
        assert!(paths.contains(&"cell"));
        assert!(paths.contains(&"cell/boot"));
        assert!(paths.contains(&"cell/inject"));
        assert!(paths.contains(&"cell/monitor"));
        assert!(
            paths.iter().any(|p| p.starts_with("audit/")),
            "audit events should be bridged: {paths:?}"
        );
        // The campaign folded its own counters into the registry and
        // embedded the snapshot in the report.
        let snapshot = report.metrics().expect("metrics snapshot attached");
        let cells = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_CELLS)
            .expect("campaign.cells counter");
        assert_eq!(cells.value as usize, report.cells().len());
        let hypercalls = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_HYPERCALLS)
            .expect("campaign.hypercalls counter");
        assert_eq!(hypercalls.value, report.total_hypercalls());
        assert!(
            snapshot.histograms.iter().any(|h| h.name == "campaign.boot_us.completed"),
            "phase histograms snapshotted"
        );
        // A second drain sees nothing: drain clears the sink.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn restricted_campaign() {
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .versions(&[XenVersion::V4_13])
            .modes(&[Mode::Injection])
            .run();
        assert_eq!(report.cells().len(), 1);
        assert_eq!(report.cells()[0].version, XenVersion::V4_13);
    }

    /// A factory that panics for one specific `(version, injector)`
    /// combination and boots the standard world everywhere else.
    fn panicking_factory(bad: (XenVersion, bool)) -> WorldFactory {
        Arc::new(move |version, injector| {
            assert!(
                (version, injector) != bad,
                "factory panic for ({version}, injector={injector})"
            );
            standard_world(version, injector)
        })
    }

    #[test]
    fn panicking_factory_cell_is_contained() {
        for reuse in [true, false] {
            let report = Campaign::new()
                .with_use_case(Box::new(CrashCase))
                .world_factory(panicking_factory((XenVersion::V4_8, true)))
                .reuse_snapshots(reuse)
                .run();
            assert_eq!(report.cells().len(), 6, "the campaign still completes (reuse={reuse})");
            let bad = report.cell("synthetic-crash", XenVersion::V4_8, Mode::Injection).unwrap();
            assert!(bad.degraded());
            assert!(
                matches!(&bad.outcome, CellOutcome::Crashed { payload, cell }
                    if payload.contains("factory panic") && cell.version == XenVersion::V4_8),
                "got {:?}",
                bad.outcome
            );
            assert!(matches!(&bad.error, Some(CampaignError::HarnessCrash { .. })));
            // Every other cell is untouched.
            for cell in report.cells() {
                if cell.version == XenVersion::V4_8 && cell.mode == Mode::Injection {
                    continue;
                }
                assert!(!cell.degraded(), "{} {} {} degraded", cell.use_case, cell.version, cell.mode);
            }
            assert!(report.is_degraded());
            assert_eq!(report.degraded_cells().count(), 1);
        }
    }

    #[test]
    fn contained_crashes_are_deterministic_across_worker_counts() {
        let campaign = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(panicking_factory((XenVersion::V4_6, false)));
        let serial = campaign.run_with_jobs(1).normalized().to_json().unwrap();
        let parallel = campaign.run_with_jobs(8).normalized().to_json().unwrap();
        assert_eq!(serial, parallel, "degraded cells must serialize identically at any -j");
    }

    /// A use case whose injection path sleeps past any reasonable
    /// deadline; the exploit path returns immediately.
    struct SleepyCase;

    impl UseCase for SleepyCase {
        fn name(&self) -> &'static str {
            "synthetic-sleep"
        }

        fn intrusion_model(&self) -> IntrusionModel {
            IntrusionModel::guest_hypercall_memory(
                "IM-sleep",
                AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
                &["XSA-212"],
            )
        }

        fn run_exploit(&self, _world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
            ScenarioOutcome::failed("not applicable")
        }

        fn run_injection(
            &self,
            _world: &mut World,
            _attacker: DomainId,
            _injector: &dyn Injector,
        ) -> ScenarioOutcome {
            std::thread::sleep(Duration::from_millis(300));
            ScenarioOutcome::failed("finished late")
        }
    }

    #[test]
    fn deadline_overrun_is_reported_timed_out() {
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .with_use_case(Box::new(SleepyCase))
            .versions(&[XenVersion::V4_13])
            .modes(&[Mode::Injection])
            .cell_deadline(Duration::from_millis(40))
            .run();
        assert_eq!(report.cells().len(), 2, "the campaign completes past the stuck cell");
        let slow = report.cell("synthetic-sleep", XenVersion::V4_13, Mode::Injection).unwrap();
        assert!(matches!(slow.outcome, CellOutcome::TimedOut { deadline_us: 40_000 }));
        assert_eq!(slow.error, Some(CampaignError::Deadline { deadline_us: 40_000 }));
        assert!(slow.degraded());
        let fast = report.cell("synthetic-crash", XenVersion::V4_13, Mode::Injection).unwrap();
        assert!(!fast.degraded(), "cells inside the deadline are unaffected");
        assert!(report.is_degraded());
    }

    /// A use case whose injection path sleeps past any reasonable
    /// deadline and then panics.
    struct LateCrashCase;

    impl UseCase for LateCrashCase {
        fn name(&self) -> &'static str {
            "synthetic-late-crash"
        }

        fn intrusion_model(&self) -> IntrusionModel {
            SleepyCase.intrusion_model()
        }

        fn run_exploit(&self, _world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
            ScenarioOutcome::failed("not applicable")
        }

        fn run_injection(
            &self,
            _world: &mut World,
            _attacker: DomainId,
            _injector: &dyn Injector,
        ) -> ScenarioOutcome {
            std::thread::sleep(Duration::from_millis(100));
            panic!("crashed after the deadline")
        }
    }

    #[test]
    fn a_crash_past_the_deadline_stays_crashed() {
        let campaign = || {
            Campaign::new()
                .with_use_case(Box::new(CrashCase))
                .with_use_case(Box::new(LateCrashCase))
                .versions(&[XenVersion::V4_13])
                .modes(&[Mode::Injection])
                .cell_deadline(Duration::from_millis(20))
        };
        for jobs in [1, 8] {
            let report = campaign().run_with_jobs(jobs);
            let late =
                report.cell("synthetic-late-crash", XenVersion::V4_13, Mode::Injection).unwrap();
            assert!(
                matches!(&late.outcome, CellOutcome::Crashed { payload, .. }
                    if payload.contains("crashed after the deadline")),
                "a crash outranks the deadline at jobs={jobs}, got {:?}",
                late.outcome
            );
            let streamed = campaign().run_streaming_with_jobs(jobs).report;
            assert_eq!((streamed.crashed, streamed.timed_out), (1, 0), "streamed at jobs={jobs}");
        }
    }

    #[test]
    fn transient_boot_failures_retry_then_succeed() {
        use std::collections::BTreeMap as Map;
        // Each (version, injector) key fails transiently twice before
        // booting, so retry accounting is schedule-independent.
        let counters: Mutex<Map<(XenVersion, bool), u32>> = Mutex::new(Map::new());
        let factory: WorldFactory = Arc::new(move |version, injector| {
            let mut counters = counters.lock().unwrap();
            let failures = counters.entry((version, injector)).or_insert(0);
            if *failures < 2 {
                *failures += 1;
                return Err(guestos::BootError::transient("create dom0", "no frames left"));
            }
            drop(counters);
            standard_world(version, injector)
        });

        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(factory.clone())
            .reuse_snapshots(false)
            .versions(&[XenVersion::V4_13])
            .modes(&[Mode::Injection])
            .retries(2)
            .run();
        let cell = report.cell("synthetic-crash", XenVersion::V4_13, Mode::Injection).unwrap();
        assert_eq!(cell.attempts, 3, "two transient failures + one success");
        assert_eq!(cell.outcome, CellOutcome::Completed);
        assert!(!cell.degraded());
        assert!(cell.erroneous_state, "the recovered cell carries real assessment data");

        // Without a retry budget the same failure degrades the cell.
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(Arc::new(|_, _| {
                Err(guestos::BootError::transient("create dom0", "no frames left"))
            }))
            .reuse_snapshots(false)
            .versions(&[XenVersion::V4_13])
            .modes(&[Mode::Injection])
            .run();
        let cell = report.cells().first().unwrap();
        assert_eq!(cell.outcome, CellOutcome::BootFailed);
        assert!(matches!(
            &cell.error,
            Some(CampaignError::Boot { attempts: 1, message }) if message.contains("no frames left")
        ));
        assert!(cell.degraded());
    }

    /// A detector that always panics, for monitor containment tests.
    struct ExplodingDetector;

    impl crate::monitor::Detector for ExplodingDetector {
        fn name(&self) -> &'static str {
            "exploding"
        }

        fn observe(&self, _world: &World) -> Vec<SecurityViolation> {
            panic!("detector exploded")
        }
    }

    /// CrashCase with a monitor whose first detector panics.
    struct BadMonitorCase;

    impl UseCase for BadMonitorCase {
        fn name(&self) -> &'static str {
            "synthetic-bad-monitor"
        }

        fn intrusion_model(&self) -> IntrusionModel {
            CrashCase.intrusion_model()
        }

        fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
            CrashCase.run_exploit(world, attacker)
        }

        fn run_injection(
            &self,
            world: &mut World,
            attacker: DomainId,
            injector: &dyn Injector,
        ) -> ScenarioOutcome {
            CrashCase.run_injection(world, attacker, injector)
        }

        fn monitor(&self, _world: &World, _attacker: DomainId) -> crate::monitor::Monitor {
            crate::monitor::Monitor::standard().with(Box::new(ExplodingDetector))
        }
    }

    #[test]
    fn panicking_detector_degrades_but_keeps_other_observations() {
        let report = Campaign::new()
            .with_use_case(Box::new(BadMonitorCase))
            .versions(&[XenVersion::V4_6])
            .modes(&[Mode::Injection])
            .run();
        let cell = report.cells().first().unwrap();
        assert!(
            matches!(&cell.error, Some(CampaignError::Monitor { message })
                if message.contains("exploding") && message.contains("detector exploded")),
            "got {:?}",
            cell.error
        );
        assert!(cell.degraded(), "a partial observation is harness degradation");
        assert!(cell.violated(), "the surviving detectors still observed the crash");
    }

    #[test]
    fn degraded_cells_carry_forensic_flight_tails() {
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(panicking_factory((XenVersion::V4_8, true)))
            .run_with_jobs(2);
        let bad = report.cell("synthetic-crash", XenVersion::V4_8, Mode::Injection).unwrap();
        assert!(bad.degraded());
        assert!(!bad.flight.is_empty(), "a degraded cell carries its flight tail");
        let paths: Vec<&str> = bad.flight.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"cell/start"), "{paths:?}");
        assert!(paths.contains(&"cell/degraded"), "{paths:?}");
        // Tails are re-stamped per cell: dense seq from 0, one slot.
        for (i, event) in bad.flight.iter().enumerate() {
            assert_eq!(event.seq, i as u64, "tail seq must be dense");
            assert_eq!(event.slot, bad.flight[0].slot);
        }
        for cell in report.cells() {
            if !cell.degraded() {
                assert!(cell.flight.is_empty(), "clean cells carry no tail");
            }
        }
        // Tails are forensic diagnostics, never report content.
        assert!(report.normalized().cells().iter().all(|c| c.flight.is_empty()));
    }

    #[test]
    fn flight_recorder_does_not_change_the_normalized_report() {
        let factory = panicking_factory((XenVersion::V4_6, true));
        let on = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(factory.clone())
            .run_with_jobs(4)
            .normalized()
            .to_json()
            .unwrap();
        let off = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(factory)
            .flight_capacity(0)
            .run_with_jobs(1)
            .normalized()
            .to_json()
            .unwrap();
        assert_eq!(on, off, "recorder on/off must not perturb normalized reports");
    }

    #[test]
    fn supervisor_samples_the_timeline() {
        let timeline = MetricsTimeline::new();
        let registry = MetricsRegistry::new();
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .timeline(timeline.clone())
            .metrics(registry.clone())
            .metrics_interval(Duration::from_millis(5))
            .run_with_jobs(2);
        // The supervisor's final tick runs after the last worker
        // finishes, so even a sub-interval run has a complete sample.
        assert!(!timeline.is_empty(), "at least the final sample lands");
        let samples = timeline.samples();
        let last = samples.last().unwrap();
        let value =
            |name: &str| last.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
        let total = report.cells().len() as u64;
        assert_eq!(value("progress.total"), Some(total));
        assert_eq!(value("progress.done"), Some(total));
        assert_eq!(value("progress.degraded"), Some(0));
        assert!(value("workers.busy").is_some());
        assert!(value("throughput.cells_per_sec_x1000").is_some());
        // The stall counter is pre-registered as an explicit zero.
        let snapshot = report.metrics().expect("metrics snapshot attached");
        let stalled = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_WORKER_STALLED)
            .expect("campaign.worker.stalled pre-registered");
        assert_eq!(stalled.value, 0);
    }
}
