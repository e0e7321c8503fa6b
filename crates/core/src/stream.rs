//! The streaming campaign reports: the lazy cell grid, shards, and
//! merge-associative partial reports.
//!
//! The classic runner ([`Campaign::run`](crate::Campaign::run))
//! materializes one [`CellResult`](crate::CellResult) per cell — O(cells)
//! memory, fine for the paper's 24-cell Table III, hopeless for the
//! million-cell grids the taxonomy implies. The streaming runner folds
//! each cell into its worker's partial report as soon as it finishes,
//! so at most one cell per worker is resident:
//!
//! ```text
//!  atomic slot cursor ──▶ N workers (the slot executor)
//!  claim slot ──▶ SpecGrid::decode ──▶ run cell ──▶ PartialFold (per worker)
//!                                                                   │
//!                              ordered merge (by first slot) ◀──────┘
//!                                         │
//!                                         ▼
//!                                   StreamReport
//! ```
//!
//! Determinism: a cell's result depends only on its [`CellSpec`] (every
//! cell starts from a pristine world), and every aggregate in a
//! [`StreamReport`] is a commutative monoid — sums, exact histogram
//! bucket merges, and unions of maps keyed by slot or by grid key whose
//! key sets are disjoint across shards. So the merged report is
//! independent of worker count and of how slots were partitioned into
//! shards; after [`StreamReport::normalized`] zeroes wall-clock values
//! it is byte-identical across schedules.

use crate::campaign::{CellResult, LatencyBreakdown, PhaseLatency};
use crate::error::{CampaignError, CellOutcome};
use crate::report::TextTable;
use crate::scenario::Mode;
use hvsim::XenVersion;
use hvsim_obs::{FlightEvent, Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One cell of a campaign grid, identified by its global slot index.
///
/// `slot` encodes the cell's grid coordinates positionally
/// (use-case-major, trial fastest-varying), so any subset of slots can
/// be regenerated independently — the basis for deterministic sharding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Global slot index in `0..grid.len()`.
    pub slot: u64,
    /// Index into the campaign's use-case list.
    pub use_case: usize,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
    /// Trial index in `0..trials` — the parameter-grid axis. Classic
    /// single-shot campaigns use trial 0.
    pub trial: u64,
}

/// The cartesian campaign grid: use cases × versions × modes × trials,
/// enumerated lazily by slot index.
///
/// `slot = ((uc · V + v) · M + m) · T + t` — identical to the classic
/// runner's work order when `trials == 1`, so streamed and classic runs
/// visit cells in the same logical order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecGrid {
    use_cases: usize,
    versions: Vec<XenVersion>,
    modes: Vec<Mode>,
    trials: u64,
}

impl SpecGrid {
    /// Builds a grid; `trials` is clamped to at least 1.
    pub fn new(use_cases: usize, versions: &[XenVersion], modes: &[Mode], trials: u64) -> Self {
        Self {
            use_cases,
            versions: versions.to_vec(),
            modes: modes.to_vec(),
            trials: trials.max(1),
        }
    }

    /// Total number of cells in the grid.
    pub fn len(&self) -> u64 {
        self.use_cases as u64
            * self.versions.len() as u64
            * self.modes.len() as u64
            * self.trials
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The versions axis, in grid order.
    pub fn versions(&self) -> &[XenVersion] {
        &self.versions
    }

    /// The modes axis, in grid order.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }

    /// The trials axis (always ≥ 1).
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Decodes a slot index back into its grid coordinates.
    pub fn decode(&self, slot: u64) -> Option<CellSpec> {
        if slot >= self.len() {
            return None;
        }
        let trial = slot % self.trials;
        let rest = slot / self.trials;
        let m = (rest % self.modes.len() as u64) as usize;
        let rest = rest / self.modes.len() as u64;
        let v = (rest % self.versions.len() as u64) as usize;
        let use_case = (rest / self.versions.len() as u64) as usize;
        Some(CellSpec {
            slot,
            use_case,
            version: self.versions[v],
            mode: self.modes[m],
            trial,
        })
    }

    /// Lazily iterates the whole grid in slot order.
    pub fn iter(&self) -> SpecIter<'_> {
        SpecIter { grid: self, next: 0, step: 1 }
    }

    /// Lazily iterates one shard: slots `index, index + count,
    /// index + 2·count, …`. `None` iterates the whole grid. The `n`
    /// shards of any grid partition it exactly, which is what makes
    /// merged shard reports reproduce the unsharded report.
    pub fn shard_iter(&self, shard: Option<Shard>) -> SpecIter<'_> {
        match shard {
            None => self.iter(),
            Some(s) => SpecIter { grid: self, next: s.index, step: s.count },
        }
    }

    /// Number of slots a shard of this grid contains.
    pub fn shard_len(&self, shard: Option<Shard>) -> u64 {
        match shard {
            None => self.len(),
            Some(s) if s.index >= self.len() => 0,
            Some(s) => 1 + (self.len() - 1 - s.index) / s.count,
        }
    }
}

/// Lazy slot-order iterator over a [`SpecGrid`] (whole grid or one
/// shard). Never materializes the grid.
#[derive(Clone, Debug)]
pub struct SpecIter<'g> {
    grid: &'g SpecGrid,
    next: u64,
    step: u64,
}

impl Iterator for SpecIter<'_> {
    type Item = CellSpec;

    fn next(&mut self) -> Option<CellSpec> {
        let spec = self.grid.decode(self.next)?;
        self.next = self.next.saturating_add(self.step);
        Some(spec)
    }
}

/// One shard of a campaign grid: this process runs slots congruent to
/// `index` modulo `count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// Shard index in `0..count`.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

/// Why a shard assignment could not be built or parsed. A CLI usage
/// error (exit code 2), never a campaign failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// `count == 0`: zero shards cannot partition anything.
    ZeroCount,
    /// `index >= count`.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The shard count it must stay below.
        count: u64,
    },
    /// The CLI text is not of the `i/n` form.
    Malformed {
        /// The text as given.
        text: String,
    },
    /// The index half of `i/n` is not a number.
    BadIndex {
        /// The index text as given.
        text: String,
    },
    /// The count half of `i/n` is not a number.
    BadCount {
        /// The count text as given.
        text: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroCount => f.write_str("shard count must be at least 1"),
            ShardError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shards")
            }
            ShardError::Malformed { text } => {
                write!(f, "'{text}' is not of the form i/n (e.g. 0/2)")
            }
            ShardError::BadIndex { text } => write!(f, "bad shard index '{text}'"),
            ShardError::BadCount { text } => write!(f, "bad shard count '{text}'"),
        }
    }
}

impl std::error::Error for ShardError {}

impl Shard {
    /// Validates and builds a shard assignment.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when `count == 0` or `index >= count`.
    pub fn new(index: u64, count: u64) -> Result<Self, ShardError> {
        if count == 0 {
            return Err(ShardError::ZeroCount);
        }
        if index >= count {
            return Err(ShardError::IndexOutOfRange { index, count });
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `i/n` (e.g. `0/2`).
    ///
    /// # Errors
    ///
    /// [`ShardError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, ShardError> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| ShardError::Malformed { text: text.to_owned() })?;
        let index: u64 = index
            .trim()
            .parse()
            .map_err(|_| ShardError::BadIndex { text: index.to_owned() })?;
        let count: u64 = count
            .trim()
            .parse()
            .map_err(|_| ShardError::BadCount { text: count.to_owned() })?;
        Self::new(index, count)
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Tracks how many cells are resident (claimed and not yet folded) and
/// the peak — the evidence that streaming memory is O(workers), not
/// O(cells).
#[derive(Default)]
pub(crate) struct ResidentGauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl ResidentGauge {
    pub(crate) fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    pub(crate) fn exit(&self) {
        self.current.fetch_sub(1, Ordering::Relaxed);
    }

    /// Cells resident right now — a telemetry gauge, racy by nature.
    pub(crate) fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Per-key aggregate in a [`StreamReport`], keyed by
/// `use_case/version/mode` — enough to render Table III-style summaries
/// without retaining per-cell results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeySummary {
    /// Cells run under this key (= trials that reached a worker).
    pub cells: u64,
    /// Cells that completed cleanly.
    pub completed: u64,
    /// Cells on which the harness degraded.
    pub degraded: u64,
    /// Cells that induced the erroneous state.
    pub erroneous_states: u64,
    /// Cells with at least one security violation.
    pub violated: u64,
    /// Cells where the state was induced but handled (the shield).
    pub handled: u64,
    /// Hypercalls executed under this key.
    pub hypercalls: u64,
}

impl KeySummary {
    fn absorb(&mut self, other: &KeySummary) {
        self.cells += other.cells;
        self.completed += other.completed;
        self.degraded += other.degraded;
        self.erroneous_states += other.erroneous_states;
        self.violated += other.violated;
        self.handled += other.handled;
        self.hypercalls += other.hypercalls;
    }
}

/// The retained record of one degraded cell, keyed by slot. Streaming
/// drops completed cells after folding them, but a degraded cell is an
/// actionable harness failure — the report keeps every one, exactly
/// attributable via its slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradedSlot {
    /// Use-case name.
    pub use_case: String,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
    /// Trial index within the key.
    pub trial: u64,
    /// How far the cell got.
    pub outcome: CellOutcome,
    /// The typed failure.
    pub error: Option<CampaignError>,
    /// The cell's forensic tail: the flight-recorder events its worker
    /// retained for this slot (empty when the recorder is off). Raw
    /// `wall_us` values are wall-clock; [`StreamReport::normalized`]
    /// clears the whole tail so normalized reports are byte-identical
    /// with the recorder on or off.
    pub flight: Vec<FlightEvent>,
}

/// Identity of the campaign grid a [`StreamReport`] was produced from:
/// enough to refuse merging reports of *different* campaigns (a silent
/// double-count is worse than a loud error) and to refuse resuming a
/// checkpoint journal against the wrong campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridFingerprint {
    /// Use-case names, in grid order.
    pub use_cases: Vec<String>,
    /// Versions axis, in grid order.
    pub versions: Vec<XenVersion>,
    /// Modes axis, in grid order.
    pub modes: Vec<Mode>,
    /// Trials axis (≥ 1 for any real grid).
    pub trials: u64,
}

impl GridFingerprint {
    /// `true` for the fingerprint of a never-run (default) report.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Total number of cells in the fingerprinted grid.
    pub fn len(&self) -> u64 {
        self.use_cases.len() as u64
            * self.versions.len() as u64
            * self.modes.len() as u64
            * self.trials.max(1)
    }
}

impl std::fmt::Display for GridFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] x {} version(s) x {} mode(s) x {} trial(s)",
            self.use_cases.join(", "),
            self.versions.len(),
            self.modes.len(),
            self.trials.max(1),
        )
    }
}

/// Why two [`StreamReport`]s refused to merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The reports were produced from different campaign grids; their
    /// aggregates are not comparable, let alone summable.
    GridMismatch {
        /// Left fingerprint, rendered.
        left: String,
        /// Right fingerprint, rendered.
        right: String,
    },
    /// Two shards cover at least one common slot — merging would
    /// double-count every shared cell.
    Overlap {
        /// A covered shard of the left report.
        left: Shard,
        /// An overlapping covered shard of the right report.
        right: Shard,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::GridMismatch { left, right } => {
                write!(f, "reports come from different campaign grids: {left} vs {right}")
            }
            MergeError::Overlap { left, right } => write!(
                f,
                "shards {left} and {right} overlap; merging would double-count shared slots"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `true` when the two congruence classes `index mod count` share a
/// slot: by CRT, exactly when the indices agree modulo the gcd of the
/// counts. (Grid length is ignored — for tiny grids this is stricter
/// than necessary, which errs on the loud side.)
fn shards_overlap(a: Shard, b: Shard) -> bool {
    let g = gcd(a.count, b.count);
    a.index % g == b.index % g
}

/// Canonicalizes a disjoint shard union: if the classes cover every
/// residue modulo the lcm of their counts, the union *is* the whole
/// grid and collapses to `[0/1]`; otherwise the list is sorted and
/// deduplicated. Canonical form is what keeps a full run and the merge
/// of its shards byte-identical.
fn canonical_coverage(mut shards: Vec<Shard>) -> Vec<Shard> {
    shards.sort_by_key(|s| (s.count, s.index));
    shards.dedup();
    if shards.is_empty() {
        return shards;
    }
    let mut lcm = 1u64;
    for s in &shards {
        match (lcm / gcd(lcm, s.count)).checked_mul(s.count) {
            Some(l) if l <= 1 << 20 => lcm = l,
            // Pathological counts: skip the collapse, keep the list.
            _ => return shards,
        }
    }
    let covered = (0..lcm).all(|r| shards.iter().any(|s| r % s.count == s.index));
    if covered {
        vec![Shard { index: 0, count: 1 }]
    } else {
        shards
    }
}

/// A complete, merge-associative streaming campaign report.
///
/// Every field is a sum, an exact histogram merge, or a union of maps
/// whose key sets are disjoint across shards — so
/// [`StreamReport::merge`] is associative and commutative, and merging
/// the reports of `n` shards reproduces the unsharded report.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Cells run.
    pub cells: u64,
    /// Cells that completed cleanly (failed injection attempts
    /// included — they are assessment data).
    pub completed: u64,
    /// Cells on which the harness degraded.
    pub degraded: u64,
    /// Cells that induced their erroneous state.
    pub erroneous_states: u64,
    /// Cells with at least one security violation.
    pub violated_cells: u64,
    /// Individual violations observed (a cell can have several).
    pub violations: u64,
    /// Cells whose induced state was handled cleanly.
    pub handled: u64,
    /// Cells whose world never booted.
    pub boot_failed: u64,
    /// Cells where a panic escaped the cell body.
    pub crashed: u64,
    /// Cells abandoned at the deadline.
    pub timed_out: u64,
    /// Extra boot attempts consumed by transient-failure retries.
    pub retries: u64,
    /// Hypercalls executed across all cells.
    pub hypercalls: u64,
    /// Sum of per-cell wall-clock time, µs (zeroed by `normalized`).
    pub wall_time_us: u64,
    /// Frames privatized by copy-on-write across all cell worlds
    /// (schedule-dependent; zeroed by `normalized`).
    pub frames_copied: u64,
    /// Software-TLB hits (config-dependent; zeroed by `normalized`).
    pub tlb_hits: u64,
    /// Software-TLB misses (config-dependent; zeroed by `normalized`).
    pub tlb_misses: u64,
    /// COW chunk privatizations across all cell worlds
    /// (schedule-dependent; zeroed by `normalized`).
    pub chunks_privatized: u64,
    /// Software-TLB fills that evicted a live entry (config-dependent;
    /// zeroed by `normalized`).
    pub tlb_fill_conflicts: u64,
    /// Per-phase latency summaries, completed vs degraded.
    pub latency: LatencyBreakdown,
    /// Aggregates per `use_case/version/mode` key.
    pub by_key: BTreeMap<String, KeySummary>,
    /// Every degraded cell, keyed by global slot index.
    pub degraded_slots: BTreeMap<u64, DegradedSlot>,
    /// Which campaign grid produced this report (empty for a
    /// never-run default report).
    pub grid: GridFingerprint,
    /// Which shards of the grid this report covers, in canonical form:
    /// a full run (or a merge that reassembled one) is `[0/1]`.
    pub coverage: Vec<Shard>,
}

impl StreamReport {
    /// The report with every wall-clock and schedule-dependent value
    /// zeroed; counts survive. Normalized reports are byte-identical
    /// across worker counts and shardings.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let norm_phase = |p: &PhaseLatency| PhaseLatency {
            completed: p.completed.normalized(),
            degraded: p.degraded.normalized(),
        };
        // Forensic tails are diagnostics: their wall_us fields are
        // wall-clock and their presence depends on the recorder
        // setting, so normalization drops them entirely — a normalized
        // report is byte-identical with the recorder on or off.
        let mut degraded_slots = self.degraded_slots.clone();
        for slot in degraded_slots.values_mut() {
            slot.flight = Vec::new();
        }
        Self {
            wall_time_us: 0,
            frames_copied: 0,
            tlb_hits: 0,
            tlb_misses: 0,
            chunks_privatized: 0,
            tlb_fill_conflicts: 0,
            latency: LatencyBreakdown {
                boot: norm_phase(&self.latency.boot),
                inject: norm_phase(&self.latency.inject),
                monitor: norm_phase(&self.latency.monitor),
            },
            degraded_slots,
            ..self.clone()
        }
    }

    /// Merges two reports (e.g. of two shards). Associative and
    /// commutative; quantiles are summarized per input, so merged
    /// quantiles take the max (exact after `normalized`, which zeroes
    /// them anyway).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let merge_summary = |a: HistogramSummary, b: HistogramSummary| HistogramSummary {
            count: a.count + b.count,
            p50_us: a.p50_us.max(b.p50_us),
            p95_us: a.p95_us.max(b.p95_us),
            max_us: a.max_us.max(b.max_us),
        };
        let merge_phase = |a: &PhaseLatency, b: &PhaseLatency| PhaseLatency {
            completed: merge_summary(a.completed, b.completed),
            degraded: merge_summary(a.degraded, b.degraded),
        };
        let mut by_key = self.by_key.clone();
        for (key, summary) in &other.by_key {
            by_key.entry(key.clone()).or_default().absorb(summary);
        }
        let mut degraded_slots = self.degraded_slots.clone();
        degraded_slots.extend(other.degraded_slots.iter().map(|(k, v)| (*k, v.clone())));
        Self {
            cells: self.cells + other.cells,
            completed: self.completed + other.completed,
            degraded: self.degraded + other.degraded,
            erroneous_states: self.erroneous_states + other.erroneous_states,
            violated_cells: self.violated_cells + other.violated_cells,
            violations: self.violations + other.violations,
            handled: self.handled + other.handled,
            boot_failed: self.boot_failed + other.boot_failed,
            crashed: self.crashed + other.crashed,
            timed_out: self.timed_out + other.timed_out,
            retries: self.retries + other.retries,
            hypercalls: self.hypercalls + other.hypercalls,
            wall_time_us: self.wall_time_us + other.wall_time_us,
            frames_copied: self.frames_copied + other.frames_copied,
            tlb_hits: self.tlb_hits + other.tlb_hits,
            tlb_misses: self.tlb_misses + other.tlb_misses,
            chunks_privatized: self.chunks_privatized + other.chunks_privatized,
            tlb_fill_conflicts: self.tlb_fill_conflicts + other.tlb_fill_conflicts,
            latency: LatencyBreakdown {
                boot: merge_phase(&self.latency.boot, &other.latency.boot),
                inject: merge_phase(&self.latency.inject, &other.latency.inject),
                monitor: merge_phase(&self.latency.monitor, &other.latency.monitor),
            },
            by_key,
            degraded_slots,
            grid: if self.grid.is_empty() { other.grid.clone() } else { self.grid.clone() },
            coverage: canonical_coverage(
                self.coverage.iter().chain(&other.coverage).copied().collect(),
            ),
        }
    }

    /// [`StreamReport::merge`], but refusing to merge reports that
    /// cannot legitimately be summed: different campaign grids, or
    /// shards that cover a common slot (which would silently
    /// double-count every shared cell). A default (never-run) report is
    /// the merge identity and is always accepted, so folds can start
    /// from `StreamReport::default()`.
    ///
    /// # Errors
    ///
    /// [`MergeError`] on a grid mismatch or shard overlap.
    pub fn try_merge(&self, other: &Self) -> Result<Self, MergeError> {
        if self.cells == 0 && self.grid.is_empty() && self.coverage.is_empty() {
            return Ok(other.clone());
        }
        if other.cells == 0 && other.grid.is_empty() && other.coverage.is_empty() {
            return Ok(self.clone());
        }
        if self.grid != other.grid {
            return Err(MergeError::GridMismatch {
                left: self.grid.to_string(),
                right: other.grid.to_string(),
            });
        }
        for &a in &self.coverage {
            for &b in &other.coverage {
                if shards_overlap(a, b) {
                    return Err(MergeError::Overlap { left: a, right: b });
                }
            }
        }
        Ok(self.merge(other))
    }

    /// `true` when any cell degraded — CLI exit code 2.
    pub fn is_degraded(&self) -> bool {
        self.degraded > 0
    }

    /// `true` when any cell observed a violation — CLI exit code 1.
    pub fn has_violations(&self) -> bool {
        self.violated_cells > 0
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (unreachable for this data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report serialized by [`StreamReport::to_json`].
    ///
    /// # Errors
    ///
    /// Propagates deserializer errors on malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Renders the per-key summary table (the streaming analogue of the
    /// Table III view — per-cell detail is not retained).
    pub fn render_keys(&self) -> String {
        let mut table = TextTable::new([
            "use case / version / mode",
            "cells",
            "err. state",
            "violated",
            "handled",
            "degraded",
        ])
        .title("streamed campaign summary (aggregates per grid key)");
        for (key, s) in &self.by_key {
            table.row([
                key.clone(),
                s.cells.to_string(),
                s.erroneous_states.to_string(),
                s.violated.to_string(),
                s.handled.to_string(),
                s.degraded.to_string(),
            ]);
        }
        table.to_string()
    }
}

/// Run-shape measurements of one streaming execution. Deliberately kept
/// outside [`StreamReport`]: all of this is schedule- and wall-clock
/// dependent, and determinism diffs compare reports only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamRunStats {
    /// Worker threads used.
    pub workers: u64,
    /// End-to-end elapsed time, µs.
    pub elapsed_us: u64,
    /// Completed cells per second of elapsed time.
    pub cells_per_sec: f64,
    /// Peak number of cells resident (claimed and not yet folded) at
    /// once — bounded by the worker count, never O(cells).
    pub peak_resident_cells: u64,
    /// Time spent merging per-worker partial reports, µs.
    pub merge_us: u64,
    /// Time workers spent blocked on a base world that was still
    /// booting, µs.
    pub base_world_wait_us: u64,
}

/// What a streaming run returns: the mergeable report plus the
/// run-shape stats.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamOutcome {
    /// The deterministic, mergeable assessment report.
    pub report: StreamReport,
    /// Schedule-dependent measurements of this particular run.
    pub stats: StreamRunStats,
}

/// One machine-readable benchmark record of a streamed run, as written
/// to the `stream` array of `BENCH_campaign.json`: which grid was
/// streamed, how big it was, and the run-shape stats.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamBench {
    /// What was streamed (e.g. `table3` or `synthetic_100k`).
    pub grid: String,
    /// Cells in this run's (shard of the) grid.
    pub cells: u64,
    /// Cells that completed cleanly.
    pub completed: u64,
    /// Cells on which the harness degraded.
    pub degraded: u64,
    /// Worker threads used.
    pub workers: u64,
    /// End-to-end elapsed time, µs.
    pub elapsed_us: u64,
    /// Completed cells per second of elapsed time.
    pub cells_per_sec: f64,
    /// Peak cells resident at once.
    pub peak_resident_cells: u64,
    /// Partial-report merge time, µs.
    pub merge_us: u64,
    /// Wait on base worlds that were still booting, µs.
    pub base_world_wait_us: u64,
}

impl StreamOutcome {
    /// The benchmark record for this run, labelled `grid`.
    pub fn bench_entry(&self, grid: impl Into<String>) -> StreamBench {
        let s = self.stats;
        StreamBench {
            grid: grid.into(),
            cells: self.report.cells,
            completed: self.report.completed,
            degraded: self.report.degraded,
            workers: s.workers,
            elapsed_us: s.elapsed_us,
            cells_per_sec: s.cells_per_sec,
            peak_resident_cells: s.peak_resident_cells,
            merge_us: s.merge_us,
            base_world_wait_us: s.base_world_wait_us,
        }
    }
}

/// Per-worker raw fold state: full histograms (not summaries) so the
/// final merge is exact, plus the worker's first slot so partial folds
/// merge in a deterministic order.
///
/// Serializable because checkpointing persists each worker's cumulative
/// fold — the round trip is lossless, so a resumed campaign folds the
/// recovered state exactly as if the cells had just run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct PartialFold {
    first_slot: Option<u64>,
    report: StreamReport,
    phases: PhaseHistograms,
}

/// The six per-phase histograms (completed/degraded × boot/inject/
/// monitor) accumulated in full resolution during a streaming run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct PhaseHistograms {
    pub(crate) boot_completed: Histogram,
    pub(crate) boot_degraded: Histogram,
    pub(crate) inject_completed: Histogram,
    pub(crate) inject_degraded: Histogram,
    pub(crate) monitor_completed: Histogram,
    pub(crate) monitor_degraded: Histogram,
}

impl PhaseHistograms {
    fn merge(&mut self, other: &PhaseHistograms) {
        self.boot_completed.merge(&other.boot_completed);
        self.boot_degraded.merge(&other.boot_degraded);
        self.inject_completed.merge(&other.inject_completed);
        self.inject_degraded.merge(&other.inject_degraded);
        self.monitor_completed.merge(&other.monitor_completed);
        self.monitor_degraded.merge(&other.monitor_degraded);
    }

    fn breakdown(&self) -> LatencyBreakdown {
        LatencyBreakdown {
            boot: PhaseLatency {
                completed: self.boot_completed.summary(),
                degraded: self.boot_degraded.summary(),
            },
            inject: PhaseLatency {
                completed: self.inject_completed.summary(),
                degraded: self.inject_degraded.summary(),
            },
            monitor: PhaseLatency {
                completed: self.monitor_completed.summary(),
                degraded: self.monitor_degraded.summary(),
            },
        }
    }

    /// Named histograms in registry naming, for the metrics fold.
    pub(crate) fn named(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("campaign.boot_us.completed", &self.boot_completed),
            ("campaign.boot_us.degraded", &self.boot_degraded),
            ("campaign.inject_us.completed", &self.inject_completed),
            ("campaign.inject_us.degraded", &self.inject_degraded),
            ("campaign.monitor_us.completed", &self.monitor_completed),
            ("campaign.monitor_us.degraded", &self.monitor_degraded),
        ]
    }
}

impl PartialFold {
    /// Folds one finished cell into this worker's partial report; the
    /// cell is dropped afterwards.
    pub(crate) fn fold(&mut self, spec: &CellSpec, cell: &CellResult) {
        if self.first_slot.is_none() {
            self.first_slot = Some(spec.slot);
        }
        let r = &mut self.report;
        let degraded = cell.degraded();
        r.cells += 1;
        if degraded {
            r.degraded += 1;
            r.degraded_slots.insert(
                spec.slot,
                DegradedSlot {
                    use_case: cell.use_case.clone(),
                    version: cell.version,
                    mode: cell.mode,
                    trial: spec.trial,
                    outcome: cell.outcome.clone(),
                    error: cell.error.clone(),
                    flight: cell.flight.clone(),
                },
            );
        } else {
            r.completed += 1;
        }
        if cell.erroneous_state {
            r.erroneous_states += 1;
        }
        if cell.violated() {
            r.violated_cells += 1;
        }
        r.violations += cell.violations.len() as u64;
        if cell.handled {
            r.handled += 1;
        }
        match &cell.outcome {
            CellOutcome::BootFailed => r.boot_failed += 1,
            CellOutcome::Crashed { .. } => r.crashed += 1,
            CellOutcome::TimedOut { .. } => r.timed_out += 1,
            CellOutcome::Completed => {}
        }
        r.retries += u64::from(cell.attempts.saturating_sub(1));
        r.hypercalls += cell.hypercalls;
        r.wall_time_us += cell.wall_time_us;
        r.frames_copied += cell.snapshot.frames_copied;
        r.tlb_hits += cell.tlb.hits;
        r.tlb_misses += cell.tlb.misses;
        r.chunks_privatized += cell.snapshot.chunks_privatized;
        r.tlb_fill_conflicts += cell.tlb.fill_conflicts;
        let key = format!("{}/{}/{}", cell.use_case, cell.version, cell.mode);
        let summary = r.by_key.entry(key).or_default();
        summary.cells += 1;
        if degraded {
            summary.degraded += 1;
        } else {
            summary.completed += 1;
        }
        if cell.erroneous_state {
            summary.erroneous_states += 1;
        }
        if cell.violated() {
            summary.violated += 1;
        }
        if cell.handled {
            summary.handled += 1;
        }
        summary.hypercalls += cell.hypercalls;
        let (boot, inject, monitor) = if degraded {
            (&mut self.phases.boot_degraded, &mut self.phases.inject_degraded, &mut self.phases.monitor_degraded)
        } else {
            (&mut self.phases.boot_completed, &mut self.phases.inject_completed, &mut self.phases.monitor_completed)
        };
        if let Some(v) = cell.phase_us.boot_us {
            boot.record(v);
        }
        if let Some(v) = cell.phase_us.inject_us {
            inject.record(v);
        }
        if let Some(v) = cell.phase_us.monitor_us {
            monitor.record(v);
        }
    }

    /// The first slot this fold saw (for deterministic merge ordering).
    pub(crate) fn first_slot(&self) -> Option<u64> {
        self.first_slot
    }

    /// Absorbs another fold (all aggregates commute; ordering is only
    /// for reproducibility of intermediate states).
    pub(crate) fn absorb(&mut self, other: &PartialFold) {
        if self.first_slot.is_none() {
            self.first_slot = other.first_slot;
        }
        self.report = self.report.merge(&other.report);
        self.phases.merge(&other.phases);
    }

    /// Finalizes into the report (with exact latency summaries) and the
    /// raw histograms for the metrics fold.
    pub(crate) fn finish(mut self) -> (StreamReport, PhaseHistograms) {
        self.report.latency = self.phases.breakdown();
        (self.report, self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SpecGrid {
        SpecGrid::new(
            2,
            &[XenVersion::V4_6, XenVersion::V4_13],
            &[Mode::Exploit, Mode::Injection],
            3,
        )
    }

    #[test]
    fn grid_len_and_decode_round_trip() {
        let g = grid();
        assert_eq!(g.len(), 2 * 2 * 2 * 3);
        for (i, spec) in g.iter().enumerate() {
            assert_eq!(spec.slot, i as u64);
            assert_eq!(g.decode(spec.slot), Some(spec));
        }
        assert_eq!(g.decode(g.len()), None);
        // Slot order is use-case-major, trial fastest-varying.
        let first = g.decode(0).unwrap();
        assert_eq!((first.use_case, first.trial), (0, 0));
        let second = g.decode(1).unwrap();
        assert_eq!((second.use_case, second.trial), (0, 1));
        assert_eq!(second.version, first.version);
        let last = g.decode(g.len() - 1).unwrap();
        assert_eq!((last.use_case, last.trial), (1, 2));
    }

    #[test]
    fn trials_one_matches_classic_work_order() {
        let g = SpecGrid::new(2, &[XenVersion::V4_6, XenVersion::V4_8], &[Mode::Exploit, Mode::Injection], 1);
        let streamed: Vec<(usize, XenVersion, Mode)> =
            g.iter().map(|s| (s.use_case, s.version, s.mode)).collect();
        let mut classic = Vec::new();
        for uc in 0..2 {
            for &version in &[XenVersion::V4_6, XenVersion::V4_8] {
                for &mode in &[Mode::Exploit, Mode::Injection] {
                    classic.push((uc, version, mode));
                }
            }
        }
        assert_eq!(streamed, classic);
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let g = grid();
        for n in [1u64, 2, 3, 5, 7] {
            let mut seen = Vec::new();
            let mut total = 0;
            for i in 0..n {
                let shard = Some(Shard::new(i, n).unwrap());
                let slots: Vec<u64> = g.shard_iter(shard).map(|s| s.slot).collect();
                assert_eq!(slots.len() as u64, g.shard_len(shard));
                total += slots.len();
                seen.extend(slots);
            }
            seen.sort_unstable();
            assert_eq!(total as u64, g.len(), "{n} shards must cover the grid");
            assert_eq!(seen, (0..g.len()).collect::<Vec<_>>(), "no overlap, no gap");
        }
    }

    #[test]
    fn shard_parse_and_validate() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("4/5").unwrap().to_string(), "4/5");
        assert!(Shard::parse("2/2").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::new(0, 0).is_err());
    }

    #[test]
    fn empty_grid() {
        let g = SpecGrid::new(0, &[XenVersion::V4_6], &[Mode::Exploit], 1);
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
        assert_eq!(g.shard_len(Some(Shard { index: 0, count: 2 })), 0);
    }

    #[test]
    fn resident_gauge_tracks_peak() {
        let g = ResidentGauge::default();
        g.enter();
        g.enter();
        g.exit();
        g.enter();
        assert_eq!(g.peak(), 2);
    }

    #[test]
    fn merge_is_associative_and_normalizes() {
        let mut fold_a = PartialFold::default();
        let mut fold_b = PartialFold::default();
        let g = grid();
        // Synthesize folds directly from specs (no worlds needed).
        for spec in g.iter() {
            let cell = CellResult {
                use_case: format!("uc{}", spec.use_case),
                abusive_functionality: "test".into(),
                version: spec.version,
                mode: spec.mode,
                erroneous_state: spec.trial % 2 == 0,
                violations: Vec::new(),
                handled: spec.trial % 2 == 0,
                notes: Vec::new(),
                error: None,
                outcome: CellOutcome::Completed,
                attempts: 1,
                wall_time_us: 10 + spec.slot,
                hypercalls: 3,
                phase_us: crate::campaign::PhaseTimings {
                    boot_us: Some(1),
                    inject_us: Some(2),
                    monitor_us: Some(3),
                },
                snapshot: hvsim::SnapshotStats::default(),
                tlb: hvsim::TlbStats::default(),
                flight: Vec::new(),
            };
            if spec.slot % 2 == 0 {
                fold_a.fold(&spec, &cell);
            } else {
                fold_b.fold(&spec, &cell);
            }
        }
        let (a, _) = {
            let mut whole = PartialFold::default();
            whole.absorb(&fold_a);
            whole.absorb(&fold_b);
            whole.finish()
        };
        let (ra, _) = fold_a.finish();
        let (rb, _) = fold_b.finish();
        assert_eq!(ra.merge(&rb).normalized(), a.normalized());
        assert_eq!(rb.merge(&ra).normalized(), a.normalized(), "merge commutes");
        assert_eq!(a.cells, g.len());
        assert_eq!(a.hypercalls, 3 * g.len());
        let json = a.normalized().to_json().unwrap();
        assert_eq!(StreamReport::from_json(&json).unwrap(), a.normalized());
    }

    #[test]
    fn degraded_cells_are_retained_by_slot() {
        let g = grid();
        let spec = g.decode(5).unwrap();
        let cell = CellResult {
            use_case: "uc".into(),
            abusive_functionality: "test".into(),
            version: spec.version,
            mode: spec.mode,
            erroneous_state: false,
            violations: Vec::new(),
            handled: false,
            notes: Vec::new(),
            error: Some(CampaignError::Boot { message: "-ENOMEM".into(), attempts: 2 }),
            outcome: CellOutcome::BootFailed,
            attempts: 2,
            wall_time_us: 5,
            hypercalls: 0,
            phase_us: crate::campaign::PhaseTimings::default(),
            snapshot: hvsim::SnapshotStats::default(),
            tlb: hvsim::TlbStats::default(),
            flight: vec![FlightEvent {
                slot: 5,
                seq: 0,
                path: "cell/degraded".into(),
                wall_us: 7,
                detail: "boot failed".into(),
            }],
        };
        let mut fold = PartialFold::default();
        fold.fold(&spec, &cell);
        let (report, _) = fold.finish();
        assert!(report.is_degraded());
        assert_eq!(report.retries, 1);
        assert_eq!(report.boot_failed, 1);
        let slot = report.degraded_slots.get(&5).unwrap();
        assert_eq!(slot.outcome, CellOutcome::BootFailed);
        assert_eq!(slot.trial, spec.trial);
        assert_eq!(slot.flight.len(), 1, "the forensic tail rides along in the fold");
        assert!(report.render_keys().contains("uc/"));
        // Normalization drops the tail so recorder-on and recorder-off
        // reports are byte-identical.
        let norm = report.normalized();
        assert!(norm.degraded_slots.get(&5).unwrap().flight.is_empty());
    }
}
