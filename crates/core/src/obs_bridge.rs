//! Adapters between the simulator's existing evidence streams and the
//! `hvsim-obs` layer.
//!
//! The hypervisor's [`AuditLog`](hvsim::AuditLog) and the guest's boot
//! trace are recorded *inside the world* regardless of observability
//! settings; this module is the single place where those records are
//! re-emitted as trace events, so neither `hvsim` nor `guestos` grows a
//! dependency on the obs crate and no event is ever counted twice.

use crate::campaign::{CampaignReport, CellResult};
use crate::stream::{StreamReport, StreamRunStats};
use guestos::BootStage;
use hvsim::AuditEvent;
use hvsim_obs::{FlightHandle, Histogram, MetricsRegistry, TraceCtx};

/// Counter: cells the campaign scheduled.
pub const M_CELLS: &str = "campaign.cells";
/// Counter: cells that completed cleanly.
pub const M_CELLS_COMPLETED: &str = "campaign.cells_completed";
/// Counter: cells on which the harness degraded.
pub const M_CELLS_DEGRADED: &str = "campaign.cells_degraded";
/// Counter: extra boot attempts consumed by transient-failure retries.
pub const M_RETRIES: &str = "campaign.retries";
/// Counter: cells abandoned at the per-cell deadline.
pub const M_TIMEOUTS: &str = "campaign.timeouts";
/// Counter: cells whose world never booted.
pub const M_BOOT_FAILURES: &str = "campaign.boot_failures";
/// Counter: cells where a panic escaped the cell body.
pub const M_CRASHES: &str = "campaign.crashes";
/// Counter: hypercalls executed across all cells. Derived from the
/// canonical per-cell sum — see
/// [`canonical_hypercall_total`](crate::report::canonical_hypercall_total)
/// for which count is authoritative.
pub const M_HYPERCALLS: &str = "campaign.hypercalls";
/// Counter: frames privatized by copy-on-write across all cell worlds.
pub const M_FRAMES_COPIED: &str = "mem.frames_copied";
/// Counter: COW chunk-directory privatizations across all cell worlds.
/// Recorded on every run — a quiet run reads an explicit 0 (same
/// convention as `campaign.chaos.*`), so dashboards can distinguish
/// "nothing privatized" from "counter missing".
pub const M_CHUNKS_PRIVATIZED: &str = "mem.chunks_privatized";
/// Counter: software-TLB hits across all cell worlds.
pub const M_TLB_HITS: &str = "tlb.hits";
/// Counter: software-TLB misses across all cell worlds.
pub const M_TLB_MISSES: &str = "tlb.misses";
/// Counter: software-TLB fills that evicted a live entry from a full
/// set. Recorded on every run — a quiet run reads an explicit 0 (same
/// convention as `campaign.chaos.*`).
pub const M_TLB_FILL_CONFLICTS: &str = "tlb.fill_conflicts";
/// Counter (streaming only): time spent merging per-worker partial
/// reports, µs.
pub const M_MERGE_US: &str = "campaign.stream.merge_us";
/// Counter (streaming only): peak cells resident (claimed, not yet
/// folded) at once.
pub const M_PEAK_RESIDENT: &str = "campaign.stream.peak_resident_cells";
/// Counter (streaming only): time workers spent blocked on a base world
/// that was still booting, µs.
pub const M_BASE_WORLD_WAIT_US: &str = "campaign.stream.base_world_wait_us";
/// Counter: total backoff slept between transient boot retries, µs.
pub const M_RETRY_BACKOFF_US: &str = "boot.retry_backoff_us";
/// Counter (checkpointing only): slot records journaled.
pub const M_CKPT_SLOTS: &str = "campaign.checkpoint.slots";
/// Counter (checkpointing only): durable fold records journaled.
pub const M_CKPT_FOLDS: &str = "campaign.checkpoint.folds";
/// Counter (checkpointing only): fsyncs issued on the journal.
pub const M_CKPT_SYNCS: &str = "campaign.checkpoint.syncs";
/// Counter (checkpointing only): bytes appended to the journal.
pub const M_CKPT_BYTES: &str = "campaign.checkpoint.bytes";
/// Counter (checkpointing only): journal write errors (fail-soft — the
/// run continues unjournaled after the first).
pub const M_CKPT_WRITE_ERRORS: &str = "campaign.checkpoint.write_errors";
/// Counter (resume only): slots skipped because a durable fold record
/// already covered them.
pub const M_CKPT_RESUMED_SLOTS: &str = "campaign.checkpoint.resumed_slots";
/// Counter (chaos only): worker panics injected.
pub const M_CHAOS_PANICS: &str = "campaign.chaos.worker_panics";
/// Counter (chaos only): transient boot failures injected.
pub const M_CHAOS_BOOTS: &str = "campaign.chaos.transient_boots";
/// Counter (chaos only): cell slowdowns injected.
pub const M_CHAOS_SLOWDOWNS: &str = "campaign.chaos.slowdowns";
/// Counter (chaos only): queue stalls injected.
pub const M_CHAOS_STALLS: &str = "campaign.chaos.queue_stalls";
/// Counter (chaos only): journal records torn mid-write.
pub const M_CHAOS_TORN: &str = "campaign.chaos.torn_writes";
/// Counter: stall episodes the supervisor flagged — a busy worker
/// whose heartbeat age exceeded the stall threshold. Wall-clock
/// shaped, so it lives outside determinism diffs like the
/// `campaign.stream.*` family. Pre-registered at 0 whenever the
/// supervisor runs, so "no stalls" is an explicit value.
pub const M_WORKER_STALLED: &str = "campaign.worker.stalled";

/// Re-emits hypervisor audit events as trace points under
/// `audit/<kind>`, one per event, with the human-readable rendering in
/// the `detail` attribute. Callers pass the slice *after* their
/// baseline index so world-boot events are not re-attributed to the
/// cell that merely cloned the world.
pub fn bridge_audit(ctx: &TraceCtx, events: &[AuditEvent]) {
    if !ctx.is_enabled() {
        return;
    }
    for event in events {
        ctx.point(&format!("audit/{}", event.kind()), 0, || {
            vec![("detail".to_owned(), event.to_string())]
        });
    }
}

/// Records hypervisor audit events into a worker's flight ring under
/// `audit/<kind>`, mirroring [`bridge_audit`]'s trace emission — the
/// recorder is always on, so a degraded cell's forensic tail carries
/// the hypercall/audit activity even when tracing is off.
///
/// Called only on a cell's *degradation* paths: a clean cell's audit
/// events can never appear in another cell's tail (tails filter by
/// slot), and a wedged cell hasn't reached its bridge point yet, so
/// skipping them changes no dump while keeping one audit-heavy cell
/// from paying per-hypercall recording cost on the clean hot path.
pub(crate) fn bridge_audit_flight(flight: &FlightHandle, slot: u64, events: &[AuditEvent]) {
    use std::fmt::Write as _;
    flight.with_recorder(|recorder| {
        for event in events {
            recorder.record_parts(slot, 0, |path, detail| {
                path.push_str("audit/");
                path.push_str(event.kind());
                let _ = write!(detail, "{event}");
            });
        }
    });
}

/// Re-emits the guest boot trace as points under `<parent>/<stage>`,
/// carrying each stage's externally measured duration in `wall_us`.
pub fn bridge_boot_stages(ctx: &TraceCtx, parent: &str, stages: &[BootStage]) {
    if !ctx.is_enabled() {
        return;
    }
    for stage in stages {
        ctx.point(&format!("{parent}/{}", stage.stage), stage.wall_us, Vec::new);
    }
}

fn phase_histograms(
    registry: &MetricsRegistry,
    name: &str,
    cells: &[&CellResult],
    value: impl Fn(&CellResult) -> Option<u64>,
) {
    for cell in cells {
        if let Some(v) = value(cell) {
            registry.observe(name, v);
        }
    }
}

/// Folds a finished report into the registry: the `campaign.*` counters
/// plus per-phase latency histograms split by completed vs degraded.
/// Called once at collection time (deterministic — no worker-thread
/// interleaving can reorder counter updates).
pub fn record_report_metrics(report: &CampaignReport, registry: &MetricsRegistry) {
    let cells = report.cells();
    registry.add(M_CELLS, cells.len() as u64);
    registry.add(M_CELLS_COMPLETED, report.completed_cells().count() as u64);
    registry.add(M_CELLS_DEGRADED, report.degraded_cells().count() as u64);
    registry.add(M_RETRIES, cells.iter().map(|c| u64::from(c.attempts.saturating_sub(1))).sum());
    registry.add(
        M_TIMEOUTS,
        cells
            .iter()
            .filter(|c| matches!(c.outcome, crate::error::CellOutcome::TimedOut { .. }))
            .count() as u64,
    );
    registry.add(
        M_BOOT_FAILURES,
        cells
            .iter()
            .filter(|c| matches!(c.outcome, crate::error::CellOutcome::BootFailed))
            .count() as u64,
    );
    registry.add(
        M_CRASHES,
        cells
            .iter()
            .filter(|c| matches!(c.outcome, crate::error::CellOutcome::Crashed { .. }))
            .count() as u64,
    );
    registry.add(M_HYPERCALLS, crate::report::canonical_hypercall_total(report));
    registry.add(M_FRAMES_COPIED, cells.iter().map(|c| c.snapshot.frames_copied).sum());
    registry.add(M_CHUNKS_PRIVATIZED, cells.iter().map(|c| c.snapshot.chunks_privatized).sum());
    registry.add(M_TLB_HITS, cells.iter().map(|c| c.tlb.hits).sum());
    registry.add(M_TLB_MISSES, cells.iter().map(|c| c.tlb.misses).sum());
    registry.add(M_TLB_FILL_CONFLICTS, cells.iter().map(|c| c.tlb.fill_conflicts).sum());
    let completed: Vec<&CellResult> = report.completed_cells().collect();
    let degraded: Vec<&CellResult> = report.degraded_cells().collect();
    for (suffix, group) in [("completed", &completed), ("degraded", &degraded)] {
        phase_histograms(registry, &format!("campaign.boot_us.{suffix}"), group, |c| {
            c.phase_us.boot_us
        });
        phase_histograms(registry, &format!("campaign.inject_us.{suffix}"), group, |c| {
            c.phase_us.inject_us
        });
        phase_histograms(registry, &format!("campaign.monitor_us.{suffix}"), group, |c| {
            c.phase_us.monitor_us
        });
    }
}

/// Folds a streaming run into the registry: the same `campaign.*`
/// counters the classic path records (from the already-merged report,
/// so updates are deterministic), full-resolution per-phase histograms
/// via exact merges, and the streaming-only pipeline counters. The
/// `campaign.stream.*` values are wall-clock shaped and never part of
/// determinism diffs.
pub(crate) fn record_stream_metrics(
    report: &StreamReport,
    phases: &crate::stream::PhaseHistograms,
    stats: &StreamRunStats,
    registry: &MetricsRegistry,
) {
    registry.add(M_CELLS, report.cells);
    registry.add(M_CELLS_COMPLETED, report.completed);
    registry.add(M_CELLS_DEGRADED, report.degraded);
    registry.add(M_RETRIES, report.retries);
    registry.add(M_TIMEOUTS, report.timed_out);
    registry.add(M_BOOT_FAILURES, report.boot_failed);
    registry.add(M_CRASHES, report.crashed);
    registry.add(M_HYPERCALLS, report.hypercalls);
    registry.add(M_FRAMES_COPIED, report.frames_copied);
    registry.add(M_CHUNKS_PRIVATIZED, report.chunks_privatized);
    registry.add(M_TLB_HITS, report.tlb_hits);
    registry.add(M_TLB_MISSES, report.tlb_misses);
    registry.add(M_TLB_FILL_CONFLICTS, report.tlb_fill_conflicts);
    for (name, histogram) in phases.named() {
        registry.observe_histogram(name, histogram);
    }
    registry.add(M_MERGE_US, stats.merge_us);
    registry.add(M_PEAK_RESIDENT, stats.peak_resident_cells);
    registry.add(M_BASE_WORLD_WAIT_US, stats.base_world_wait_us);
}

/// Folds a finished checkpoint session into the registry. Counter
/// values are wall-clock-free but schedule-*shaped* (batch boundaries
/// move with worker interleaving), so they live outside determinism
/// diffs like the `campaign.stream.*` family.
pub(crate) fn record_checkpoint_metrics(
    counters: &crate::checkpoint::CheckpointCounters,
    resumed_slots: u64,
    registry: &MetricsRegistry,
) {
    registry.add(M_CKPT_SLOTS, counters.slots);
    registry.add(M_CKPT_FOLDS, counters.folds);
    registry.add(M_CKPT_SYNCS, counters.syncs);
    registry.add(M_CKPT_BYTES, counters.bytes);
    registry.add(M_CKPT_WRITE_ERRORS, counters.write_errors);
    registry.add(M_CKPT_RESUMED_SLOTS, resumed_slots);
}

/// Folds a finished run's chaos-fault tallies into the registry.
///
/// Called whenever chaos is *configured*, even when the policy is
/// no-op (`None`) or simply fired nothing: the `campaign.chaos.*`
/// counters then read an explicit 0, so a dashboard can distinguish
/// "chaos off" (counters absent) from "chaos quiet" (counters zero).
pub(crate) fn record_chaos_metrics(
    policy: Option<&crate::chaos::ChaosPolicy>,
    registry: &MetricsRegistry,
) {
    let (panics, boots, slowdowns, stalls, torn) =
        policy.map_or((0, 0, 0, 0, 0), crate::chaos::ChaosPolicy::fired);
    registry.add(M_CHAOS_PANICS, panics);
    registry.add(M_CHAOS_BOOTS, boots);
    registry.add(M_CHAOS_SLOWDOWNS, slowdowns);
    registry.add(M_CHAOS_STALLS, stalls);
    registry.add(M_CHAOS_TORN, torn);
}

/// Builds one phase histogram summary directly from report cells — the
/// path `CampaignThroughput` uses for `BENCH_campaign.json`.
pub fn phase_summary<'a>(
    cells: impl Iterator<Item = &'a CellResult>,
    value: impl Fn(&CellResult) -> Option<u64>,
) -> hvsim_obs::HistogramSummary {
    let mut histogram = Histogram::new();
    for cell in cells {
        if let Some(v) = value(cell) {
            histogram.record(v);
        }
    }
    histogram.summary()
}
