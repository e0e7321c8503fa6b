//! Live campaign telemetry: worker heartbeats, stall detection, the
//! metrics-timeline sampler, and the `--progress` line.
//!
//! Every campaign run (classic and streaming) shares one model: each
//! worker stamps a heartbeat at every slot boundary, and a single
//! supervisor thread wakes every sampling interval to (1) push a
//! [`TimelineSample`] of live counters and gauges, (2) compare every
//! worker's heartbeat age against the stall threshold — flagging a
//! wedged worker once per stall episode via the
//! `campaign.worker.stalled` counter and dumping its flight-recorder
//! ring — and (3) redraw the live progress line on stderr.
//!
//! Everything here is wall-clock shaped by construction and therefore
//! lives *outside* the determinism contract: timelines, progress
//! lines, and stall dumps are diagnostics, never part of normalized
//! reports.

use hvsim_obs::{flight, FlightHandle, MetricsRegistry, MetricsTimeline};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Heartbeat value meaning "this worker is idle" (finished its stream
/// or waiting for work) — idle workers are never stall candidates.
const IDLE: u64 = u64::MAX;

/// Shared live state of one campaign run: progress counters and one
/// heartbeat cell per worker. Created once per run, written by workers
/// on the slot boundary (two relaxed atomic stores), read by the
/// supervisor.
pub(crate) struct Telemetry {
    start: Instant,
    total: u64,
    done: AtomicU64,
    degraded: AtomicU64,
    /// Per-worker heartbeat: milliseconds since `start` when the worker
    /// last crossed a slot boundary, or [`IDLE`].
    heartbeats: Vec<AtomicU64>,
    /// Workers that ran out of work and exited — the supervisor's
    /// shutdown condition, airtight even when the cell count drifts
    /// (resumed slots, early closes).
    finished_workers: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(total: u64, workers: usize) -> Self {
        Self {
            start: Instant::now(),
            total,
            done: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            heartbeats: (0..workers).map(|_| AtomicU64::new(IDLE)).collect(),
            finished_workers: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the run started.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Stamps `worker`'s heartbeat: it just crossed a slot boundary.
    pub(crate) fn beat(&self, worker: usize) {
        if let Some(cell) = self.heartbeats.get(worker) {
            cell.store(self.elapsed_ms().min(IDLE - 1), Ordering::Relaxed);
        }
    }

    /// Marks `worker` idle (waiting or done); idle workers never stall.
    pub(crate) fn idle(&self, worker: usize) {
        if let Some(cell) = self.heartbeats.get(worker) {
            cell.store(IDLE, Ordering::Relaxed);
        }
    }

    /// Marks `worker` permanently done. The supervisor exits once every
    /// worker has finished.
    pub(crate) fn worker_finished(&self, worker: usize) {
        self.idle(worker);
        self.finished_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one finished cell.
    pub(crate) fn cell_done(&self, degraded: bool) {
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    fn finished(&self) -> bool {
        self.finished_workers.load(Ordering::Relaxed) >= self.heartbeats.len() as u64
    }

    /// Each busy worker's heartbeat age in ms (`None` = idle).
    fn heartbeat_ages_ms(&self, now_ms: u64) -> Vec<Option<u64>> {
        self.heartbeats
            .iter()
            .map(|cell| match cell.load(Ordering::Relaxed) {
                IDLE => None,
                beat => Some(now_ms.saturating_sub(beat)),
            })
            .collect()
    }
}

/// Indices of workers whose heartbeat age exceeds the threshold. Pure
/// so the stall policy is unit-testable without threads.
pub(crate) fn stalled_workers(ages: &[Option<u64>], threshold_ms: u64) -> Vec<usize> {
    ages.iter()
        .enumerate()
        .filter_map(|(worker, age)| age.filter(|&a| a > threshold_ms).map(|_| worker))
        .collect()
}

/// The `--progress` line: done/total, percent, throughput, ETA, and
/// the degraded count.
pub(crate) fn progress_line(done: u64, total: u64, degraded: u64, elapsed_ms: u64) -> String {
    let percent = if total == 0 { 100.0 } else { done as f64 * 100.0 / total as f64 };
    let rate = if elapsed_ms == 0 { 0.0 } else { done as f64 * 1000.0 / elapsed_ms as f64 };
    let eta = if rate > 0.0 && done < total {
        format!("{:.0}s", (total - done) as f64 / rate)
    } else {
        "-".to_owned()
    };
    format!(
        "cells {done}/{total} ({percent:.1}%) | {rate:.1} cells/s | eta {eta} | degraded {degraded}"
    )
}

/// Run-specific gauge appender: each tick's timeline sample passes
/// through one of these so the campaign can add resident cells and
/// checkpoint/chaos tallies to the shared base set.
pub(crate) type ExtraGauges<'a> = &'a dyn Fn(&mut Vec<(String, u64)>);

/// Everything the supervisor thread needs, borrowed from the engine's
/// scope so the thread can live inside `std::thread::scope`.
pub(crate) struct Supervisor<'a> {
    /// Sampling interval for the timeline / stall check / progress line.
    pub interval: Duration,
    /// Heartbeat age beyond which a busy worker counts as stalled.
    pub stall_after: Duration,
    /// Redraw the live progress line on stderr every tick.
    pub progress: bool,
    /// Timeline the samples are pushed into, when attached.
    pub timeline: Option<&'a MetricsTimeline>,
    /// Registry the `campaign.worker.stalled` counter is folded into.
    pub registry: Option<&'a MetricsRegistry>,
    /// Every worker's flight handle, for stall dumps.
    pub flight: &'a [FlightHandle],
    /// Directory stall dumps are written into (fail-soft on IO).
    pub flight_out: Option<&'a Path>,
}

impl Supervisor<'_> {
    /// Runs the supervisor loop until the run finishes: a timeline
    /// sample, a stall sweep, and a progress redraw per tick, plus one
    /// final sample after the last cell so even sub-interval runs
    /// produce a non-empty timeline.
    ///
    /// `extra` appends run-specific gauges (resident cells, checkpoint
    /// counters, chaos tallies) to each sample.
    pub(crate) fn run(&self, telemetry: &Telemetry, extra: ExtraGauges<'_>) {
        if let Some(registry) = self.registry {
            // Pre-register the stall counter so "no stalls" is an
            // explicit 0 in every snapshot, not an absent name.
            registry.add(crate::obs_bridge::M_WORKER_STALLED, 0);
        }
        let mut flagged = vec![false; self.flight.len().max(telemetry.heartbeats.len())];
        loop {
            let finished = self.sleep_interval(telemetry);
            self.tick(telemetry, extra, &mut flagged);
            if finished {
                break;
            }
        }
        if self.progress {
            eprintln!();
        }
    }

    /// Sleeps one interval in short chunks, returning early (true)
    /// once the run is finished.
    fn sleep_interval(&self, telemetry: &Telemetry) -> bool {
        let chunk = Duration::from_millis(10).min(self.interval);
        let deadline = Instant::now() + self.interval;
        while Instant::now() < deadline {
            if telemetry.finished() {
                return true;
            }
            std::thread::sleep(chunk);
        }
        telemetry.finished()
    }

    fn tick(
        &self,
        telemetry: &Telemetry,
        extra: ExtraGauges<'_>,
        flagged: &mut [bool],
    ) {
        let now_ms = telemetry.elapsed_ms();
        let done = telemetry.done.load(Ordering::Relaxed);
        let degraded = telemetry.degraded.load(Ordering::Relaxed);
        let ages = telemetry.heartbeat_ages_ms(now_ms);
        let busy = ages.iter().filter(|age| age.is_some()).count() as u64;
        let stalled = stalled_workers(&ages, self.stall_after.as_millis() as u64);
        for &worker in &stalled {
            if !flagged[worker] {
                flagged[worker] = true;
                if let Some(registry) = self.registry {
                    registry.add(crate::obs_bridge::M_WORKER_STALLED, 1);
                }
                self.dump_stalled_worker(worker);
            }
        }
        // A worker that beats again ends its stall episode; the next
        // episode counts (and dumps) anew.
        for (worker, age) in ages.iter().enumerate() {
            if !stalled.contains(&worker) && age.is_some() {
                flagged[worker] = false;
            }
        }
        if let Some(timeline) = self.timeline {
            let mut values = vec![
                ("progress.done".to_owned(), done),
                ("progress.total".to_owned(), telemetry.total),
                ("progress.degraded".to_owned(), degraded),
                ("workers.busy".to_owned(), busy),
                ("workers.stalled".to_owned(), stalled.len() as u64),
                (
                    "throughput.cells_per_sec_x1000".to_owned(),
                    done.saturating_mul(1_000_000).checked_div(now_ms).unwrap_or(0),
                ),
            ];
            extra(&mut values);
            timeline.push(now_ms, values);
        }
        if self.progress {
            eprint!("\r{}", progress_line(done, telemetry.total, degraded, now_ms));
        }
    }

    /// Writes the wedged worker's whole ring (its last actions, newest
    /// last) as a flight dump. Fail-soft: a diagnostics write error
    /// must never take the campaign down.
    fn dump_stalled_worker(&self, worker: usize) {
        let (Some(dir), Some(handle)) = (self.flight_out, self.flight.get(worker)) else {
            return;
        };
        let snapshot = handle.snapshot();
        if snapshot.is_empty() {
            return;
        }
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("stall-worker-{worker}.jsonl")),
            flight::dump_jsonl(&snapshot),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_detection_ignores_idle_and_fresh_workers() {
        let ages = vec![Some(10), None, Some(5_000), Some(2_001), None];
        assert_eq!(stalled_workers(&ages, 2_000), vec![2, 3]);
        assert!(stalled_workers(&ages, 10_000).is_empty());
        assert!(stalled_workers(&[], 1).is_empty());
    }

    #[test]
    fn heartbeats_round_trip_through_ages() {
        let t = Telemetry::new(4, 2);
        t.beat(0);
        let ages = t.heartbeat_ages_ms(t.elapsed_ms() + 50);
        assert!(ages[0].unwrap() >= 50);
        assert_eq!(ages[1], None, "a worker that never beat is idle");
        t.idle(0);
        assert_eq!(t.heartbeat_ages_ms(1_000), vec![None, None]);
        // Out-of-range worker indices are ignored, not a panic.
        t.beat(7);
        t.idle(7);
    }

    #[test]
    fn progress_counters_accumulate() {
        let t = Telemetry::new(3, 2);
        assert!(!t.finished());
        t.cell_done(false);
        t.cell_done(true);
        t.cell_done(false);
        assert_eq!(t.done.load(Ordering::Relaxed), 3);
        assert_eq!(t.degraded.load(Ordering::Relaxed), 1);
        t.worker_finished(0);
        assert!(!t.finished(), "one of two workers still running");
        t.worker_finished(1);
        assert!(t.finished());
    }

    #[test]
    fn progress_line_formats_rate_and_eta() {
        let line = progress_line(50, 100, 3, 10_000);
        assert_eq!(line, "cells 50/100 (50.0%) | 5.0 cells/s | eta 10s | degraded 3");
        assert!(progress_line(0, 100, 0, 0).contains("eta -"));
        assert!(progress_line(100, 100, 0, 10_000).contains("eta -"));
        assert!(progress_line(0, 0, 0, 5).contains("100.0%"));
    }
}
