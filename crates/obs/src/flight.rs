//! The flight recorder: a per-worker fixed-capacity overwrite-oldest
//! ring of recent events, always on, dumped only when something goes
//! wrong.
//!
//! Tracing answers "what did the whole campaign do" and costs a sink
//! allocation per event; the flight recorder answers "what were the
//! last things *this worker* did before its cell degraded" and costs a
//! bounded ring slot. Workers record hypercall audit activity, boot
//! stages, phase boundaries, and chaos fault injections as they go;
//! when a cell degrades (panic, boot failure, timeout, chaos fault)
//! the recorder's tail for that cell becomes the cell's **forensic
//! tail**, serialized in the same canonical JSONL wire format as
//! traces (`trace validate` accepts a flight dump).
//!
//! Determinism: every event is tagged with the grid *slot* it belongs
//! to, and a cell runs entirely on one worker, so filtering the ring
//! by slot and re-stamping sequence numbers yields a tail that depends
//! only on the cell's own execution — byte-identical (after
//! normalization) at any `--jobs` count. The only nondeterministic
//! field is `wall_us`, which [`normalized_dump_jsonl`] zeroes, exactly
//! like trace normalization.

use crate::jsonl;
use crate::trace::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default ring capacity: enough for the full event stream of any
/// single cell (boot stages + audits + phase marks are well under a
/// hundred events) with headroom for context from the previous cells
/// on the same worker.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Recovers a mutex guard even if a holder panicked mid-record. Ring
/// pushes are single `VecDeque` operations, so a poisoned recorder
/// still holds a consistent event sequence.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One flight-recorder event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Grid slot the event belongs to (the cell's global index).
    pub slot: u64,
    /// Sequence number. Monotonic per recorder while in the ring;
    /// re-stamped from 0 when a tail is extracted, so tails are
    /// deterministic for a fixed slot.
    pub seq: u64,
    /// Slash-separated event path, e.g. `"cell/boot/result"`,
    /// `"audit/idt_gate_overwritten"`, `"chaos/worker_panic"`.
    pub path: String,
    /// Wall-clock microseconds (a measured duration or 0); the only
    /// nondeterministic field, zeroed by normalization.
    pub wall_us: u64,
    /// Free-form human-readable detail ("" when there is none).
    pub detail: String,
}

/// A fixed-capacity overwrite-oldest event ring.
///
/// Aligned to 128 bytes: every worker writes its own recorder several
/// times per cell, and recorders allocated back to back would otherwise
/// share cache lines between workers.
#[derive(Debug)]
#[repr(align(128))]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<FlightEvent>,
    recorded: u64,
    seq: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (0 records
    /// nothing).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity.min(DEFAULT_FLIGHT_CAPACITY)),
            recorded: 0,
            seq: 0,
        }
    }

    /// Appends an event, evicting the oldest once full. The `fill`
    /// closure writes the event's path and detail into *recycled*
    /// string buffers (cleared, capacity retained from the evicted
    /// event), so once the ring is warm, recording performs no heap
    /// allocation — the property that keeps the always-on recorder
    /// within its <5% campaign-throughput budget.
    pub fn record_parts(
        &mut self,
        slot: u64,
        wall_us: u64,
        fill: impl FnOnce(&mut String, &mut String),
    ) {
        if self.capacity == 0 {
            return;
        }
        let recycled = if self.events.len() >= self.capacity {
            self.events.pop_front().map(|mut event| {
                event.path.clear();
                event.detail.clear();
                event
            })
        } else {
            None
        };
        let mut event = recycled.unwrap_or_else(|| FlightEvent {
            slot: 0,
            seq: 0,
            path: String::new(),
            wall_us: 0,
            detail: String::new(),
        });
        event.slot = slot;
        event.seq = self.seq;
        event.wall_us = wall_us;
        fill(&mut event.path, &mut event.detail);
        self.events.push_back(event);
        self.seq += 1;
        self.recorded += 1;
    }

    /// Appends an event, evicting the oldest once full.
    pub fn record(&mut self, slot: u64, path: &str, wall_us: u64, detail: String) {
        self.record_parts(slot, wall_us, |p, d| {
            p.push_str(path);
            d.push_str(&detail);
        });
    }

    /// The events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The tail for one slot: every retained event of that slot, in
    /// order, re-stamped with sequence numbers from 0. Because a cell
    /// runs on a single worker and its events are the newest in that
    /// worker's ring, the tail is the cell's last `min(n, capacity)`
    /// events regardless of scheduling.
    pub fn tail(&self, slot: u64) -> Vec<FlightEvent> {
        self.events
            .iter()
            .filter(|e| e.slot == slot)
            .enumerate()
            .map(|(i, e)| FlightEvent { seq: i as u64, ..e.clone() })
            .collect()
    }

    /// The whole ring, oldest first — for stall dumps, where the
    /// wedged slot is whatever the worker touched last.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.iter().cloned().collect()
    }
}

/// A cloneable handle to a shared [`FlightRecorder`], or to nothing.
///
/// Workers own one handle each and record through it; the stall
/// supervisor holds clones of every worker's handle so it can dump a
/// wedged worker's ring from outside. A disabled handle (capacity 0)
/// costs one branch per call and never runs detail closures.
#[derive(Clone, Debug, Default)]
pub struct FlightHandle {
    inner: Option<Arc<Mutex<FlightRecorder>>>,
}

impl FlightHandle {
    /// A handle to a fresh recorder; `capacity == 0` yields a disabled
    /// handle that records nothing.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: (capacity > 0).then(|| Arc::new(Mutex::new(FlightRecorder::new(capacity)))),
        }
    }

    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// `true` when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a detail-free event: one branch when disabled, one
    /// uncontended lock and zero allocations when enabled.
    pub fn record(&self, slot: u64, path: &str, wall_us: u64) {
        self.record_with(slot, path, wall_us, |_| {});
    }

    /// Records one event. The detail writer runs only when enabled,
    /// and appends into a recycled ring buffer — use `write!` or
    /// `push_str`, not `format!`, so the enabled path stays
    /// allocation-free too.
    pub fn record_with<F>(&self, slot: u64, path: &str, wall_us: u64, detail: F)
    where
        F: FnOnce(&mut String),
    {
        if let Some(inner) = &self.inner {
            lock_recover(inner).record_parts(slot, wall_us, |p, d| {
                p.push_str(path);
                detail(d);
            });
        }
    }

    /// Runs `f` against the locked recorder when enabled — one lock
    /// (and one enabled-check) for a whole batch of events, used by
    /// call sites that record per hypercall or per boot stage.
    pub fn with_recorder<F>(&self, f: F)
    where
        F: FnOnce(&mut FlightRecorder),
    {
        if let Some(inner) = &self.inner {
            f(&mut lock_recover(inner));
        }
    }

    /// The re-sequenced tail for one slot (empty when disabled).
    pub fn tail(&self, slot: u64) -> Vec<FlightEvent> {
        match &self.inner {
            Some(inner) => lock_recover(inner).tail(slot),
            None => Vec::new(),
        }
    }

    /// The whole ring (empty when disabled).
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        match &self.inner {
            Some(inner) => lock_recover(inner).snapshot(),
            None => Vec::new(),
        }
    }

    /// Total events ever recorded through this handle.
    pub fn recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => lock_recover(inner).recorded(),
            None => 0,
        }
    }
}

/// Converts flight events to trace events in the canonical wire
/// schema: `shard = slot + 1` (the cell-shard convention), kind
/// `point`, the detail carried as a `detail` attribute.
pub fn to_trace_events(events: &[FlightEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .map(|e| TraceEvent {
            shard: e.slot + 1,
            seq: e.seq,
            kind: EventKind::Point,
            path: e.path.clone(),
            wall_us: e.wall_us,
            attrs: if e.detail.is_empty() {
                Vec::new()
            } else {
                vec![("detail".to_owned(), e.detail.clone())]
            },
        })
        .collect()
}

/// Serializes a flight dump as canonical JSONL — the same wire format
/// as traces, so `trace validate` accepts a dump.
pub fn dump_jsonl(events: &[FlightEvent]) -> String {
    jsonl::to_jsonl(&to_trace_events(events))
}

/// [`dump_jsonl`] with every `wall_us` zeroed: deterministic for a
/// fixed slot at any worker count.
pub fn normalized_dump_jsonl(events: &[FlightEvent]) -> String {
    jsonl::normalized_jsonl(&to_trace_events(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(1, &format!("e{i}"), 0, String::new());
        }
        assert_eq!(r.recorded(), 5);
        let paths: Vec<&str> = r.events().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["e2", "e3", "e4"], "the two oldest events were evicted");
        // Ring-internal sequence numbers keep counting across evictions.
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn tail_filters_by_slot_and_resequences() {
        let mut r = FlightRecorder::new(8);
        r.record(7, "old/cell", 10, String::new());
        r.record(9, "cell/start", 0, "XSA-212".to_owned());
        r.record(9, "cell/boot/result", 120, String::new());
        r.record(9, "audit/idt_gate_overwritten", 0, "vector 65".to_owned());
        let tail = r.tail(9);
        assert_eq!(tail.len(), 3, "the previous cell's event is filtered out");
        let keyed: Vec<(u64, &str)> = tail.iter().map(|e| (e.seq, e.path.as_str())).collect();
        assert_eq!(
            keyed,
            vec![(0, "cell/start"), (1, "cell/boot/result"), (2, "audit/idt_gate_overwritten")],
            "tails are re-sequenced from 0 so they are position-independent"
        );
        assert!(r.tail(42).is_empty());
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = FlightRecorder::new(0);
        r.record(1, "e", 0, String::new());
        assert_eq!(r.recorded(), 0);
        assert!(r.tail(1).is_empty());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let h = FlightHandle::disabled();
        assert!(!h.is_enabled());
        h.record_with(1, "e", 0, |_| panic!("detail closure must not run"));
        h.with_recorder(|_| panic!("batch closure must not run"));
        assert!(h.tail(1).is_empty());
        assert!(h.snapshot().is_empty());
        assert_eq!(h.recorded(), 0);
        assert!(!FlightHandle::new(0).is_enabled());
        assert!(!FlightHandle::default().is_enabled());
    }

    #[test]
    fn handle_clones_share_the_ring() {
        let h = FlightHandle::new(4);
        let supervisor = h.clone();
        h.record(3, "cell/start", 0);
        h.record_with(3, "chaos/worker_panic", 0, |d| d.push_str("slot 3"));
        assert_eq!(supervisor.snapshot().len(), 2, "a clone sees the worker's events");
        assert_eq!(supervisor.tail(3).len(), 2);
        assert_eq!(supervisor.recorded(), 2);
    }

    #[test]
    fn dumps_are_canonical_jsonl() {
        let events = vec![
            FlightEvent {
                slot: 4,
                seq: 0,
                path: "cell/start".into(),
                wall_us: 0,
                detail: "XSA-182/4.8/injection".into(),
            },
            FlightEvent {
                slot: 4,
                seq: 1,
                path: "cell/boot/result".into(),
                wall_us: 350,
                detail: String::new(),
            },
        ];
        let dump = dump_jsonl(&events);
        // The dump round-trips through the strict trace parser.
        let parsed = jsonl::parse_jsonl(&dump).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].shard, 5, "cell slot s dumps as trace shard s+1");
        assert_eq!(parsed[0].attrs, vec![("detail".to_owned(), "XSA-182/4.8/injection".to_owned())]);
        assert_eq!(parsed[1].wall_us, 350);
        assert!(parsed[1].attrs.is_empty());
        // Normalization zeroes only the wall clock.
        let norm = normalized_dump_jsonl(&events);
        assert!(norm.contains("\"wall_us\":0"));
        assert!(!norm.contains("350"));
        assert_eq!(jsonl::parse_jsonl(&norm).unwrap().len(), 2);
    }

    #[test]
    fn flight_events_round_trip_through_serde() {
        let e = FlightEvent {
            slot: 11,
            seq: 2,
            path: "chaos/slowdown".into(),
            wall_us: 80_000,
            detail: "2x deadline".into(),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: FlightEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
        // An empty detail survives the round trip too.
        let plain = FlightEvent { detail: String::new(), ..e };
        let json = serde_json::to_string(&plain).unwrap();
        let back: FlightEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(plain, back);
    }

    #[test]
    fn poisoned_recorder_still_records() {
        let h = FlightHandle::new(4);
        h.record(1, "before", 0);
        let inner = h.inner.as_ref().unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.lock().unwrap();
            panic!("poison");
        }));
        h.record(1, "after", 0);
        assert_eq!(h.tail(1).len(), 2);
    }
}
