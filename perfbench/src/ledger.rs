//! In-memory spans and the wall-clock ledger built from them.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the program; spans nest by the order they open and close, and
//! each carries the grid slot of the cell it belongs to as its request
//! id. Nothing is written until the traced run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Grid slot (or trial index) of the cell the call served.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. A disabled tracer records nothing,
/// so the same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::default(),
            open: Cell::new(None),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.get(),
            request,
        });
        self.open.set(Some(index));
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let mut spans = self.tracer.spans.borrow_mut();
            spans[index].end_ns = self.tracer.now_ns();
            self.tracer.open.set(spans[index].parent);
        }
    }
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover. Children of one span never overlap (the
/// recorder is single-threaded), so the self times of a tree sum to its
/// root's duration.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Writes spans as JSON lines: name, start, end, parent, request.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    Ok(())
}

/// Campaign wall time split into the layers timed from outside and the
/// remainder no timed call covers (dispatch, containment, flight
/// recorder, fold).
#[derive(Clone, Debug)]
pub struct Ledger {
    pub campaign_ns: f64,
    pub layers: Vec<(String, f64)>,
    pub unattributed_ns: f64,
}

impl Ledger {
    pub fn new(campaign_ns: f64, layers: Vec<(String, f64)>) -> Self {
        let attributed: f64 = layers.iter().map(|(_, ns)| ns).sum();
        Self {
            campaign_ns,
            layers,
            unattributed_ns: campaign_ns - attributed,
        }
    }

    pub fn share(&self, ns: f64) -> f64 {
        ns / self.campaign_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_span() {
        let spans = vec![
            span("campaign", 0, 1_000, None),
            span("guest.boot", 10, 200, Some(0)),
            span("cell", 250, 900, Some(0)),
            span("mem.clone", 260, 300, Some(2)),
            span("xsa.inject", 300, 700, Some(2)),
            span("hv.inject", 350, 500, Some(4)),
            span("core.monitor", 700, 880, Some(2)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs["campaign"], 1_000 - 190 - 650);
        assert_eq!(selfs["cell"], 650 - 40 - 400 - 180);
        assert_eq!(selfs["xsa.inject"], 400 - 150);
        assert_eq!(selfs.values().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn ledger_layers_plus_remainder_sum_to_the_campaign_span() {
        let spans = vec![
            span("campaign", 0, 5_000, None),
            span("guest.boot", 0, 1_200, Some(0)),
            span("mem.clone", 1_300, 1_400, Some(0)),
            span("xsa.exploit", 1_400, 3_000, Some(0)),
            span("core.monitor", 3_000, 3_500, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        let layers: Vec<(String, f64)> = selfs
            .iter()
            .filter(|(name, _)| **name != "campaign")
            .map(|(name, ns)| ((*name).to_owned(), *ns as f64))
            .collect();
        let ledger = Ledger::new(spans[0].duration_ns() as f64, layers);
        let total: f64 =
            ledger.layers.iter().map(|(_, ns)| ns).sum::<f64>() + ledger.unattributed_ns;
        assert_eq!(total, ledger.campaign_ns);
        assert_eq!(ledger.unattributed_ns, selfs["campaign"] as f64);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("cell", 7);
            let _inner = tracer.span("mem.clone", 7);
        }
        let _next = tracer.span("cell", 8);
        drop(_next);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[2].request, 8);

        let off = Tracer::new(false);
        drop(off.span("cell", 1));
        assert!(off.into_spans().is_empty());
    }
}
