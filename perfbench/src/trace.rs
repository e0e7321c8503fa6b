//! The traced run: per-layer metrics and the wall-clock ledger, taken
//! from outside the program at one worker.
//!
//! The ledger's campaign time is the real engine's: one campaign of the
//! workload at one worker, from building it to its serialized report.
//! The layer times come from replaying the same cells through the
//! public entry points of each layer (`standard_world`, `World::clone`,
//! `UseCase::run_*_trial`, the injector, `TargetRegion::sample`,
//! `Monitor::observe`) with a span around each call. What the replay's
//! layer calls do not cover is the engine's own time: dispatch,
//! containment, flight recorder and fold. The replay must execute
//! exactly the hypercalls and reach exactly the verdicts of the real
//! campaign, or the run fails.
//!
//! Layers a workload never calls (exploits on `synthetic_journaled`
//! and `randomized`, the scenario layer on `randomized`, the sampler
//! outside `randomized`) are probed on the paper grid, and the
//! `randomized` workload, which has no grid, measures the journal and
//! the `obs` shares on the paper grid too, so every metric is measured
//! in every traced run.

use crate::ledger::{durations_ns, self_times_ns, write_jsonl, Ledger, Tracer};
use crate::stats::median;
use crate::workload::{
    randomized_world, Report, Runner, Workload, RANDOMIZED_TRIALS, RANDOMIZED_VERSION,
};
use bench::SyntheticCase;
use guestos::World;
use hvsim::{AccessMode, DomainId, Pfn, XenVersion};
use hvsim_obs::MetricsRegistry;
use intrusion_core::campaign::{standard_world, ATTACKER_GUEST};
use intrusion_core::{
    default_jobs, ArbitraryAccessInjector, ErroneousStateSpec, InjectError, InjectionEvidence,
    Injector, Mode, Monitor, SpecGrid, TargetRegion, UseCase,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Calls timed per pass by each nanosecond-scale probe.
const PROBE_CALLS: usize = 512;

/// Layers timed by replay spans, in ledger order. `cell` spans are the
/// replay's own glue and belong to no layer; `core.report` is timed on
/// the campaign's own report.
const LAYERS: [&str; 8] = [
    "guest.boot",
    "mem.clone",
    "xsa.exploit",
    "xsa.inject",
    "hv.inject",
    "guest.activate",
    "core.randomized.sample",
    "core.monitor",
];

/// One per-layer metric: name, value, unit, samples behind it.
pub type Metric = (&'static str, f64, &'static str, usize);

/// Exact work counts of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    cells: u64,
    hypercalls: u64,
    erroneous: u64,
    violated: u64,
    chunks_privatized: u64,
    frames_copied: u64,
    tlb_hits: u64,
    tlb_misses: u64,
}

/// Samples gathered over the traced run's passes.
#[derive(Default)]
struct Samples {
    campaign_1w_ns: Vec<f64>,
    campaign_np_ns: Vec<f64>,
    report_ns: Vec<f64>,
    layer_self_ns: BTreeMap<&'static str, Vec<f64>>,
    span_ns: BTreeMap<&'static str, Vec<f64>>,
    probe_span_ns: BTreeMap<&'static str, Vec<f64>>,
    trace_overhead: Vec<f64>,
    journal_ns_per_cell: Vec<f64>,
    flight_share: Vec<f64>,
    metrics_share: Vec<f64>,
}

/// What the traced run prints.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub passes: usize,
    pub cells: u64,
}

/// Runs replay passes until `until`, at least one, and derives every
/// per-layer metric. `spans_out` receives the last traced replay.
pub fn traced(runner: &Runner, until: Instant, spans_out: &Path) -> Result<Traced, String> {
    let cells = runner.workload.cells();
    let nproc = default_jobs();
    // The grid the journal and obs probes run on: the workload's own,
    // or the paper grid for `randomized`.
    let probe = Runner {
        workload: if runner.workload == Workload::Randomized {
            Workload::Table3
        } else {
            runner.workload
        },
        seed: runner.seed,
        jobs: 1,
        journal: runner.journal.clone(),
    };
    let probe_cells = probe.workload.cells();
    let mut s = Samples::default();
    let mut counts = Counts::default();
    let mut hypercalls = 0;
    let mut last_spans = Vec::new();
    let mut passes = 0;
    while passes == 0 || Instant::now() < until {
        // The real campaign at one worker, its report serialization,
        // and the same campaign at every core.
        let (run, campaign_ns) = timed(|| runner.campaign_with(1, |c| c));
        let run = run?;
        runner.verify(&run)?;
        s.campaign_1w_ns.push(campaign_ns);
        s.report_ns.push(timed(|| reserialize(&run.report)).1);
        s.campaign_np_ns
            .push(timed(|| runner.campaign_with(nproc, |c| c)).1);
        hypercalls = run.report.hypercalls();

        // The replay, traced and untraced, in alternating order.
        let mut traced_ns = 0.0;
        let mut untraced_ns = 0.0;
        for traced in [passes % 2 == 0, passes % 2 == 1] {
            let tracer = Tracer::new(traced);
            let (replayed, ns) = timed(|| replay(runner, &tracer));
            let replayed = replayed?;
            if traced {
                traced_ns = ns;
                counts = replayed;
                last_spans = tracer.into_spans();
            } else {
                untraced_ns = ns;
            }
            let expected = (cells, run.report.hypercalls(), run.report.verdict_counts());
            let got = (
                replayed.cells,
                replayed.hypercalls,
                (replayed.erroneous, replayed.violated),
            );
            if got != expected {
                return Err(format!(
                    "replay diverged from the campaign: (cells, hypercalls, (states, violations)) \
                     {got:?} != {expected:?}"
                ));
            }
        }
        s.trace_overhead
            .push((traced_ns - untraced_ns) / untraced_ns);
        let selfs = self_times_ns(&last_spans);
        for layer in LAYERS {
            s.layer_self_ns
                .entry(layer)
                .or_default()
                .push(selfs.get(layer).copied().unwrap_or(0) as f64);
        }
        for name in LAYERS {
            s.span_ns
                .entry(name)
                .or_default()
                .extend(durations_ns(&last_spans, name));
        }

        // The paper grid stands in for layers this workload never calls.
        if matches!(
            runner.workload,
            Workload::SyntheticJournaled | Workload::Randomized
        ) {
            let tracer = Tracer::new(true);
            replay_grid(&paper_grid(), &xsa_exploits::paper_use_cases(), &tracer)?;
            let spans = tracer.into_spans();
            for name in ["xsa.exploit", "xsa.inject", "core.monitor"] {
                s.probe_span_ns
                    .entry(name)
                    .or_default()
                    .extend(durations_ns(&spans, name));
            }
        }
        probe_layers(runner, &mut s)?;

        // Journal cost: checkpointed minus plain streaming of the grid.
        let (plain, plain_ns) = timed(|| probe.plain_stream(1));
        let (journaled, journal_ns) = timed(|| probe.checkpointed(probe.grid_campaign(), 1));
        if plain?.json != journaled?.json {
            return Err("journaled report differs from the plain report".to_owned());
        }
        s.journal_ns_per_cell
            .push((journal_ns - plain_ns) / probe_cells as f64);

        // Flight recorder and metrics registry: on versus off.
        let off = timed(|| probe.campaign_with(1, |c| c.flight_capacity(0))).1;
        let on = timed(|| probe.campaign_with(1, |c| c)).1;
        s.flight_share.push((on - off) / on);
        let with = timed(|| probe.campaign_with(1, |c| c.metrics(MetricsRegistry::new()))).1;
        let without = timed(|| probe.campaign_with(1, |c| c)).1;
        s.metrics_share.push((with - without) / with);
        passes += 1;
    }

    // Journal size and fsyncs of one checkpointed campaign: exact.
    let registry = MetricsRegistry::new();
    probe.checkpointed(probe.grid_campaign().metrics(registry.clone()), 1)?;
    let journal_bytes = std::fs::metadata(&probe.journal).map_or(0, |m| m.len()) as f64;
    let syncs = registry.counter("campaign.checkpoint.syncs") as f64;

    let mut file = std::fs::File::create(spans_out)
        .map_err(|e| format!("create {}: {e}", spans_out.display()))?;
    write_jsonl(&last_spans, &mut file)
        .map_err(|e| format!("write {}: {e}", spans_out.display()))?;

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let mut layers: Vec<(String, f64)> = LAYERS
        .iter()
        .map(|&l| (l.to_owned(), med(&s.layer_self_ns[l])))
        .filter(|(_, ns)| *ns > 0.0)
        .collect();
    layers.push(("core.report".to_owned(), med(&s.report_ns)));
    let ledger = Ledger::new(med(&s.campaign_1w_ns), layers);
    let layer_ns = |name: &str| {
        ledger
            .layers
            .iter()
            .find(|(l, _)| l == name)
            .map_or(0.0, |l| l.1)
    };
    // A layer's p50 comes from this workload's calls, or from the
    // paper-grid probe when the workload makes none.
    let p50 = |span: &str| {
        let samples = s
            .span_ns
            .get(span)
            .filter(|own| !own.is_empty())
            .or_else(|| s.probe_span_ns.get(span))
            .map_or(&[][..], Vec::as_slice);
        (med(samples), samples.len())
    };
    let timing = |metric, span, ns_per_unit: f64, unit| {
        let (ns, samples) = p50(span);
        (metric, ns / ns_per_unit, unit, samples)
    };
    let per_cell = |count: u64| count as f64 / cells as f64;
    // Every metric that is not a percentile is the median (or the last
    // value) over the passes.
    let n = passes;
    let metrics = vec![
        timing("guest.boot_us.p50", "guest.boot", 1e3, "us"),
        (
            "core.boot_share",
            ledger.share(layer_ns("guest.boot")),
            "share",
            n,
        ),
        timing("mem.clone_ns.p50", "mem.clone", 1.0, "ns"),
        (
            "mem.chunks_privatized_per_cell",
            per_cell(counts.chunks_privatized),
            "count",
            n,
        ),
        (
            "mem.frames_copied_per_cell",
            per_cell(counts.frames_copied),
            "count",
            n,
        ),
        timing("paging.translate_ns.p50", "paging.translate", 1.0, "ns"),
        (
            "paging.tlb_hits_per_cell",
            per_cell(counts.tlb_hits),
            "count",
            n,
        ),
        (
            "paging.tlb_misses_per_cell",
            per_cell(counts.tlb_misses),
            "count",
            n,
        ),
        ("hv.hypercalls_per_cell", per_cell(hypercalls), "count", n),
        timing(
            "hv.arbitrary_access_ns.p50",
            "hv.arbitrary_access",
            1.0,
            "ns",
        ),
        timing("xsa.exploit_us.p50", "xsa.exploit", 1e3, "us"),
        timing("xsa.inject_us.p50", "xsa.inject", 1e3, "us"),
        timing("core.monitor_us.p50", "core.monitor", 1e3, "us"),
        timing(
            "core.randomized.sample_ns.p50",
            "core.randomized.sample",
            1.0,
            "ns",
        ),
        (
            "core.engine_us_per_cell",
            ledger.unattributed_ns / cells as f64 / 1e3,
            "us",
            n,
        ),
        (
            "core.unattributed_share",
            ledger.share(ledger.unattributed_ns),
            "share",
            n,
        ),
        (
            "core.parallel_efficiency",
            med(&s.campaign_1w_ns) / (nproc as f64 * med(&s.campaign_np_ns)),
            "ratio",
            n,
        ),
        (
            "core.checkpoint.journal_us_per_cell",
            med(&s.journal_ns_per_cell) / 1e3,
            "us",
            n,
        ),
        (
            "core.checkpoint.bytes_per_campaign",
            journal_bytes,
            "bytes",
            1,
        ),
        ("core.checkpoint.syncs_per_campaign", syncs, "count", 1),
        ("core.report_us", med(&s.report_ns) / 1e3, "us", n),
        ("obs.flight_share", med(&s.flight_share), "share", n),
        ("obs.metrics_share", med(&s.metrics_share), "share", n),
        ("trace.overhead_share", med(&s.trace_overhead), "share", n),
    ];
    Ok(Traced {
        metrics,
        ledger,
        passes,
        cells,
    })
}

/// Wall time of `f` in nanoseconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// The serialization a campaign ends with, repeated on its report.
fn reserialize(report: &Report) -> usize {
    let json = match report {
        Report::Classic(r) => r.normalized().to_json().ok(),
        Report::Stream(r) => r.normalized().to_json().ok(),
        Report::Randomized(s, _) => serde_json::to_string(s).ok(),
    };
    black_box(json.map_or(0, |j| j.len()))
}

fn paper_grid() -> SpecGrid {
    bench::paper_campaign().grid()
}

/// Replays every cell of the runner's campaign at one worker.
fn replay(runner: &Runner, tracer: &Tracer) -> Result<Counts, String> {
    match runner.workload {
        Workload::Table3 | Workload::PaperTrials => replay_grid(
            &runner.grid_campaign().grid(),
            &xsa_exploits::paper_use_cases(),
            tracer,
        ),
        Workload::SyntheticJournaled => replay_grid(
            &runner.grid_campaign().grid(),
            &[Box::new(SyntheticCase::new(runner.seed)) as Box<dyn UseCase>],
            tracer,
        ),
        Workload::Randomized => replay_randomized(runner.seed, tracer),
    }
}

fn attacker_of(world: &World) -> Result<DomainId, String> {
    world
        .domain_by_name(ATTACKER_GUEST)
        .ok_or_else(|| "standard world has no attacker".to_owned())
}

/// One cell as the campaign engine runs it, minus the engine: clone the
/// booted base world, run the scenario body, monitor.
fn replay_grid(
    grid: &SpecGrid,
    use_cases: &[Box<dyn UseCase>],
    tracer: &Tracer,
) -> Result<Counts, String> {
    let mut bases: BTreeMap<(XenVersion, bool), World> = BTreeMap::new();
    for &version in grid.versions() {
        for &mode in grid.modes() {
            let injector = mode == Mode::Injection;
            if let std::collections::btree_map::Entry::Vacant(slot) =
                bases.entry((version, injector))
            {
                let _boot = tracer.span("guest.boot", 0);
                slot.insert(standard_world(version, injector).map_err(|e| e.to_string())?);
            }
        }
    }
    let mut counts = Counts::default();
    for spec in grid.iter() {
        let slot = spec.slot;
        let uc = &*use_cases[spec.use_case];
        let base = &bases[&(spec.version, spec.mode == Mode::Injection)];
        let _cell = tracer.span("cell", slot);
        let mut world = {
            let _clone = tracer.span("mem.clone", slot);
            base.clone()
        };
        let attacker = attacker_of(&world)?;
        let before = world.hv().hypercall_count();
        let outcome = match spec.mode {
            Mode::Exploit => {
                let _exploit = tracer.span("xsa.exploit", slot);
                uc.run_exploit_trial(&mut world, attacker, spec.trial)
            }
            Mode::Injection => {
                let _inject = tracer.span("xsa.inject", slot);
                uc.run_injection_trial(
                    &mut world,
                    attacker,
                    &TracedInjector { tracer, slot },
                    spec.trial,
                )
            }
        };
        let observation = {
            let _monitor = tracer.span("core.monitor", slot);
            uc.monitor(&world, attacker).observe(&world)
        };
        counts.add(
            &world,
            before,
            outcome.erroneous_state,
            !observation.is_clean(),
        );
    }
    Ok(counts)
}

/// One randomized trial as `RandomizedCampaign` runs it: clone, sample
/// from the trial's own generator, inject, exercise the system, monitor.
fn replay_randomized(seed: u64, tracer: &Tracer) -> Result<Counts, String> {
    let (base, attacker) = {
        let _boot = tracer.span("guest.boot", 0);
        randomized_world(standard_world).map_err(|e| e.to_string())?
    };
    let mut counts = Counts::default();
    for t in 0..RANDOMIZED_TRIALS as u64 {
        let _cell = tracer.span("cell", t);
        let mut world = {
            let _clone = tracer.span("mem.clone", t);
            base.clone()
        };
        let before = world.hv().hypercall_count();
        let mut rng = StdRng::seed_from_u64(seed ^ t);
        let spec = {
            let _sample = tracer.span("core.randomized.sample", t);
            TargetRegion::DomainPageTables.sample(&world, attacker, &mut rng)
        };
        let injected = {
            let _inject = tracer.span("hv.inject", t);
            ArbitraryAccessInjector
                .inject(&mut world, attacker, &spec)
                .is_ok()
        };
        {
            let _activate = tracer.span("guest.activate", t);
            activate(&mut world, attacker);
        }
        let observation = {
            let _monitor = tracer.span("core.monitor", t);
            Monitor::standard().observe(&world)
        };
        let violated = world.hv().is_crashed() || !observation.is_clean();
        counts.add(&world, before, injected, violated);
    }
    Ok(counts)
}

/// The post-injection activity a randomized trial performs: a read and
/// write-back of guest memory, a deliberate fault, and a vDSO tick.
fn activate(world: &mut World, attacker: DomainId) {
    let probe = world
        .kernel(attacker)
        .map(|k| k.va_of_pfn(Pfn::new(8)))
        .unwrap_or(hvsim::VirtAddr::new(0x6000_0000_8000));
    let mut buf = [0u8; 8];
    let _ = world.hv_mut().guest_read_va(attacker, probe, &mut buf);
    let _ = world.hv_mut().guest_write_va(attacker, probe, &buf);
    let _ =
        world
            .hv_mut()
            .guest_read_va(attacker, hvsim::VirtAddr::new(0x7f00_dead_0000), &mut buf);
    let _ = world.tick_vdso();
}

impl Counts {
    fn add(&mut self, world: &World, hypercalls_before: u64, erroneous: bool, violated: bool) {
        let snapshot = world.snapshot_stats();
        let tlb = world.tlb_stats();
        self.cells += 1;
        self.hypercalls += world
            .hv()
            .hypercall_count()
            .saturating_sub(hypercalls_before);
        self.erroneous += u64::from(erroneous);
        self.violated += u64::from(violated);
        self.chunks_privatized += snapshot.chunks_privatized;
        self.frames_copied += snapshot.frames_copied;
        self.tlb_hits += tlb.hits;
        self.tlb_misses += tlb.misses;
    }
}

/// The campaign's injector with a span around each injection.
struct TracedInjector<'a> {
    tracer: &'a Tracer,
    slot: u64,
}

impl Injector for TracedInjector<'_> {
    fn name(&self) -> &'static str {
        ArbitraryAccessInjector.name()
    }

    fn inject(
        &self,
        world: &mut World,
        dom: DomainId,
        spec: &ErroneousStateSpec,
    ) -> Result<InjectionEvidence, InjectError> {
        let _inject = self.tracer.span("hv.inject", self.slot);
        ArbitraryAccessInjector.inject(world, dom, spec)
    }
}

/// Nanosecond-scale entry points timed call by call on a fresh clone of
/// the workload's injector-enabled base world: a guest page walk, the
/// injector hypercall reading the #PF gate, and (outside `randomized`,
/// whose replay times it in place) the randomized sampler.
fn probe_layers(runner: &Runner, s: &mut Samples) -> Result<(), String> {
    let mut probe = |name: &'static str, start: Instant| {
        let ns = start.elapsed().as_nanos() as f64;
        s.probe_span_ns.entry(name).or_default().push(ns);
    };
    let version = if runner.workload == Workload::Randomized {
        RANDOMIZED_VERSION
    } else {
        XenVersion::V4_6
    };
    let mut world = standard_world(version, true).map_err(|e| e.to_string())?;
    let attacker = attacker_of(&world)?;
    let kernel = world.kernel(attacker).map_err(|e| e.to_string())?;
    // The guest's mapped pages among its first 64: the probe times
    // successful walks only.
    let vas: Vec<_> = (0..64)
        .map(|pfn| kernel.va_of_pfn(Pfn::new(pfn)))
        .filter(|&va| world.hv().guest_translate(attacker, va).is_ok())
        .collect();
    if vas.is_empty() {
        return Err("no mapped guest page to translate".to_owned());
    }
    let mut failed = 0;
    for i in 0..PROBE_CALLS {
        let va = vas[i % vas.len()];
        let start = Instant::now();
        let ok = black_box(world.hv().guest_translate(attacker, black_box(va)).is_ok());
        probe("paging.translate", start);
        failed += usize::from(!ok);
    }
    let gate = world.hv().sidt(0).raw() + 14 * 16;
    let mut buf = [0u8; 16];
    for _ in 0..PROBE_CALLS {
        let start = Instant::now();
        let ok = black_box(
            world
                .hv_mut()
                .hc_arbitrary_access(attacker, black_box(gate), &mut buf, AccessMode::LinearRead)
                .is_ok(),
        );
        probe("hv.arbitrary_access", start);
        failed += usize::from(!ok);
    }
    if failed > 0 {
        return Err(format!(
            "{failed} probe calls failed: the probes must time the success path"
        ));
    }
    if runner.workload != Workload::Randomized {
        let mut rng = StdRng::seed_from_u64(runner.seed);
        for _ in 0..PROBE_CALLS {
            let start = Instant::now();
            black_box(TargetRegion::DomainPageTables.sample(&world, attacker, &mut rng));
            probe("core.randomized.sample", start);
        }
    }
    Ok(())
}

/// The ledger as text: one line per layer with its self time and share,
/// then the remainder.
pub fn render_ledger(workload: Workload, ledger: &Ledger, cells: u64) -> String {
    let mut out = format!(
        "ledger {}: campaign {:.1} us at 1 worker ({cells} cells)\n",
        workload.name(),
        ledger.campaign_ns / 1e3
    );
    let row = |name: &str, ns: f64| {
        format!(
            "  {name:<24} {:>12.1} us  {:>6.1}%\n",
            ns / 1e3,
            100.0 * ledger.share(ns)
        )
    };
    for (layer, ns) in &ledger.layers {
        out.push_str(&row(layer, *ns));
    }
    out.push_str(&row("unattributed (engine)", ledger.unattributed_ns));
    out.push_str(
        "  paging and obs have no span of their own: page walks run inside the hv and xsa calls, \
         and the flight recorder and metrics are inside the engine (see paging.translate_ns.p50, \
         obs.flight_share, obs.metrics_share)\n",
    );
    out
}
