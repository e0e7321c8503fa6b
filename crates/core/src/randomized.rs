//! Randomized injection inputs within an intrusion model's constraints.
//!
//! "One possibility is to randomize inputs to an injector, creating an
//! approach that resembles fuzzing testing but in another level of
//! interaction, in a post-attack phase." (§IV-C). A [`RandomizedCampaign`]
//! samples erroneous states from a [`TargetRegion`] (the IM's target
//! component made concrete), injects each into a fresh world, exercises
//! the system, and classifies the outcome.

use crate::campaign::{boot_with_retries, default_jobs};
use crate::erroneous_state::ErroneousStateSpec;
use crate::error::{panic_payload, CampaignError};
use crate::executor::{self, SlotPlan};
use crate::injector::{ArbitraryAccessInjector, Injector};
use crate::monitor::Monitor;
use crate::report::TextTable;
use guestos::{BootError, World};
use hvsim::IDT_ENTRIES;
use hvsim_mem::{DomainId, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Where randomized injections land — the concrete footprint of an
/// intrusion model's target component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetRegion {
    /// The IDT gates of one CPU (interrupt-handling component).
    IdtGates {
        /// The CPU whose IDT is sampled.
        cpu: usize,
    },
    /// The shared hypervisor L3 page (memory-management component).
    SharedL3,
    /// The attacker domain's own page-table frames.
    DomainPageTables,
    /// The attacker domain's data frames (application-level corruption).
    DomainFrames,
}

impl TargetRegion {
    /// Samples one erroneous-state specification from this region.
    pub fn sample(self, world: &World, attacker: DomainId, rng: &mut StdRng) -> ErroneousStateSpec {
        let value: u64 = rng.gen();
        match self {
            TargetRegion::IdtGates { cpu } => {
                let vector = rng.gen_range(0..IDT_ENTRIES as u16) as u8;
                ErroneousStateSpec::OverwriteIdtGate { cpu, vector, value }
            }
            TargetRegion::SharedL3 => {
                let index = rng.gen_range(0..512usize);
                ErroneousStateSpec::LinkPmdIntoSharedL3 { index, entry: value }
            }
            TargetRegion::DomainPageTables => {
                let cr3 = world
                    .hv()
                    .domain(attacker)
                    .ok()
                    .and_then(|d| d.cr3())
                    .unwrap_or(hvsim_mem::Mfn::new(0));
                let offset = rng.gen_range(0..512usize) * 8;
                ErroneousStateSpec::WriteFrame {
                    mfn: cr3,
                    offset,
                    bytes: value.to_le_bytes().to_vec(),
                }
            }
            TargetRegion::DomainFrames => {
                let frames: Vec<_> = world
                    .hv()
                    .domain(attacker)
                    .map(|d| d.p2m_iter().map(|(_, m)| m).collect())
                    .unwrap_or_default();
                // A domain with an empty P2M degrades to frame 0 (the
                // injector will then report the failure) instead of
                // panicking the trial.
                let mfn = frames
                    .get(rng.gen_range(0..frames.len().max(1)))
                    .copied()
                    .unwrap_or(hvsim_mem::Mfn::new(0));
                let offset = rng.gen_range(0..4096 - 8);
                ErroneousStateSpec::WriteFrame {
                    mfn,
                    offset,
                    bytes: value.to_le_bytes().to_vec(),
                }
            }
        }
    }

    /// Region label for summaries.
    pub fn label(self) -> &'static str {
        match self {
            TargetRegion::IdtGates { .. } => "IDT gates",
            TargetRegion::SharedL3 => "shared hypervisor L3",
            TargetRegion::DomainPageTables => "domain page tables",
            TargetRegion::DomainFrames => "domain data frames",
        }
    }
}

/// Classification of one randomized trial.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomizedOutcome {
    /// What was injected (label + evidence).
    pub spec: String,
    /// Whether the injector verified the state.
    pub injected: bool,
    /// Whether the hypervisor crashed during activation.
    pub crashed: bool,
    /// Number of security violations observed.
    pub violations: usize,
    /// Wall-clock time for this trial (world clone + injection +
    /// activation + monitoring), in microseconds.
    pub wall_time_us: u64,
    /// Hypercalls executed during this trial (deterministic for a given
    /// seed).
    pub hypercalls: u64,
    /// Set when the harness degraded on this trial (the trial body kept
    /// panicking past the retry budget); the other fields then carry no
    /// assessment data.
    pub error: Option<CampaignError>,
}

/// Equality ignores `wall_time_us`: timing is the only
/// non-deterministic field, and reproducibility checks compare
/// outcomes across runs and worker counts.
impl PartialEq for RandomizedOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.injected == other.injected
            && self.crashed == other.crashed
            && self.violations == other.violations
            && self.hypercalls == other.hypercalls
            && self.error == other.error
    }
}

impl Eq for RandomizedOutcome {}

/// Aggregated trial counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomizedSummary {
    /// Trials run.
    pub total: usize,
    /// States successfully injected and verified.
    pub injected: usize,
    /// Trials ending in a hypervisor crash.
    pub crashes: usize,
    /// Trials with at least one non-crash violation.
    pub violated: usize,
    /// States injected but fully handled.
    pub handled: usize,
    /// Trials on which the harness degraded (contained panics past the
    /// retry budget). Hypervisor crashes are assessment data, never
    /// degradation.
    pub degraded: usize,
}

impl fmt::Display for RandomizedSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new([
            "total", "injected", "crashes", "violated", "handled", "degraded",
        ]);
        t.row([
            self.total.to_string(),
            self.injected.to_string(),
            self.crashes.to_string(),
            self.violated.to_string(),
            self.handled.to_string(),
            self.degraded.to_string(),
        ]);
        write!(f, "{t}")
    }
}

/// A randomized injection campaign over one target region.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedCampaign {
    /// The sampled region.
    pub region: TargetRegion,
    /// Number of trials.
    pub trials: usize,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
    jobs: Option<usize>,
    retries: u32,
}

impl RandomizedCampaign {
    /// A campaign of `trials` reproducible trials, run on one worker per
    /// hardware thread with no retries.
    pub fn new(region: TargetRegion, trials: usize, seed: u64) -> Self {
        Self {
            region,
            trials,
            seed,
            jobs: None,
            retries: 0,
        }
    }

    /// Sets the worker count used by [`RandomizedCampaign::run`]. `0` or
    /// unset means one worker per hardware thread.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = (jobs > 0).then_some(jobs);
        self
    }

    /// Allows up to `retries` extra attempts per trial (after a
    /// contained panic) and per base-world boot (after a transient
    /// failure). Retried trial attempt `a` reseeds deterministically as
    /// `seed ^ t ^ (a << 32)`, so retried campaigns stay reproducible.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Runs the campaign with the configured worker count.
    ///
    /// The factory is called once; every trial starts from a clone of
    /// that base world (booting is deterministic, so a clone is
    /// indistinguishable from a fresh boot). Trial `t` draws from its
    /// own generator seeded `seed ^ t` (attempt `a` of a retried trial
    /// reseeds as `seed ^ t ^ (a << 32)`), so the sampled inputs — and
    /// therefore the outcomes and summary — are identical for every
    /// worker count and every scheduling order.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Boot`] / [`CampaignError::HarnessCrash`] when no
    /// base world could be produced at all (transient boot failures are
    /// retried up to the retry budget). Per-trial failures are contained
    /// and reported in the outcomes/summary instead.
    pub fn run(
        &self,
        factory: impl Fn() -> Result<(World, DomainId), BootError> + Send + Sync,
    ) -> Result<(RandomizedSummary, Vec<RandomizedOutcome>), CampaignError> {
        self.run_with_jobs(factory, self.jobs.unwrap_or_else(default_jobs))
    }

    /// Runs the campaign on exactly `jobs` worker threads.
    ///
    /// # Errors
    ///
    /// See [`RandomizedCampaign::run`].
    pub fn run_with_jobs(
        &self,
        factory: impl Fn() -> Result<(World, DomainId), BootError> + Send + Sync,
        jobs: usize,
    ) -> Result<(RandomizedSummary, Vec<RandomizedOutcome>), CampaignError> {
        if self.trials == 0 {
            return Ok((RandomizedSummary::default(), Vec::new()));
        }
        let (base_world, attacker) =
            boot_with_retries(format_args!("randomized/{}", self.seed), self.retries, factory).0?;
        // Each worker keeps its trials tagged with their index; the
        // summary is folded serially over the trial-ordered results, so
        // counting never depends on completion order.
        let plan = SlotPlan { len: self.trials as u64, shard: None, done: None };
        let workers = jobs.max(1).min(self.trials);
        let share = self.trials.div_ceil(workers);
        let partials = executor::execute(
            &plan,
            (0..workers).map(|_| Vec::with_capacity(share)).collect(),
            |trials: &mut Vec<(u64, TrialResult)>, t| {
                trials.push((t, self.run_trial_contained(&base_world, attacker, t)));
            },
            |_| {},
            None,
            None,
        );
        let mut trials = Vec::with_capacity(self.trials);
        for partial in partials {
            trials.extend(partial);
        }
        trials.sort_unstable_by_key(|&(t, _)| t);
        let mut summary = RandomizedSummary { total: self.trials, ..Default::default() };
        let mut outcomes = Vec::with_capacity(self.trials);
        for (_, trial) in trials {
            fold_trial(&mut summary, &trial);
            outcomes.push(trial.outcome);
        }
        Ok((summary, outcomes))
    }

    /// Runs trial `t` under a panic boundary, retrying contained panics
    /// with a deterministic reseed up to the retry budget; a trial that
    /// keeps panicking becomes a degraded outcome instead of taking the
    /// worker down. `AssertUnwindSafe` is sound: each attempt works on
    /// its own clone of the base world, dropped inside the boundary.
    fn run_trial_contained(&self, base_world: &World, attacker: DomainId, t: u64) -> TrialResult {
        let mut attempt = 0u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| {
                self.run_trial(base_world, attacker, t, attempt)
            })) {
                Ok(trial) => return trial,
                Err(_) if attempt < self.retries => attempt += 1,
                Err(p) => {
                    return TrialResult {
                        outcome: degraded_outcome(
                            self.region,
                            CampaignError::HarnessCrash { payload: panic_payload(p.as_ref()) },
                        ),
                        non_crash_violations: 0,
                    }
                }
            }
        }
    }

    /// Runs attempt `attempt` of trial `t`: clone the base world, sample
    /// from the attempt's own generator, inject, shake, monitor.
    fn run_trial(
        &self,
        base_world: &World,
        attacker: DomainId,
        t: u64,
        attempt: u32,
    ) -> TrialResult {
        let start = Instant::now();
        // Attempt 0 reproduces the historical `seed ^ t` stream exactly;
        // retries draw fresh-but-deterministic inputs.
        let mut rng = StdRng::seed_from_u64(self.seed ^ t ^ (u64::from(attempt) << 32));
        let mut world = base_world.clone();
        let base_hypercalls = world.hv().hypercall_count();
        let spec = self.region.sample(&world, attacker, &mut rng);
        let injected = ArbitraryAccessInjector
            .inject(&mut world, attacker, &spec)
            .is_ok();
        shake(&mut world, attacker);
        let crashed = world.hv().is_crashed();
        let observation = Monitor::standard().observe(&world);
        let non_crash_violations = observation
            .violations
            .iter()
            .filter(|v| !matches!(v, crate::monitor::SecurityViolation::HypervisorCrash { .. }))
            .count();
        TrialResult {
            outcome: RandomizedOutcome {
                spec: format!("{} ({})", spec.label(), self.region.label()),
                injected,
                crashed,
                violations: observation.violations.len(),
                wall_time_us: start.elapsed().as_micros() as u64,
                hypercalls: world.hv().hypercall_count().saturating_sub(base_hypercalls),
                error: None,
            },
            non_crash_violations,
        }
    }
}

/// One trial's outcome plus the non-crash violation count the summary
/// fold needs.
struct TrialResult {
    outcome: RandomizedOutcome,
    non_crash_violations: usize,
}

/// Classifies one trial into the summary counts (everything except
/// `total`, which the caller owns).
fn fold_trial(summary: &mut RandomizedSummary, trial: &TrialResult) {
    if trial.outcome.error.is_some() {
        summary.degraded += 1;
        return;
    }
    if trial.outcome.injected {
        summary.injected += 1;
    }
    if trial.outcome.crashed {
        summary.crashes += 1;
    } else if trial.non_crash_violations > 0 {
        summary.violated += 1;
    } else if trial.outcome.injected {
        summary.handled += 1;
    }
}

/// A placeholder outcome for a trial the harness could not complete.
fn degraded_outcome(region: TargetRegion, error: CampaignError) -> RandomizedOutcome {
    RandomizedOutcome {
        spec: format!("(degraded) ({})", region.label()),
        injected: false,
        crashed: false,
        violations: 0,
        wall_time_us: 0,
        hypercalls: 0,
        error: Some(error),
    }
}

/// Post-injection activation: exercise the system so latent erroneous
/// states can propagate — ordinary guest memory activity, a page fault
/// (exercising the IDT), and a vDSO tick.
fn shake(world: &mut World, attacker: DomainId) {
    let probe = world
        .kernel(attacker)
        .map(|k| k.va_of_pfn(hvsim_mem::Pfn::new(8)))
        .unwrap_or(VirtAddr::new(0x6000_0000_8000));
    let mut buf = [0u8; 8];
    let _ = world.hv_mut().guest_read_va(attacker, probe, &mut buf);
    let _ = world.hv_mut().guest_write_va(attacker, probe, &buf);
    // A deliberate fault to exercise exception delivery.
    let _ = world
        .hv_mut()
        .guest_read_va(attacker, VirtAddr::new(0x7f00_dead_0000), &mut buf);
    let _ = world.tick_vdso();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::standard_world;
    use hvsim::XenVersion;

    fn factory(version: XenVersion) -> impl Fn() -> Result<(World, DomainId), BootError> {
        move || {
            let w = standard_world(version, true)?;
            let attacker = w.domain_by_name("guest03").unwrap();
            Ok((w, attacker))
        }
    }

    #[test]
    fn idt_campaign_finds_crashes() {
        let campaign = RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 12, 7);
        let (summary, outcomes) = campaign.run(factory(XenVersion::V4_8)).unwrap();
        assert_eq!(summary.total, 12);
        assert_eq!(outcomes.len(), 12);
        assert!(summary.injected > 0);
        // Randomly corrupting IDT gates crashes the box whenever the #PF
        // gate (or an exercised vector) is hit; with 12 trials over 256
        // vectors at least the bookkeeping must be consistent.
        assert_eq!(
            summary.crashes + summary.violated + summary.handled
                + (summary.total - summary.injected)
                - outcomes.iter().filter(|o| !o.injected && (o.crashed || o.violations > 0)).count(),
            summary.total
        );
    }

    #[test]
    fn campaign_is_reproducible() {
        let campaign = RandomizedCampaign::new(TargetRegion::DomainFrames, 6, 42);
        let (s1, o1) = campaign.run(factory(XenVersion::V4_13)).unwrap();
        let (s2, o2) = campaign.run(factory(XenVersion::V4_13)).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn worker_count_does_not_change_summary_or_outcomes() {
        let campaign = RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 10, 99);
        let (s1, o1) = campaign.run_with_jobs(factory(XenVersion::V4_8), 1).unwrap();
        let (s4, o4) = campaign.run_with_jobs(factory(XenVersion::V4_8), 4).unwrap();
        assert_eq!(s1, s4, "jobs=1 and jobs=4 summaries must match");
        assert_eq!(o1, o4, "jobs=1 and jobs=4 outcomes must match, in order");
        let (s, o) = campaign.with_jobs(4).run(factory(XenVersion::V4_8)).unwrap();
        assert_eq!(s, s1);
        assert_eq!(o, o1);
    }

    #[test]
    fn page_table_region_injections_verify() {
        let campaign = RandomizedCampaign::new(TargetRegion::DomainPageTables, 4, 3);
        let (summary, _) = campaign.run(factory(XenVersion::V4_8)).unwrap();
        assert_eq!(summary.injected, 4, "physical PT writes always land");
    }

    #[test]
    fn summary_display_is_a_table() {
        let s = RandomizedSummary {
            total: 10,
            injected: 9,
            crashes: 2,
            violated: 1,
            handled: 6,
            degraded: 0,
        };
        let rendered = s.to_string();
        assert!(rendered.contains("crashes"));
        assert!(rendered.contains("degraded"));
        assert!(rendered.contains("10"));
    }

    #[test]
    fn panicking_factory_degrades_to_a_typed_error() {
        let campaign = RandomizedCampaign::new(TargetRegion::SharedL3, 3, 1);
        let err = campaign
            .run(|| -> Result<(World, DomainId), BootError> { panic!("factory exploded") })
            .unwrap_err();
        assert_eq!(err, CampaignError::HarnessCrash { payload: "factory exploded".into() });
    }

    #[test]
    fn transient_boot_failures_are_retried_then_succeed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let failures = AtomicU32::new(2);
        let campaign = RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 4, 5).retries(2);
        let (summary, outcomes) = campaign
            .run(|| {
                if failures.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err(BootError::transient("create dom0", "no frames left"));
                }
                factory(XenVersion::V4_8)()
            })
            .unwrap();
        assert_eq!(summary.total, 4);
        assert_eq!(summary.degraded, 0);
        // The retried boot must not perturb the trial streams.
        let (clean, clean_outcomes) =
            RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 4, 5)
                .run(factory(XenVersion::V4_8))
                .unwrap();
        assert_eq!(summary, clean);
        assert_eq!(outcomes, clean_outcomes);
    }

    #[test]
    fn non_transient_boot_failure_is_not_retried() {
        let campaign = RandomizedCampaign::new(TargetRegion::SharedL3, 2, 1).retries(5);
        let err = campaign
            .run(|| -> Result<(World, DomainId), BootError> {
                Err(BootError::new("create dom0", "deterministic failure"))
            })
            .unwrap_err();
        match err {
            CampaignError::Boot { attempts, message } => {
                assert_eq!(attempts, 1, "non-transient failures fail fast");
                assert!(message.contains("deterministic failure"));
            }
            other => panic!("expected a boot error, got {other:?}"),
        }
    }
}
