//! The four campaign workloads, how one campaign of each runs through
//! the public `intrusion-core` API, and the checks its output must pass.

use bench::{paper_campaign, synthetic_campaign};
use guestos::World;
use hvsim::{DomainId, XenVersion};
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    Campaign, CampaignReport, Mode, RandomizedCampaign, RandomizedSummary, StreamReport,
    TargetRegion,
};
use std::path::PathBuf;

/// Trials per key of the `paper_trials` grid.
pub const PAPER_TRIALS: u64 = 100;
/// Trials of the synthetic grid (three versions each).
pub const SYNTHETIC_TRIALS: u64 = 1000;
/// Trials of the randomized campaign.
pub const RANDOMIZED_TRIALS: usize = 1000;
/// Version the randomized campaign runs on (the CLI's default).
pub const RANDOMIZED_VERSION: XenVersion = XenVersion::V4_8;
/// Seed used by `synthetic_journaled` and `randomized` when none is
/// given on the command line.
pub const DEFAULT_SEED: u64 = 0xD5_2023;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table3,
    PaperTrials,
    SyntheticJournaled,
    Randomized,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table3,
        Workload::PaperTrials,
        Workload::SyntheticJournaled,
        Workload::Randomized,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::PaperTrials => "paper_trials",
            Workload::SyntheticJournaled => "synthetic_journaled",
            Workload::Randomized => "randomized",
        }
    }

    /// Cells (or trials) in one campaign.
    pub fn cells(self) -> u64 {
        match self {
            Workload::Table3 => 24,
            Workload::PaperTrials => 24 * PAPER_TRIALS,
            Workload::SyntheticJournaled => 3 * SYNTHETIC_TRIALS,
            Workload::Randomized => RANDOMIZED_TRIALS as u64,
        }
    }

    /// Whether `--seed` changes this workload's inputs. The paper grid
    /// is fixed; its use cases take no seed.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::SyntheticJournaled | Workload::Randomized)
    }
}

/// The serialized result of one campaign and what the checks need.
/// One lives at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Report {
    Classic(CampaignReport),
    Stream(StreamReport),
    /// The summary plus the trials' hypercall total.
    Randomized(RandomizedSummary, u64),
}

impl Report {
    /// Cells that completed without harness degradation.
    pub fn completed(&self) -> u64 {
        match self {
            Report::Classic(r) => r.completed_cells().count() as u64,
            Report::Stream(r) => r.completed,
            Report::Randomized(s, _) => (s.total - s.degraded) as u64,
        }
    }

    /// Hypercalls the campaign's cells executed — an exact count.
    pub fn hypercalls(&self) -> u64 {
        match self {
            Report::Classic(r) => r.total_hypercalls(),
            Report::Stream(r) => r.hypercalls,
            Report::Randomized(_, hypercalls) => *hypercalls,
        }
    }

    /// `(cells that induced the erroneous state, cells with a
    /// violation)`, for the randomized workload `(trials injected,
    /// trials crashed or violated)`.
    pub fn verdict_counts(&self) -> (u64, u64) {
        match self {
            Report::Classic(r) => (
                r.cells().iter().filter(|c| c.erroneous_state).count() as u64,
                r.cells().iter().filter(|c| c.violated()).count() as u64,
            ),
            Report::Stream(r) => (r.erroneous_states, r.violated_cells),
            Report::Randomized(s, _) => (s.injected as u64, (s.crashes + s.violated) as u64),
        }
    }
}

/// One finished campaign: its report and the report's normalized JSON.
pub struct Run {
    pub report: Report,
    pub json: String,
}

/// Runs campaigns of one workload.
pub struct Runner {
    pub workload: Workload,
    pub seed: u64,
    pub jobs: usize,
    /// Journal of `synthetic_journaled`.
    pub journal: PathBuf,
}

impl Runner {
    /// The workload's grid campaign; `randomized` has no grid and gets
    /// the paper grid.
    pub fn grid_campaign(&self) -> Campaign {
        match self.workload {
            Workload::Table3 | Workload::Randomized => paper_campaign(),
            Workload::PaperTrials => paper_campaign().trials(PAPER_TRIALS),
            Workload::SyntheticJournaled => synthetic_campaign(self.seed, SYNTHETIC_TRIALS),
        }
    }

    /// One campaign, from building it to holding its serialized
    /// normalized report: the span `campaign_ms` measures.
    pub fn campaign(&self) -> Result<Run, String> {
        self.campaign_with(self.jobs, |c| c)
    }

    /// One campaign at `jobs` workers, with `configure` applied to the
    /// grid campaign before it runs.
    pub fn campaign_with(
        &self,
        jobs: usize,
        configure: impl FnOnce(Campaign) -> Campaign,
    ) -> Result<Run, String> {
        match self.workload {
            Workload::Table3 => classic(configure(self.grid_campaign()), jobs),
            Workload::PaperTrials => stream(
                configure(self.grid_campaign())
                    .run_streaming_with_jobs(jobs)
                    .report,
            ),
            Workload::SyntheticJournaled => {
                self.checkpointed(configure(self.grid_campaign()), jobs)
            }
            Workload::Randomized => {
                let (summary, outcomes) = RandomizedCampaign::new(
                    TargetRegion::DomainPageTables,
                    RANDOMIZED_TRIALS,
                    self.seed,
                )
                .run_with_jobs(|| randomized_world(standard_world), jobs)
                .map_err(|e| format!("randomized campaign: {e}"))?;
                let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
                let hypercalls = outcomes.iter().map(|o| o.hypercalls).sum();
                Ok(Run {
                    report: Report::Randomized(summary, hypercalls),
                    json,
                })
            }
        }
    }

    /// The grid streamed at `jobs` workers, journaled to
    /// [`Runner::journal`] at the default checkpoint interval.
    pub fn checkpointed(&self, campaign: Campaign, jobs: usize) -> Result<Run, String> {
        let outcome = campaign
            .jobs(jobs)
            .run_streaming_checkpointed(&self.journal)
            .map_err(|e| format!("journal {}: {e}", self.journal.display()))?;
        stream(outcome.report)
    }

    /// The same grid streamed without a journal.
    pub fn plain_stream(&self, jobs: usize) -> Result<Run, String> {
        stream(self.grid_campaign().run_streaming_with_jobs(jobs).report)
    }

    /// Checks one campaign's report against what the workload must
    /// produce. Equality with the run's first report is checked by the
    /// caller. A degraded cell fails the check only where it breaks a
    /// Table III verdict; elsewhere it lowers `completed_ratio`.
    pub fn verify(&self, run: &Run) -> Result<(), String> {
        let cells = self.workload.cells();
        match &run.report {
            Report::Classic(report) => {
                ensure(report.cells().len() as u64 == cells, "cell count")?;
                for cell in report.cells() {
                    let (state, violated) =
                        table3_verdict(&cell.use_case, cell.version, cell.mode)?;
                    ensure(
                        cell.erroneous_state == state && cell.violated() == violated,
                        &format!(
                            "Table III verdict of {}/{}/{}",
                            cell.use_case, cell.version, cell.mode
                        ),
                    )?;
                    ensure(cell.handled == (state && !violated), "Table III shield")?;
                }
                Ok(())
            }
            Report::Stream(report) => {
                ensure(report.cells == cells, "cell count")?;
                if self.workload == Workload::PaperTrials {
                    ensure(report.by_key.len() == 24, "paper grid keys")?;
                    for (key, summary) in &report.by_key {
                        let mut parts = key.split('/');
                        let (uc, version, mode) = (parts.next(), parts.next(), parts.next());
                        let version = XenVersion::ALL
                            .into_iter()
                            .find(|v| Some(v.to_string().as_str()) == version)
                            .ok_or_else(|| format!("unknown version in key {key}"))?;
                        let mode = match mode {
                            Some("exploit") => Mode::Exploit,
                            Some("injection") => Mode::Injection,
                            _ => return Err(format!("unknown mode in key {key}")),
                        };
                        let (state, violated) = table3_verdict(uc.unwrap_or(""), version, mode)?;
                        let all = |yes: bool| if yes { PAPER_TRIALS } else { 0 };
                        ensure(
                            summary.cells == PAPER_TRIALS
                                && summary.erroneous_states == all(state)
                                && summary.violated == all(violated)
                                && summary.handled == all(state && !violated),
                            &format!("Table III verdict of {key} in every trial"),
                        )?;
                    }
                }
                Ok(())
            }
            Report::Randomized(summary, _) => {
                ensure(summary.total as u64 == cells, "randomized trial count")
            }
        }
    }
}

/// The attacker world a randomized campaign injects into.
pub fn randomized_world(
    boot: impl Fn(XenVersion, bool) -> Result<World, guestos::BootError>,
) -> Result<(World, DomainId), guestos::BootError> {
    let world = boot(RANDOMIZED_VERSION, true)?;
    let attacker = world
        .domain_by_name(intrusion_core::campaign::ATTACKER_GUEST)
        .ok_or_else(|| guestos::BootError::new("world", "standard world has no attacker guest"))?;
    Ok((world, attacker))
}

/// Table III of the paper as `tests/campaign_reproduction.rs` states
/// it: `(erroneous state induced, security violation)` per cell.
/// Exploits work only on 4.6; injections induce the state everywhere;
/// every injected state violates except XSA-212-priv and XSA-182-test
/// on 4.13, which that version handles.
pub fn table3_verdict(
    use_case: &str,
    version: XenVersion,
    mode: Mode,
) -> Result<(bool, bool), String> {
    let handled_on_4_13 = match use_case {
        "XSA-212-crash" | "XSA-148-priv" => false,
        "XSA-212-priv" | "XSA-182-test" => true,
        other => return Err(format!("use case {other} is not in Table III")),
    };
    Ok(match (mode, version) {
        (Mode::Exploit, XenVersion::V4_6) => (true, true),
        (Mode::Exploit, _) => (false, false),
        (Mode::Injection, XenVersion::V4_13) => (true, !handled_on_4_13),
        (Mode::Injection, _) => (true, true),
    })
}

fn classic(campaign: Campaign, jobs: usize) -> Result<Run, String> {
    let report = campaign.run_with_jobs(jobs);
    let json = report.normalized().to_json().map_err(|e| e.to_string())?;
    Ok(Run {
        report: Report::Classic(report),
        json,
    })
}

fn stream(report: StreamReport) -> Result<Run, String> {
    let json = report.normalized().to_json().map_err(|e| e.to_string())?;
    Ok(Run {
        report: Report::Stream(report),
        json,
    })
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {what}"))
    }
}
