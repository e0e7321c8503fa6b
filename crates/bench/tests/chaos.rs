//! Deterministic chaos-harness tests: a fixed `--chaos-seed` must
//! produce the *same* faults at any worker count, every injected fault
//! must surface as a typed degradation (never a hung run or a silent
//! mis-count), and chaos must compose with checkpoint/resume — torn
//! journal writes included.

use bench::synthetic_campaign;
use hvsim_obs::{flight, MetricsRegistry};
use intrusion_core::{Campaign, ChaosConfig, ChaosPolicy, StreamReport};
use std::collections::BTreeMap;
use std::time::Duration;

const SEED: u64 = 0xD5_2023;
// 3 versions × 1,000 trials = 3,000 cells: enough for every fault class
// to fire many times at the standard permille rates.
const TRIALS: u64 = 1_000;
const CHAOS_SEED: u64 = 7;
const DEADLINE: Duration = Duration::from_millis(100);

fn chaotic() -> Campaign {
    synthetic_campaign(SEED, TRIALS)
        .chaos(ChaosConfig::standard(CHAOS_SEED))
        .retries(1)
        .cell_deadline(DEADLINE)
}

#[test]
fn chaos_is_schedule_independent_and_every_fault_is_typed() {
    let jobs1 = chaotic().run_streaming_with_jobs(1);
    let jobs8 = chaotic().run_streaming_with_jobs(8);
    assert_eq!(
        jobs1.report.normalized().to_json().unwrap(),
        jobs8.report.normalized().to_json().unwrap(),
        "a fixed chaos seed must produce byte-identical reports at jobs=1 and jobs=8"
    );

    // Replay the policy's slot-keyed decisions to predict exactly which
    // cells degrade and how. Precedence mirrors the engine: a boot that
    // exhausts its retry budget never reaches the scenario body, and a
    // panic pre-empts a slowdown.
    let policy = ChaosPolicy::new(ChaosConfig::standard(CHAOS_SEED));
    let (mut boot_failed, mut crashed, mut timed_out) = (0u64, 0u64, 0u64);
    for slot in 0..jobs1.report.cells {
        let faults = policy.transient_boot_faults(slot, 1);
        if faults > 1 {
            boot_failed += 1;
        } else if policy.worker_panic(slot) {
            crashed += 1;
        } else if policy.slowdown(slot, Some(DEADLINE)).is_some() {
            timed_out += 1;
        }
    }
    let report = &jobs1.report;
    assert_eq!(report.cells, 3_000);
    assert!(boot_failed > 0 && crashed > 0 && timed_out > 0, "every fault class fired");
    assert_eq!(report.boot_failed, boot_failed, "exhausted chaos boots are typed BootFailed");
    assert_eq!(report.crashed, crashed, "injected panics are typed Crashed");
    assert_eq!(report.timed_out, timed_out, "injected slowdowns are typed TimedOut");
    assert_eq!(report.degraded, boot_failed + crashed + timed_out, "no untyped degradation");
    assert!(report.retries > 0, "recovered chaos boots consumed real retry attempts");
    assert!(report.is_degraded(), "a chaotic run reports degradation (CLI exit 2)");
    for (id, slot) in &report.degraded_slots {
        assert!(
            slot.error.is_some()
                || matches!(slot.outcome, intrusion_core::CellOutcome::TimedOut { .. }),
            "degraded slot {id} carries a typed error or outcome: {slot:?}"
        );
        // Every degraded cell carries its flight-recorder forensic tail.
        assert!(!slot.flight.is_empty(), "degraded slot {id} has no forensic tail");
    }

    // The tails themselves are schedule-independent: normalized
    // (wall-clock zeroed) flight dumps are byte-identical per slot at
    // jobs=1 and jobs=8.
    let dumps = |report: &StreamReport| -> BTreeMap<u64, String> {
        report
            .degraded_slots
            .iter()
            .map(|(&slot, d)| (slot, flight::normalized_dump_jsonl(&d.flight)))
            .collect()
    };
    assert_eq!(
        dumps(&jobs1.report),
        dumps(&jobs8.report),
        "normalized flight dumps must be byte-identical at jobs=1 and jobs=8"
    );
}

#[test]
fn chaos_counters_are_published_even_when_no_fault_fires() {
    // Pick a seed whose standard policy draws no fault on any of the
    // six slots of this small grid: "chaos quiet" must still publish
    // every `campaign.chaos.*` counter as an explicit zero, so a
    // dashboard can tell it apart from "chaos off" (counters absent).
    let cells = 6u64;
    let quiet_seed = (0..10_000u64)
        .find(|&seed| {
            let probe = ChaosPolicy::new(ChaosConfig::standard(seed));
            (0..cells).all(|slot| {
                probe.transient_boot_faults(slot, 1) == 0
                    && !probe.worker_panic(slot)
                    && probe.slowdown(slot, Some(DEADLINE)).is_none()
                    && probe.queue_stall(slot).is_none()
            })
        })
        .expect("some seed in 0..10_000 is quiet over six slots");
    let registry = MetricsRegistry::new();
    let outcome = synthetic_campaign(SEED, 2)
        .chaos(ChaosConfig::standard(quiet_seed))
        .cell_deadline(DEADLINE)
        .metrics(registry.clone())
        .run_streaming_with_jobs(2);
    assert_eq!(outcome.report.cells, cells);
    assert_eq!(outcome.report.degraded, 0, "seed {quiet_seed} fired a fault after all");
    let snapshot = registry.snapshot();
    for name in [
        "campaign.chaos.worker_panics",
        "campaign.chaos.transient_boots",
        "campaign.chaos.slowdowns",
        "campaign.chaos.queue_stalls",
        "campaign.chaos.torn_writes",
    ] {
        let counter = snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} must be published on a quiet chaos run"));
        assert_eq!(counter.value, 0, "{name} must be an explicit zero");
    }
}

#[test]
fn chaos_composes_with_checkpoint_resume_despite_torn_writes() {
    let journal =
        std::env::temp_dir().join(format!("hvsim-chaos-{}.journal", std::process::id()));
    let full = chaotic().jobs(4).run_streaming_checkpointed(&journal).unwrap();
    // The standard config tears ~10% of journal records mid-write; the
    // run itself must still complete and report every cell.
    assert_eq!(full.report.cells, 3_000);
    let uninterrupted = full.report.normalized().to_json().unwrap();

    // Truncate (hard kill) and resume with the same chaos seed: the
    // loader skips torn records, the engine re-runs uncovered slots with
    // the same slot-keyed faults, and the report comes back identical.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
    let resumed = chaotic().jobs(4).resume(&journal).unwrap();
    assert_eq!(
        resumed.report.normalized().to_json().unwrap(),
        uninterrupted,
        "chaos + kill + resume must reproduce the uninterrupted report"
    );
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(format!("{}.slots", journal.display())).ok();
}
