//! Crash-safety tests for the checkpoint/resume journal at ≥100k-cell
//! scale: a checkpointed streaming campaign that is hard-killed (here:
//! its journal truncated at an arbitrary byte offset, leaving a torn
//! final record) must resume to a merged normalized [`StreamReport`]
//! byte-identical to the uninterrupted run — per shard and across
//! `report merge`-style [`StreamReport::try_merge`].

use bench::synthetic_campaign;
use hvsim_obs::MetricsRegistry;
use intrusion_core::{Campaign, Shard};
use std::path::PathBuf;

const SEED: u64 = 0xD5_2023;
// 3 versions × 33,334 trials = 100,002 cells.
const TRIALS: u64 = 33_334;

fn campaign() -> Campaign {
    // The forensic sidecar is opt-in; on here so the kill/resume path
    // exercises it at scale (the sidecar appends across generations).
    synthetic_campaign(SEED, TRIALS)
        .jobs(4)
        .checkpoint_interval(256)
        .journal_slots(true)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hvsim-ckpt-{}-{name}", std::process::id()))
}

/// Truncates the journal to `keep` of its bytes — almost always mid-
/// record, so recovery must also tolerate the torn final record.
fn hard_kill(journal: &PathBuf, keep: f64) {
    let bytes = std::fs::read(journal).unwrap();
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cut = (bytes.len() as f64 * keep) as usize;
    std::fs::write(journal, &bytes[..cut]).unwrap();
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.snapshot().counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

#[test]
fn killed_checkpointed_campaign_resumes_byte_identically() {
    let journal = scratch("full.journal");
    let outcome = campaign().run_streaming_checkpointed(&journal).unwrap();
    assert_eq!(outcome.report.cells, 100_002);
    assert_eq!(outcome.report.completed, outcome.report.cells);
    let uninterrupted = outcome.report.normalized().to_json().unwrap();

    // Hard-kill simulation: drop the last third of the journal, leaving
    // a torn record at the new tail. Resume must recover the valid
    // prefix, re-run only the uncovered slots, and reproduce the report.
    hard_kill(&journal, 0.67);
    let registry = MetricsRegistry::new();
    let resumed = campaign().metrics(registry.clone()).resume(&journal).unwrap();
    assert_eq!(
        resumed.report.normalized().to_json().unwrap(),
        uninterrupted,
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let skipped = counter(&registry, "campaign.checkpoint.resumed_slots");
    assert!(skipped > 0, "resume must skip slots covered by durable fold records");
    assert!(skipped < 100_002, "a truncated journal cannot cover the whole grid");
    assert!(counter(&registry, "campaign.checkpoint.folds") > 0);
    assert!(counter(&registry, "campaign.checkpoint.slots") > 0, "sidecar was requested");
    assert_eq!(counter(&registry, "campaign.checkpoint.write_errors"), 0);

    // A second resume of the now-complete journal re-runs only the tail
    // beyond the last durable fold batch and still agrees.
    let again = campaign().resume(&journal).unwrap();
    assert_eq!(again.report.normalized().to_json().unwrap(), uninterrupted);
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(format!("{}.slots", journal.display())).ok();
}

#[test]
fn killed_shards_resume_and_merge_to_the_unsharded_report() {
    let unsharded = campaign().run_streaming().report.normalized().to_json().unwrap();
    let mut shard_reports = Vec::new();
    for index in 0..2 {
        let journal = scratch(&format!("shard{index}.journal"));
        let shard = Shard::new(index, 2).unwrap();
        let full = campaign().shard(shard).run_streaming_checkpointed(&journal).unwrap();
        // Kill each shard at a different point in its journal.
        hard_kill(&journal, if index == 0 { 0.5 } else { 0.85 });
        let resumed = campaign().shard(shard).resume(&journal).unwrap();
        assert_eq!(
            resumed.report.normalized().to_json().unwrap(),
            full.report.normalized().to_json().unwrap(),
            "shard {index} resume must match its uninterrupted run"
        );
        shard_reports.push(resumed.report);
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(format!("{}.slots", journal.display())).ok();
    }
    let merged = shard_reports[0].try_merge(&shard_reports[1]).unwrap();
    assert_eq!(
        merged.normalized().to_json().unwrap(),
        unsharded,
        "resumed shard reports must merge to the unsharded report byte-for-byte"
    );
}

#[test]
fn resume_refuses_the_wrong_campaign_or_shard() {
    let journal = scratch("mismatch.journal");
    let small = || synthetic_campaign(SEED, 100).jobs(2);
    small().run_streaming_checkpointed(&journal).unwrap();
    // Different trials axis: different grid fingerprint.
    let err = synthetic_campaign(SEED, 101).jobs(2).resume(&journal).unwrap_err().to_string();
    assert!(err.contains("different campaign"), "grid mismatch is loud and typed: {err}");
    // Same grid, wrong shard.
    let err =
        small().shard(Shard::new(0, 2).unwrap()).resume(&journal).unwrap_err().to_string();
    assert!(err.contains("different campaign"), "shard mismatch is loud and typed: {err}");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(format!("{}.slots", journal.display())).ok();
}
