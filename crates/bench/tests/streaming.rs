//! End-to-end tests for the streaming campaign pipeline at scale: a
//! ≥100k-cell synthetic campaign must finish with resident cell-result
//! memory bounded by the worker count, and its
//! normalized report must be byte-identical across worker counts and
//! across shard/merge decompositions.

use bench::{paper_campaign, synthetic_campaign};
use intrusion_core::campaign::standard_world;
use intrusion_core::{Shard, StreamReport, WorldFactory};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn hundred_thousand_cell_campaign_is_bounded_and_deterministic() {
    // 3 versions × 33,334 trials = 100,002 cells.
    let trials = 33_334;
    let seed = 0xD5_2023;

    let wide = synthetic_campaign(seed, trials);
    let jobs8 = wide.run_streaming_with_jobs(8);
    assert_eq!(jobs8.report.cells, 100_002);
    assert_eq!(jobs8.report.completed, jobs8.report.cells, "synthetic grid never degrades");
    assert!(jobs8.report.erroneous_states > 0);
    assert_eq!(jobs8.report.by_key.len(), 3, "one key per version");
    assert!(
        jobs8.stats.peak_resident_cells <= 8,
        "resident cells must be bounded by the worker count, got {}",
        jobs8.stats.peak_resident_cells
    );
    assert!(jobs8.stats.cells_per_sec > 0.0);

    let jobs1 = wide.run_streaming_with_jobs(1);
    assert!(jobs1.stats.peak_resident_cells <= 1);
    let unsharded = jobs8.report.normalized().to_json().unwrap();
    assert_eq!(
        unsharded,
        jobs1.report.normalized().to_json().unwrap(),
        "jobs=1 and jobs=8 streamed reports must be byte-identical"
    );

    // Two deterministic shards, run as independent campaigns at jobs=4,
    // merge back to the unsharded report byte-for-byte.
    let half0 = synthetic_campaign(seed, trials)
        .shard(Shard::new(0, 2).unwrap())
        .run_streaming_with_jobs(4);
    let half1 = synthetic_campaign(seed, trials)
        .shard(Shard::new(1, 2).unwrap())
        .run_streaming_with_jobs(4);
    assert_eq!(half0.report.cells + half1.report.cells, 100_002);
    let merged = half0.report.merge(&half1.report);
    assert_eq!(
        unsharded,
        merged.normalized().to_json().unwrap(),
        "merged shard reports must reproduce the unsharded report"
    );
}

#[test]
fn merge_misuse_fails_loudly_instead_of_double_counting() {
    let report = |trials: u64, shard: Option<Shard>| {
        let mut campaign = synthetic_campaign(7, trials);
        if let Some(shard) = shard {
            campaign = campaign.shard(shard);
        }
        campaign.run_streaming_with_jobs(2).report
    };
    // Different grids (trials axis differs): refused, named in the error.
    let four = report(4, None);
    let five = report(5, None);
    let err = four.try_merge(&five).unwrap_err().to_string();
    assert!(err.contains("different campaign grids"), "grid mismatch is loud: {err}");
    // The same shard twice: every slot would be double-counted.
    let half0 = report(4, Some(Shard::new(0, 2).unwrap()));
    let err = half0.try_merge(&half0.clone()).unwrap_err().to_string();
    assert!(err.contains("overlap"), "identical shards overlap: {err}");
    // Overlap through different denominators: 0/2 covers slots 2/4 does.
    let quarter2 = report(4, Some(Shard::new(2, 4).unwrap()));
    let err = half0.try_merge(&quarter2).unwrap_err().to_string();
    assert!(err.contains("overlap"), "0/2 and 2/4 overlap: {err}");
    // Disjoint shards and the default-identity report still merge.
    let half1 = report(4, Some(Shard::new(1, 2).unwrap()));
    let merged = StreamReport::default().try_merge(&half0).unwrap().try_merge(&half1).unwrap();
    assert_eq!(merged.cells, four.cells);
    // Deserializing non-reports fails instead of yielding zeroed data.
    assert!(StreamReport::from_json("{}").is_err());
    assert!(StreamReport::from_json("not a report").is_err());
}

#[test]
fn paper_campaign_streamed_aggregates_match_the_classic_report() {
    let campaign = paper_campaign();
    let classic = campaign.run_with_jobs(2);
    let streamed = campaign.run_streaming_with_jobs(2);
    assert_eq!(streamed.report.cells as usize, classic.cells().len());
    assert_eq!(streamed.report.completed as usize, classic.completed_cells().count());
    assert_eq!(streamed.report.degraded as usize, classic.degraded_cells().count());
    assert_eq!(
        streamed.report.erroneous_states as usize,
        classic.cells().iter().filter(|c| c.erroneous_state).count()
    );
    assert_eq!(
        streamed.report.violated_cells as usize,
        classic.cells().iter().filter(|c| c.violated()).count()
    );
    assert_eq!(streamed.report.hypercalls, classic.total_hypercalls());
    assert_eq!(streamed.report.by_key.len(), 24, "use_case/version/mode keys");
}

/// A standard-world factory that counts its calls.
fn counting_factory() -> (Arc<AtomicUsize>, WorldFactory) {
    let boots = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&boots);
    let factory: WorldFactory = Arc::new(move |version, injector| {
        counter.fetch_add(1, Ordering::SeqCst);
        standard_world(version, injector)
    });
    (boots, factory)
}

#[test]
fn base_worlds_boot_lazily_once_per_needed_key() {
    // The paper grid needs all six (version, injector) base worlds;
    // eight workers racing for them still boot each exactly once.
    let (boots, factory) = counting_factory();
    let classic = paper_campaign().world_factory(factory).run_with_jobs(8);
    assert_eq!(classic.cells().len(), 24);
    assert_eq!(boots.load(Ordering::SeqCst), 6, "classic run boots each key once");
    let (boots, factory) = counting_factory();
    let streamed = paper_campaign().world_factory(factory).run_streaming_with_jobs(8);
    assert_eq!(streamed.report.cells, 24);
    assert_eq!(boots.load(Ordering::SeqCst), 6, "streamed run boots each key once");

    // At one trial the slot parity is the mode, so shard 0/2 holds only
    // exploit cells: the three stock builds boot, the injector builds
    // never do.
    let half = Shard::new(0, 2).unwrap();
    let (boots, factory) = counting_factory();
    let streamed = paper_campaign().world_factory(factory).shard(half).run_streaming_with_jobs(8);
    assert_eq!(streamed.report.cells, 12);
    assert!(streamed.report.by_key.keys().all(|key| key.ends_with("/exploit")));
    assert_eq!(boots.load(Ordering::SeqCst), 3, "only the keys the shard needs boot");
    let (boots, factory) = counting_factory();
    let classic = paper_campaign().world_factory(factory).shard(half).run_with_jobs(8);
    assert_eq!(classic.cells().len(), 12);
    assert_eq!(boots.load(Ordering::SeqCst), 3);
}
