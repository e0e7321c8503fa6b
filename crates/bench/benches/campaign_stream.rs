//! Streaming throughput: the classic collect-everything fold against
//! the bounded-memory streaming fold on a synthetic grid, both on the
//! same slot executor. Reports are byte-identical across folds (see the
//! streaming tests), so this measures pure fold overhead — `cells_per_sec` and
//! `peak_resident_cells` for the same grid land in `BENCH_campaign.json`
//! via `table3_campaign`.

use bench::synthetic_campaign;
use criterion::{criterion_group, criterion_main, Criterion};

/// 3 versions × 400 trials = 1,200 cells per iteration — big enough to
/// amortize base-world boots, small enough for criterion's sample count.
const TRIALS: u64 = 400;
const SEED: u64 = 0xD5_2023;

fn bench_stream_vs_classic(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_stream/1200_cells");
    group.sample_size(10);
    group.bench_function("classic_collect_jobs4", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).run_with_jobs(4))
    });
    group.bench_function("streaming_jobs4", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).run_streaming_with_jobs(4))
    });
    group.bench_function("streaming_jobs1", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).run_streaming_with_jobs(1))
    });
    group.finish();
}

criterion_group!(benches, bench_stream_vs_classic);
criterion_main!(benches);
