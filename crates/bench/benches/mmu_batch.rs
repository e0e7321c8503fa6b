//! Batched `mmu_update` validation: Xen's real hypercall takes an
//! array of updates. A batch does the same per-entry validation, PTE
//! writes and audit events as a loop of singleton hypercalls; it saves
//! only the per-call entry work (hypercall accounting and the liveness
//! check), which this bench measures.

use bench::attack_world;
use criterion::{criterion_group, criterion_main, Criterion};
use hvsim::{MmuUpdate, PteFlags, XenVersion};
use hvsim_paging::PageTableEntry;
use std::hint::black_box;

const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);
const BATCH: u64 = 64;

/// A world plus 64 valid L1 updates mapping spare slots onto a heap
/// frame — the same work for the batch and the singleton loop.
fn setup() -> (guestos::World, hvsim_mem::DomainId, Vec<MmuUpdate>) {
    let (mut world, attacker) = attack_world(XenVersion::V4_8, false);
    let (hv, kernel) = world.hv_and_kernel_mut(attacker).unwrap();
    let (_, data, _) = kernel.alloc_heap_page(hv).unwrap();
    let l1 = kernel.tables().l1;
    let updates: Vec<MmuUpdate> = (300..300 + BATCH)
        .map(|i| {
            MmuUpdate::normal(
                l1.base().offset(i * 8).raw(),
                PageTableEntry::new(data, LINK).raw(),
            )
        })
        .collect();
    (world, attacker, updates)
}

fn bench_batch(c: &mut Criterion) {
    let (mut world, attacker, updates) = setup();
    c.bench_function("mmu_batch/batch64", |b| {
        b.iter(|| {
            black_box(world.hv_mut().hc_mmu_update(attacker, black_box(&updates)).unwrap())
        })
    });
}

fn bench_singleton_loop(c: &mut Criterion) {
    let (mut world, attacker, updates) = setup();
    c.bench_function("mmu_batch/singleton64", |b| {
        b.iter(|| {
            let mut done = 0u64;
            for u in &updates {
                done += world
                    .hv_mut()
                    .hc_mmu_update(attacker, black_box(std::slice::from_ref(u)))
                    .unwrap();
            }
            black_box(done)
        })
    });
}

criterion_group!(benches, bench_batch, bench_singleton_loop);
criterion_main!(benches);
