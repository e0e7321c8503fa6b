//! The slot executor behind every campaign entry point.
//!
//! A campaign is a numbered set of slots, each an independent cell
//! whose result depends only on its slot (and seed). The executor runs
//! such a set on `N` scoped worker threads:
//!
//! ```text
//!  atomic cursor ──▶ ordinal ──▶ slot = shard.index + ordinal·shard.count
//!        ▲                         │  (skipped when the resume journal covers it)
//!        │                         ▼
//!        └──── next claim ◀── worker w: run the cell, fold into partial w
//!
//!  join all workers ──▶ partials in first-slot order ──▶ caller's merge
//! ```
//!
//! There is no queue and no generator: a worker decodes the slot it
//! claimed itself. What a worker folds into — a vector of cells, a
//! streamed aggregate plus journal, or a randomized summary — is the
//! caller's business; the executor only hands out slots, joins the
//! workers, and orders the partials by the first slot each claimed, so
//! merging is reproducible whatever the schedule was.

use crate::stream::Shard;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which slots a run covers: the whole grid `0..len` or one shard of
/// it, minus the slots a resume journal has already made durable.
#[derive(Clone, Copy)]
pub(crate) struct SlotPlan<'a> {
    /// Slots in the grid.
    pub len: u64,
    /// Run only slots congruent to `index` modulo `count`.
    pub shard: Option<Shard>,
    /// Slots to skip (already covered by durable fold records).
    pub done: Option<&'a (dyn Fn(u64) -> bool + Sync)>,
}

impl SlotPlan<'_> {
    /// The slot claim number `ordinal` maps to, or `None` past the end.
    pub(crate) fn slot(&self, ordinal: u64) -> Option<u64> {
        let (index, count) = self.shard.map_or((0, 1), |s| (s.index, s.count));
        ordinal
            .checked_mul(count)
            .and_then(|offset| offset.checked_add(index))
            .filter(|&slot| slot < self.len)
    }
}

/// Runs every slot of `plan` on one thread per entry of `workers`.
///
/// Each worker claims slots from a shared atomic cursor and calls
/// `run(&mut state, slot)` for each; once the cursor is exhausted it
/// calls `drain(&mut state)` on its own thread. `sidecar`, when given,
/// runs on one more thread in the same scope (the telemetry
/// supervisor) and must return once every worker has drained. `serve`,
/// when given, runs on the calling thread while the workers run (the
/// campaign boots its base worlds there) and must not wait on them.
/// The worker states come back ordered by the first slot each claimed;
/// workers that claimed nothing come last.
///
/// A panic that escapes `run` or `drain` — cell bodies are contained,
/// so this is a bug in the fold — is re-raised on the caller's thread
/// after every other worker has finished.
pub(crate) fn execute<S: Send>(
    plan: &SlotPlan<'_>,
    workers: Vec<S>,
    run: impl Fn(&mut S, u64) + Sync,
    drain: impl Fn(&mut S) + Sync,
    sidecar: Option<&(dyn Fn() + Sync)>,
    serve: Option<&dyn Fn()>,
) -> Vec<S> {
    let cursor = AtomicU64::new(0);
    let mut partials = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut state| {
                let (cursor, run, drain) = (&cursor, &run, &drain);
                scope.spawn(move || {
                    let mut first = None;
                    while let Some(slot) = plan.slot(cursor.fetch_add(1, Ordering::Relaxed)) {
                        if plan.done.is_some_and(|done| done(slot)) {
                            continue;
                        }
                        first.get_or_insert(slot);
                        run(&mut state, slot);
                    }
                    drain(&mut state);
                    (first, state)
                })
            })
            .collect();
        if let Some(sidecar) = sidecar {
            scope.spawn(sidecar);
        }
        if let Some(serve) = serve {
            serve();
        }
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    partials.sort_by_key(|&(first, _)| first.unwrap_or(u64::MAX));
    partials.into_iter().map(|(_, state)| state).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claimed(plan: &SlotPlan<'_>, workers: usize) -> Vec<Vec<u64>> {
        execute(plan, vec![Vec::new(); workers], |seen, slot| seen.push(slot), |_| {}, None, None)
    }

    #[test]
    fn every_slot_runs_once_and_partials_come_back_in_first_slot_order() {
        let plan = SlotPlan { len: 100, shard: None, done: None };
        let partials = claimed(&plan, 4);
        let firsts: Vec<u64> = partials.iter().filter_map(|p| p.first().copied()).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "ordered by first slot: {firsts:?}");
        let mut all: Vec<u64> = partials.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shards_and_resume_journals_restrict_the_claimed_slots() {
        let done = |slot: u64| slot == 1 || slot == 7;
        let plan = SlotPlan { len: 10, shard: Shard::new(1, 3).ok(), done: Some(&done) };
        let mut all: Vec<u64> = claimed(&plan, 2).into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![4], "shard 1/3 of 0..10 is 1, 4, 7; the journal covers 1 and 7");
        let past_end = SlotPlan { len: 2, shard: Shard::new(2, 3).ok(), done: None };
        assert!(claimed(&past_end, 3).iter().all(Vec::is_empty));
    }
}
