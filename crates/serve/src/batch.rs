//! Batch formation.
//!
//! Workers drain a chunk of their home shard (or steal a run from a
//! victim shard) and group it by [`WorkloadClass`] — jobs with the same
//! kind, system size, and iteration count share a task-graph *shape*, so
//! one planner consultation covers the whole batch. The grouping
//! preserves first-seen class order and within-class submission order,
//! keeping the engine deterministic for a given dequeue sequence.
//!
//! A stolen run is already key-coherent (the steal protocol takes the
//! largest same-key run), but shard keys are hashes: two classes *can*
//! collide, so stolen material still flows through the same grouping —
//! [`form_batches_from`] tags the resulting batches with their
//! [`BatchOrigin`], which the worker feeds into
//! [`crate::Metrics::on_batch`] so the report's `stolen_batches`
//! counter separates home work from stolen work.

use crate::job::WorkloadClass;
use std::collections::HashMap;

/// Where a batch's jobs were dequeued from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchOrigin {
    /// Drained from the worker's home shard.
    #[default]
    Home,
    /// Stolen from a victim shard.
    Stolen,
}

/// Jobs of one workload class, planned together.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<P> {
    /// Shared workload class.
    pub class: WorkloadClass,
    /// Whether the members came from the home shard or a steal.
    pub origin: BatchOrigin,
    /// Member jobs, in submission order.
    pub entries: Vec<P>,
}

impl<P> Batch<P> {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch is empty (never produced by
    /// [`form_batches_from`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Groups drained jobs into per-class batches tagged `origin` — workers
/// use [`BatchOrigin::Home`] for their own shard's jobs and
/// [`BatchOrigin::Stolen`] for runs taken from a victim shard.
///
/// `class_of` maps a pending entry to its workload class (usually
/// [`crate::DftJob::workload_class`]).
pub fn form_batches_from<P>(
    origin: BatchOrigin,
    pending: Vec<P>,
    class_of: impl Fn(&P) -> WorkloadClass,
) -> Vec<Batch<P>> {
    let mut index: HashMap<WorkloadClass, usize> = HashMap::new();
    let mut batches: Vec<Batch<P>> = Vec::new();
    for entry in pending {
        let class = class_of(&entry);
        match index.get(&class) {
            Some(&i) => batches[i].entries.push(entry),
            None => {
                index.insert(class, batches.len());
                batches.push(Batch {
                    class,
                    origin,
                    entries: vec![entry],
                });
            }
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DftJob;

    fn scf(atoms: usize) -> DftJob {
        DftJob::GroundState {
            atoms,
            bands: 4,
            max_iterations: 6,
        }
    }

    fn md(atoms: usize, seed: u64) -> DftJob {
        DftJob::MdSegment {
            atoms,
            steps: 10,
            temperature_k: 300.0,
            seed,
        }
    }

    #[test]
    fn groups_by_class_preserving_order() {
        let jobs = vec![scf(8), md(64, 1), scf(8), md(64, 2), scf(16)];
        let batches = form_batches_from(BatchOrigin::Home, jobs, DftJob::workload_class);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2, "both Si_8 SCF jobs batched");
        assert_eq!(batches[1].len(), 2, "MD seeds differ but class matches");
        assert_eq!(batches[2].len(), 1);
        // First-seen order: scf(8) before md(64) before scf(16).
        assert_eq!(batches[0].class.atoms, 8);
        assert_eq!(batches[1].class.atoms, 64);
        assert_eq!(batches[2].class.atoms, 16);
        assert!(batches.iter().all(|b| b.origin == BatchOrigin::Home));
    }

    #[test]
    fn stolen_runs_keep_their_origin_tag() {
        // A key-coherent stolen run usually forms one batch, but a hash
        // collision between classes still separates correctly.
        let run = vec![md(64, 1), md(64, 2), scf(8)];
        let batches = form_batches_from(BatchOrigin::Stolen, run, DftJob::workload_class);
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.origin == BatchOrigin::Stolen));
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn members_keep_submission_order_within_each_class() {
        // The fused execution path leans on this: the first member of a
        // batch builds the shared operand and becomes the trace leader,
        // so grouping must never reorder members within a class — under
        // any interleaving, not just the friendly ones.
        let interleavings: [&[usize]; 3] = [
            &[0, 1, 0, 1, 0, 1],    // alternating
            &[0, 0, 0, 1, 1, 1],    // runs
            &[1, 0, 0, 1, 0, 1, 0], // ragged
        ];
        for pattern in interleavings {
            let mut next_seed = [0u64; 2];
            let jobs: Vec<DftJob> = pattern
                .iter()
                .map(|&class| {
                    let seed = next_seed[class];
                    next_seed[class] += 1;
                    md(if class == 0 { 64 } else { 128 }, seed)
                })
                .collect();
            let batches = form_batches_from(BatchOrigin::Home, jobs, DftJob::workload_class);
            assert_eq!(batches.len(), 2);
            for batch in &batches {
                let seeds: Vec<u64> = batch
                    .entries
                    .iter()
                    .map(|j| match j {
                        DftJob::MdSegment { seed, .. } => *seed,
                        other => panic!("unexpected job {other}"),
                    })
                    .collect();
                let expected: Vec<u64> = (0..seeds.len() as u64).collect();
                assert_eq!(
                    seeds, expected,
                    "class {:?} members out of submission order for {pattern:?}",
                    batch.class
                );
            }
        }
    }

    #[test]
    fn empty_input_forms_no_batches() {
        let batches = form_batches_from(
            BatchOrigin::Home,
            Vec::<DftJob>::new(),
            DftJob::workload_class,
        );
        assert!(batches.is_empty());
    }

    #[test]
    fn no_batch_is_empty() {
        let jobs = vec![scf(8); 5];
        let batches = form_batches_from(BatchOrigin::Home, jobs, DftJob::workload_class);
        assert_eq!(batches.len(), 1);
        assert!(batches.iter().all(|b| !b.is_empty()));
    }
}
