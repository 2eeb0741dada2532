//! Offload-granularity study (§IV-A-1).
//!
//! The paper chooses *function-level* offloading after observing that
//! (1) fine-grained offload multiplies boundary overheads, and (2) most
//! LR-TDDFT functions have uniform compute/memory character, so splitting
//! them buys nothing. This module models that trade-off: splitting each
//! kernel into `k` segments multiplies the potential boundaries by `k`
//! while leaving per-segment character identical — quantifying the
//! overhead curve the paper's design decision rests on.
//!
//! Mechanically, [`split_stages`] rewrites the kernel chain and the
//! ordinary chain DP ([`crate::plan`]) plans the split chain: the
//! DP's `O(n)` cost is what makes the instruction-level point (≈1024
//! segments per kernel) tractable at all, where the exhaustive search's
//! `2^n` could not go past 24 total segments. The study runs on an idle
//! machine ([`crate::TargetLoad::NONE`]) by construction — granularity
//! is a *compile-time* design choice, while the cross-job load bias is
//! a *serve-time* input; conflating them would double-count contention.

use crate::planner::{plan, Plan, PlanRequest, StageTimer};
use ndft_dft::KernelDescriptor;
use serde::{Deserialize, Serialize};

/// Offloading granularity levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// Whole functions/kernels (NDFT's choice).
    Function,
    /// Basic blocks: ~32 segments per kernel.
    BasicBlock,
    /// Individual instructions-ish regions: ~1024 segments per kernel.
    Instruction,
}

impl Granularity {
    /// Segments each kernel is split into at this granularity.
    fn segments_per_kernel(&self) -> usize {
        match self {
            Granularity::Function => 1,
            Granularity::BasicBlock => 32,
            Granularity::Instruction => 1024,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Granularity::Function => "function",
            Granularity::BasicBlock => "basic-block",
            Granularity::Instruction => "instruction",
        }
    }

    /// All levels, coarse to fine.
    pub fn all() -> [Granularity; 3] {
        [
            Granularity::Function,
            Granularity::BasicBlock,
            Granularity::Instruction,
        ]
    }
}

/// Result of planning one granularity level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GranularityReport {
    /// Granularity level.
    pub granularity: Granularity,
    /// Total segments planned.
    pub segments: usize,
    /// Predicted total time (compute + overhead), seconds.
    pub total_time: f64,
    /// Predicted Eq. 1 overhead, seconds.
    pub sched_overhead: f64,
}

/// Splits every kernel into uniform segments. Segment descriptors carry
/// `1/k` of the parent's cost; within-kernel boundaries carry the parent's
/// live working tensor (its written bytes), since interior state would
/// have to move on a mid-kernel placement switch.
pub fn split_stages(
    stages: &[KernelDescriptor],
    granularity: Granularity,
) -> Vec<KernelDescriptor> {
    let k = granularity.segments_per_kernel() as u64;
    if k == 1 {
        return stages.to_vec();
    }
    let mut out = Vec::with_capacity(stages.len() * k as usize);
    for s in stages {
        for i in 0..k {
            let mut seg = s.clone();
            seg.name = format!("{} [{}/{}]", s.name, i + 1, k);
            seg.cost.flops /= k;
            // Interior segments stream the same live tensor through.
            seg.cost.bytes_read /= k;
            seg.cost.bytes_written /= k;
            seg.parallelism = s.parallelism.max(1);
            out.push(seg);
        }
    }
    out
}

/// Plans the pipeline at each granularity and returns the overhead curve.
/// A fixed per-segment dispatch cost (`CXT`) applies even to same-target
/// transitions at sub-function granularity, because every segment is a
/// separate offload decision/dispatch in such runtimes.
///
/// # Examples
///
/// ```
/// use ndft_sched::{granularity_study, StaticCodeAnalyzer};
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let graph = build_task_graph(&SiliconSystem::small(), 1);
/// let reports = granularity_study(&graph.stages, &StaticCodeAnalyzer::paper_default());
/// // Function-level offloading wins — the paper's design choice.
/// assert!(reports[0].total_time <= reports[1].total_time);
/// assert!(reports[1].total_time <= reports[2].total_time);
/// ```
pub fn granularity_study(
    stages: &[KernelDescriptor],
    timer: &dyn StageTimer,
) -> Vec<GranularityReport> {
    Granularity::all()
        .into_iter()
        .map(|g| {
            let split = split_stages(stages, g);
            let plan: Plan = plan(&split, timer, &PlanRequest::default());
            // Sub-function granularity pays per-segment dispatch even
            // without a placement flip.
            let dispatch = if g.segments_per_kernel() > 1 {
                split.len() as f64 * timer.cost_model().context_switch
            } else {
                0.0
            };
            GranularityReport {
                granularity: g,
                segments: split.len(),
                total_time: plan.total_time() + dispatch,
                sched_overhead: plan.sched_overhead + dispatch,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sca::StaticCodeAnalyzer;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn stages() -> Vec<KernelDescriptor> {
        build_task_graph(&SiliconSystem::small(), 1).stages
    }

    #[test]
    fn splitting_preserves_total_cost() {
        let s = stages();
        let split = split_stages(&s, Granularity::BasicBlock);
        assert_eq!(split.len(), s.len() * 32);
        let orig: u64 = s.iter().map(|d| d.cost.flops).sum();
        let after: u64 = split.iter().map(|d| d.cost.flops).sum();
        // Integer division may drop at most `segments` flops per stage.
        assert!(orig - after < 32 * s.len() as u64 * 32);
    }

    #[test]
    fn function_level_wins() {
        let reports = granularity_study(&stages(), &StaticCodeAnalyzer::paper_default());
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].granularity, Granularity::Function);
        assert!(reports[0].total_time <= reports[1].total_time);
        assert!(reports[1].total_time <= reports[2].total_time);
        // Instruction-level overhead must be dramatic (thousands of CXTs).
        assert!(reports[2].sched_overhead > 10.0 * reports[0].sched_overhead.max(1e-9));
    }

    #[test]
    fn segment_counts_match_levels() {
        let n = stages().len();
        let reports = granularity_study(&stages(), &StaticCodeAnalyzer::paper_default());
        assert_eq!(reports[0].segments, n);
        assert_eq!(reports[1].segments, n * 32);
        assert_eq!(reports[2].segments, n * 1024);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = Granularity::all().iter().map(|g| g.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains(&"function"));
    }
}
