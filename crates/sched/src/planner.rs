//! Cost-aware offload planning (§IV-A).
//!
//! Given a chain of kernel stages, per-target time estimates, and the
//! Eq. 1 boundary-cost model, choose a CPU/NDP placement per stage
//! minimizing end-to-end time. [`plan`] is the one entry point; the
//! [`PlanRequest`]'s [`PlacementPolicy`] picks the algorithm:
//!
//! * [`PlacementPolicy::CostAware`] — dynamic programming, optimal for
//!   chain graphs (which the LR-TDDFT pipeline is). This is NDFT's
//!   planner.
//! * [`PlacementPolicy::Exhaustive`] — brute force over all `2^n`
//!   placements, used to validate the DP. Chains longer than 24 stages
//!   get the chain-DP plan instead (the same optimum, without the `2^n`).
//! * [`PlacementPolicy::Greedy`] — per-stage argmin ignoring boundaries,
//!   the naive baseline an ablation compares against.
//! * [`PlacementPolicy::CpuPinned`] / [`PlacementPolicy::NdpPinned`] —
//!   every stage on one target (the single-target baselines).
//!
//! ## The chain DP
//!
//! The LR-TDDFT pipeline is a *chain*: stage `k` consumes only what
//! stage `k−1` produced, so the only coupling between placement choices
//! is the boundary between adjacent stages. That makes the optimal
//! placement a textbook dynamic program over `(stage, last target)`
//! states: let `dp[k][t]` be the cheapest way to finish stages `0..=k`
//! with stage `k` on target `t`. The transition adds stage `k`'s
//! execution time on `t` plus, when the previous stage sat on the other
//! unit, one Eq. 1 boundary cost for the tensor crossing between them:
//!
//! ```text
//! dp[k][t] = time(k, t) + min over p in {Cpu, Ndp} of
//!            dp[k-1][p] + (p != t ? boundary(bytes[k-1]) : 0)
//! ```
//!
//! Two states per stage, two predecessors per state: `O(n)` time,
//! provably optimal for chains (validated against the exhaustive search
//! in `tests/planner_coverage.rs` up to the 24-stage brute-force guard).
//! The back-pointers are traced to recover the placement.
//!
//! ## Cross-job load bias ([`PlanRequest::load`])
//!
//! A request's [`TargetLoad`] is the pressure concurrent batches put on
//! each target. Per-target stage-time estimates are dilated by the
//! processor-sharing factor [`TargetLoad::dilation`] (a target already
//! claimed by `k` concurrent batch-equivalents runs new work `1 + k`
//! times slower), so the placement *decision* accounts for what
//! concurrent batches have reserved. The returned [`Plan`]'s costs are
//! then **re-evaluated without the bias**: reported `compute_time` /
//! `sched_overhead` always describe the plan on an idle machine, so
//! costs stay comparable across load levels and against the pinned
//! baselines. The pinned policies ignore the load — a pinned placement
//! is the same under any load, only its completion time differs.
//!
//! ## Fusion-aware planning ([`PlanRequest::members`])
//!
//! When a serving layer fuses `k` same-class jobs into one batch, every
//! placement boundary is paid **once per batch** instead of once per
//! member: the coalesced transfer pays one wire latency and one context
//! switch for all `k` tensors ([`CostModel::fused_boundary`]). A request
//! for `members = k` swaps the cost model for its per-member amortized
//! view ([`CostModel::amortized`]) while leaving stage times untouched,
//! so placement can prefer larger NDP spans when amortization beats the
//! boundary tax. Unlike the load bias, the amortization is *kept* in the
//! reported costs: it is a real property of the placement, and the
//! costs are **per member** (multiply by `k` for whole-batch totals).
//! `members` 0 and 1 are the solo plan exactly, and the fused optimum's
//! total time is non-increasing in `k` (boundaries only get cheaper).

use crate::cost::{CostModel, TargetLoad};
use crate::sca::{StaticCodeAnalyzer, Target};
use ndft_dft::KernelDescriptor;
use serde::{Deserialize, Serialize};

/// Per-stage time estimates a planner consumes.
pub trait StageTimer {
    /// Execution time of `stage` on `target`, seconds.
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64;
    /// The boundary-cost model (Eq. 1 constants).
    fn cost_model(&self) -> &CostModel;
}

impl StageTimer for StaticCodeAnalyzer {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.estimate_time(stage, target)
    }
    fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

/// A placement decision for every stage, with its predicted cost split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Target per stage, same order as the input.
    pub placement: Vec<Target>,
    /// Σ stage execution times under the placement, seconds.
    pub compute_time: f64,
    /// Σ boundary costs (Eq. 1), seconds.
    pub sched_overhead: f64,
}

impl Plan {
    /// Total predicted time.
    pub fn total_time(&self) -> f64 {
        self.compute_time + self.sched_overhead
    }

    /// Fraction of total time spent on scheduling overhead.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_time() == 0.0 {
            0.0
        } else {
            self.sched_overhead / self.total_time()
        }
    }

    /// Number of CPU↔NDP crossings.
    pub fn crossings(&self) -> usize {
        self.placement.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// Which placement algorithm [`plan`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The NDFT mechanism: the optimal chain DP.
    CostAware,
    /// Per-stage argmin ignoring boundary costs (the ablation baseline).
    Greedy,
    /// Brute force over all `2^n` placements, used to validate the DP;
    /// chains longer than 24 stages get the chain-DP plan instead.
    Exhaustive,
    /// Everything on the host CPU (baseline).
    CpuPinned,
    /// Everything on the NDP side (baseline).
    NdpPinned,
}

impl PlacementPolicy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::CostAware => "cost-aware",
            PlacementPolicy::Greedy => "greedy",
            PlacementPolicy::Exhaustive => "exhaustive",
            PlacementPolicy::CpuPinned => "cpu-pinned",
            PlacementPolicy::NdpPinned => "ndp-pinned",
        }
    }

    /// Every policy, the NDFT mechanism first.
    pub fn all() -> [PlacementPolicy; 5] {
        [
            PlacementPolicy::CostAware,
            PlacementPolicy::Greedy,
            PlacementPolicy::Exhaustive,
            PlacementPolicy::CpuPinned,
            PlacementPolicy::NdpPinned,
        ]
    }
}

/// What [`plan`] decides besides the stages and the timer. The
/// [`Default`] is the cost-aware chain DP for one job on an idle machine.
///
/// # Examples
///
/// ```
/// use ndft_sched::{plan, PlanRequest, StaticCodeAnalyzer, Target, TargetLoad};
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let sca = StaticCodeAnalyzer::paper_default();
/// let stages = build_task_graph(&SiliconSystem::large(), 1).stages;
/// let idle = plan(&stages, &sca, &PlanRequest::default());
/// // Concurrent batches hold 4 batch-equivalents of NDP busy time:
/// // the loaded plan backs off the NDP side.
/// let load = TargetLoad::new(0.0, 4.0 * idle.total_time(), idle.total_time());
/// let loaded = plan(&stages, &sca, &PlanRequest { load, ..PlanRequest::default() });
/// let ndp = |p: &ndft_sched::Plan| p.placement.iter().filter(|t| **t == Target::Ndp).count();
/// assert!(ndp(&loaded) <= ndp(&idle));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRequest {
    /// The placement algorithm.
    pub policy: PlacementPolicy,
    /// Cross-job pressure the decision is biased by (see the
    /// [module docs](self)); reported costs stay unbiased.
    pub load: TargetLoad,
    /// Width of the fused batch the plan is for; boundaries are priced
    /// at their per-member share. 0 is treated as 1.
    pub members: usize,
}

impl Default for PlanRequest {
    fn default() -> Self {
        PlanRequest {
            policy: PlacementPolicy::CostAware,
            load: TargetLoad::NONE,
            members: 1,
        }
    }
}

/// Largest chain [`PlacementPolicy::Exhaustive`] searches by brute force.
const EXHAUSTIVE_MAX_STAGES: usize = 24;

/// Places every stage of a chain as `request` asks: the policy's
/// algorithm decides under the load-dilated, fusion-amortized view of
/// `timer`, and the returned costs are the placement re-evaluated under
/// the amortized view alone (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use ndft_sched::{plan, PlanRequest, StaticCodeAnalyzer, Target};
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let sca = StaticCodeAnalyzer::paper_default();
/// let graph = build_task_graph(&SiliconSystem::large(), 1);
/// let plan = plan(&graph.stages, &sca, &PlanRequest::default());
/// // Memory-bound majority ⇒ most stages land on the NDP side.
/// let ndp = plan.placement.iter().filter(|t| **t == Target::Ndp).count();
/// assert!(ndp >= plan.placement.len() / 2);
/// ```
pub fn plan(stages: &[KernelDescriptor], timer: &dyn StageTimer, request: &PlanRequest) -> Plan {
    let fused = FusedTimer::new(timer, request.members);
    let biased = LoadBiasedTimer::new(&fused, request.load);
    let placement = match request.policy {
        PlacementPolicy::Exhaustive if stages.len() <= EXHAUSTIVE_MAX_STAGES => {
            exhaustive_search(stages, &biased)
        }
        PlacementPolicy::CostAware | PlacementPolicy::Exhaustive => chain_dp(stages, &biased),
        PlacementPolicy::Greedy => greedy(stages, &biased),
        PlacementPolicy::CpuPinned => vec![Target::Cpu; stages.len()],
        PlacementPolicy::NdpPinned => vec![Target::Ndp; stages.len()],
    };
    make_plan(stages, placement, &fused)
}

/// Bytes flowing across the boundary from stage `k` to `k+1`: the tensor
/// stage `k` produced.
pub(crate) fn boundary_bytes(stages: &[KernelDescriptor]) -> Vec<u64> {
    stages
        .windows(2)
        .map(|w| w[0].cost.bytes_written.min(w[1].cost.bytes_read))
        .collect()
}

pub(crate) fn evaluate(
    stages: &[KernelDescriptor],
    placement: &[Target],
    timer: &dyn StageTimer,
) -> (f64, f64) {
    // fold from +0.0: `Iterator::sum::<f64>()` of an empty iterator is -0.0.
    let compute = stages
        .iter()
        .zip(placement)
        .map(|(s, &t)| timer.stage_time(s, t))
        .fold(0.0, |acc, x| acc + x);
    let bounds = boundary_bytes(stages);
    let crossings: Vec<bool> = placement.windows(2).map(|w| w[0] != w[1]).collect();
    let overhead = timer.cost_model().scheduling_overhead(&bounds, &crossings);
    (compute, overhead)
}

pub(crate) fn make_plan(
    stages: &[KernelDescriptor],
    placement: Vec<Target>,
    timer: &dyn StageTimer,
) -> Plan {
    let (compute_time, sched_overhead) = evaluate(stages, &placement, timer);
    Plan {
        placement,
        compute_time,
        sched_overhead,
    }
}

/// [`StageTimer`] adapter that dilates per-target stage times by a
/// [`TargetLoad`]'s processor-sharing factor. This is how [`plan`] sees
/// a contended machine without any change to the algorithms; boundary
/// costs pass through unchanged (the host link is modeled uncontended —
/// transfers are short relative to compute and the link is not the
/// shared resource the load view tracks).
struct LoadBiasedTimer<'a> {
    inner: &'a dyn StageTimer,
    load: TargetLoad,
}

impl<'a> LoadBiasedTimer<'a> {
    /// Wraps `inner` so every estimate on a target is multiplied by
    /// `load.dilation(target)` (exactly 1 for an idle load).
    fn new(inner: &'a dyn StageTimer, load: TargetLoad) -> Self {
        LoadBiasedTimer { inner, load }
    }
}

impl StageTimer for LoadBiasedTimer<'_> {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.inner.stage_time(stage, target) * self.load.dilation(target)
    }
    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }
}

/// [`StageTimer`] adapter pricing boundaries at their `k`-way-fused
/// per-member share: stage times pass through unchanged, the cost model
/// is replaced by [`CostModel::amortized`]`(members)`.
struct FusedTimer<'a> {
    inner: &'a dyn StageTimer,
    amortized: CostModel,
}

impl<'a> FusedTimer<'a> {
    /// Wraps `inner` for a fused batch of `members` jobs (`members` is
    /// clamped to at least 1; at 1 the adapter is an exact identity).
    fn new(inner: &'a dyn StageTimer, members: usize) -> Self {
        FusedTimer {
            amortized: inner.cost_model().amortized(members),
            inner,
        }
    }
}

impl StageTimer for FusedTimer<'_> {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.inner.stage_time(stage, target)
    }
    fn cost_model(&self) -> &CostModel {
        &self.amortized
    }
}

/// The optimal chain placement via the DP over (stage, last-target)
/// states described in the [module docs](self).
fn chain_dp(stages: &[KernelDescriptor], timer: &dyn StageTimer) -> Vec<Target> {
    if stages.is_empty() {
        return Vec::new();
    }
    let bounds = boundary_bytes(stages);
    let targets = [Target::Cpu, Target::Ndp];
    // dp[t] = (best cost so far ending on target t, predecessor chain)
    let mut cost = [f64::INFINITY; 2];
    let mut back: Vec<[usize; 2]> = Vec::with_capacity(stages.len());
    for (ti, &t) in targets.iter().enumerate() {
        cost[ti] = timer.stage_time(&stages[0], t);
    }
    back.push([0, 1]); // unused sentinel for stage 0
    for (k, stage) in stages.iter().enumerate().skip(1) {
        let mut next = [f64::INFINITY; 2];
        let mut choice = [0usize; 2];
        for (ti, &t) in targets.iter().enumerate() {
            let exec = timer.stage_time(stage, t);
            for (pi, _) in targets.iter().enumerate() {
                let cross = if pi != ti {
                    timer.cost_model().boundary(bounds[k - 1])
                } else {
                    0.0
                };
                let total = cost[pi] + cross + exec;
                if total < next[ti] {
                    next[ti] = total;
                    choice[ti] = pi;
                }
            }
        }
        cost = next;
        back.push(choice);
    }
    // Trace back.
    let mut ti = if cost[0] <= cost[1] { 0 } else { 1 };
    let mut placement = vec![Target::Cpu; stages.len()];
    for k in (0..stages.len()).rev() {
        placement[k] = targets[ti];
        if k > 0 {
            ti = back[k][ti];
        }
    }
    placement
}

/// The cheapest of all `2^n` placements (the first one found on ties).
fn exhaustive_search(stages: &[KernelDescriptor], timer: &dyn StageTimer) -> Vec<Target> {
    let n = stages.len();
    let mut best: Option<(f64, Vec<Target>)> = None;
    for mask in 0u32..(1 << n) {
        let placement: Vec<Target> = (0..n)
            .map(|k| {
                if mask >> k & 1 == 1 {
                    Target::Ndp
                } else {
                    Target::Cpu
                }
            })
            .collect();
        let (compute, overhead) = evaluate(stages, &placement, timer);
        let total = compute + overhead;
        if best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, placement));
        }
    }
    best.expect("at least one placement").1
}

/// Each stage wherever it runs faster, ignoring boundary costs.
fn greedy(stages: &[KernelDescriptor], timer: &dyn StageTimer) -> Vec<Target> {
    stages
        .iter()
        .map(|s| {
            if timer.stage_time(s, Target::Ndp) < timer.stage_time(s, Target::Cpu) {
                Target::Ndp
            } else {
                Target::Cpu
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::granularity::{split_stages, Granularity};
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn sca() -> StaticCodeAnalyzer {
        StaticCodeAnalyzer::paper_default()
    }

    fn stages(atoms: usize) -> Vec<KernelDescriptor> {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages
    }

    fn request(policy: PlacementPolicy) -> PlanRequest {
        PlanRequest {
            policy,
            ..PlanRequest::default()
        }
    }

    fn loaded(load: TargetLoad) -> PlanRequest {
        PlanRequest {
            load,
            ..PlanRequest::default()
        }
    }

    fn batch(policy: PlacementPolicy, members: usize) -> PlanRequest {
        PlanRequest {
            policy,
            members,
            ..PlanRequest::default()
        }
    }

    fn ndp_stages(p: &Plan) -> usize {
        p.placement.iter().filter(|t| **t == Target::Ndp).count()
    }

    /// `a` and `b` have equal total time up to `rel` relative error.
    fn same_total(a: &Plan, b: &Plan, rel: f64) -> bool {
        (a.total_time() - b.total_time()).abs() <= rel * b.total_time().max(1e-12)
    }

    #[test]
    fn dp_matches_exhaustive() {
        let t = sca();
        for atoms in [16usize, 64, 256, 1024] {
            let s = stages(atoms);
            let dp = plan(&s, &t, &PlanRequest::default());
            let ex = plan(&s, &t, &request(PlacementPolicy::Exhaustive));
            assert!(
                same_total(&dp, &ex, 1e-9),
                "Si_{atoms}: dp {} vs exhaustive {}",
                dp.total_time(),
                ex.total_time()
            );
        }
    }

    #[test]
    fn exhaustive_falls_back_to_the_dp_beyond_24_stages() {
        let t = sca();
        let split = split_stages(&stages(16), Granularity::BasicBlock);
        assert!(split.len() > EXHAUSTIVE_MAX_STAGES);
        let load = TargetLoad::new(0.0, 1.0, 1.0);
        for members in [1usize, 4] {
            let exhaustive = PlanRequest {
                policy: PlacementPolicy::Exhaustive,
                load,
                members,
            };
            let cost_aware = PlanRequest {
                policy: PlacementPolicy::CostAware,
                ..exhaustive
            };
            assert_eq!(plan(&split, &t, &exhaustive), plan(&split, &t, &cost_aware));
        }
    }

    #[test]
    fn dp_beats_or_matches_greedy_and_pinned() {
        let s = stages(1024);
        let t = sca();
        let dp = plan(&s, &t, &PlanRequest::default()).total_time();
        for policy in PlacementPolicy::all() {
            let other = plan(&s, &t, &request(policy)).total_time();
            assert!(dp <= other + 1e-12, "{policy:?}: dp {dp} vs {other}");
        }
    }

    #[test]
    fn hybrid_placement_beats_single_target_on_large_system() {
        let s = stages(1024);
        let t = sca();
        let dp = plan(&s, &t, &PlanRequest::default());
        let cpu_only = plan(&s, &t, &request(PlacementPolicy::CpuPinned));
        assert!(
            dp.total_time() < 0.8 * cpu_only.total_time(),
            "hybrid {} vs CPU-only {}",
            dp.total_time(),
            cpu_only.total_time()
        );
        assert!(dp.crossings() > 0, "plan should actually use both units");
    }

    #[test]
    fn overhead_fraction_is_small() {
        // Paper §VI-A: scheduling overhead is 3.8 % (small) and 4.9 %
        // (large). Our plan-level estimate must stay in single digits.
        for atoms in [64usize, 1024] {
            let s = stages(atoms);
            let plan = plan(&s, &sca(), &PlanRequest::default());
            assert!(
                plan.overhead_fraction() < 0.12,
                "Si_{atoms} overhead {}",
                plan.overhead_fraction()
            );
        }
    }

    #[test]
    fn pinned_plans_have_no_crossings() {
        let s = stages(64);
        let t = sca();
        for (policy, target) in [
            (PlacementPolicy::CpuPinned, Target::Cpu),
            (PlacementPolicy::NdpPinned, Target::Ndp),
        ] {
            let p = plan(&s, &t, &request(policy));
            assert!(p.placement.iter().all(|&x| x == target), "{policy:?}");
            assert_eq!(p.crossings(), 0);
            assert_eq!(p.sched_overhead, 0.0);
        }
    }

    #[test]
    fn empty_chain_is_trivial() {
        let t = sca();
        for policy in PlacementPolicy::all() {
            let p = plan(&[], &t, &request(policy));
            assert!(p.placement.is_empty());
            assert_eq!(p.total_time().to_bits(), 0.0f64.to_bits(), "{policy:?}");
        }
    }

    #[test]
    fn idle_load_reproduces_the_unloaded_plan() {
        // Inert request fields reduce every policy to its plain plan: an
        // idle load (no reservations, or no reference scale) and a batch
        // of 0 or 1 members. The plain plan's costs are its placement
        // evaluated under the raw timer. Under a busy load, 0 and 1
        // members still agree with each other.
        let t = sca();
        let busy = TargetLoad::new(0.0, 3.0, 1.0);
        for atoms in [16usize, 256] {
            let s = stages(atoms);
            for policy in PlacementPolicy::all() {
                let base = plan(&s, &t, &request(policy));
                assert_eq!(base, make_plan(&s, base.placement.clone(), &t));
                for members in [0usize, 1] {
                    for load in [
                        TargetLoad::NONE,
                        TargetLoad::new(0.0, 0.0, 1.0),
                        TargetLoad::new(3.0, 5.0, 0.0), // no reference scale ⇒ inert
                    ] {
                        let req = PlanRequest {
                            policy,
                            load,
                            members,
                        };
                        assert_eq!(plan(&s, &t, &req), base, "Si_{atoms} {req:?}");
                    }
                    let req = PlanRequest {
                        policy,
                        load: busy,
                        members,
                    };
                    let solo = PlanRequest { members: 1, ..req };
                    assert_eq!(
                        plan(&s, &t, &req),
                        plan(&s, &t, &solo),
                        "Si_{atoms} {req:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_plan_of_one_is_the_plain_plan() {
        // A batch of one member (0 is clamped to 1) is the plain plan,
        // with or without load.
        let t = sca();
        let load = TargetLoad::new(0.0, 3.0, 1.0);
        for atoms in [16usize, 256] {
            let s = stages(atoms);
            for policy in PlacementPolicy::all() {
                let plain = plan(&s, &t, &request(policy));
                let plain_loaded = plan(
                    &s,
                    &t,
                    &PlanRequest {
                        load,
                        ..request(policy)
                    },
                );
                for members in [0usize, 1] {
                    assert_eq!(plan(&s, &t, &batch(policy, members)), plain, "{policy:?}");
                    let req = PlanRequest {
                        policy,
                        load,
                        members,
                    };
                    assert_eq!(plan(&s, &t, &req), plain_loaded, "{policy:?} {req:?}");
                }
            }
        }
    }

    #[test]
    fn ndp_pressure_pushes_placement_toward_cpu() {
        let s = stages(1024);
        let t = sca();
        let idle = plan(&s, &t, &PlanRequest::default());
        let scale = idle.total_time();
        // Monotone back-off: growing NDP pressure never adds NDP stages.
        let mut last = ndp_stages(&idle);
        for pressure in [1.0, 4.0, 16.0, 256.0] {
            let load = TargetLoad::new(0.0, pressure * scale, scale);
            let n = ndp_stages(&plan(&s, &t, &loaded(load)));
            assert!(n <= last, "pressure {pressure}: {n} > {last}");
            last = n;
        }
        // Crushing pressure on one side pins the plan to the other.
        let crushed = plan(&s, &t, &loaded(TargetLoad::new(0.0, 1e6 * scale, scale)));
        assert_eq!(ndp_stages(&crushed), 0, "NDP fully evacuated");
        let crushed_cpu = plan(&s, &t, &loaded(TargetLoad::new(1e6 * scale, 0.0, scale)));
        assert_eq!(ndp_stages(&crushed_cpu), crushed_cpu.placement.len());
    }

    #[test]
    fn loaded_plan_costs_are_reported_unbiased() {
        // The decision is made under dilation, but the Plan's numbers
        // must describe the idle machine: re-evaluating the loaded
        // placement with the raw timer reproduces them exactly, and the
        // loaded plan can never beat the unloaded optimum on those terms.
        let s = stages(1024);
        let t = sca();
        let idle = plan(&s, &t, &PlanRequest::default());
        let scale = idle.total_time();
        let load = TargetLoad::new(0.0, 8.0 * scale, scale);
        for policy in PlacementPolicy::all() {
            let p = plan(
                &s,
                &t,
                &PlanRequest {
                    load,
                    ..request(policy)
                },
            );
            assert_eq!(p, make_plan(&s, p.placement.clone(), &t), "{policy:?}");
            assert!(p.total_time() >= idle.total_time() - 1e-12 * idle.total_time());
        }
    }

    #[test]
    fn loaded_exhaustive_matches_loaded_dp_on_chains() {
        let s = stages(64);
        let t = sca();
        let load = TargetLoad::new(0.0, 5.0, 1.0);
        let dp = plan(&s, &t, &loaded(load));
        let ex = plan(
            &s,
            &t,
            &PlanRequest {
                load,
                ..request(PlacementPolicy::Exhaustive)
            },
        );
        // Both optimize the same dilated objective; compare under it.
        let biased = LoadBiasedTimer::new(&t, load);
        let dp = make_plan(&s, dp.placement, &biased);
        let ex = make_plan(&s, ex.placement, &biased);
        assert!(
            same_total(&dp, &ex, 1e-9),
            "dp {} vs exhaustive {}",
            dp.total_time(),
            ex.total_time()
        );
    }

    #[test]
    fn load_biased_timer_dilates_stage_times_only() {
        let s = stages(64);
        let t = sca();
        let load = TargetLoad::new(2.0, 6.0, 2.0); // dilations 2× and 4×
        let biased = LoadBiasedTimer::new(&t, load);
        let raw_cpu = t.stage_time(&s[0], Target::Cpu);
        let raw_ndp = t.stage_time(&s[0], Target::Ndp);
        assert!((biased.stage_time(&s[0], Target::Cpu) - 2.0 * raw_cpu).abs() < 1e-12 * raw_cpu);
        assert!((biased.stage_time(&s[0], Target::Ndp) - 4.0 * raw_ndp).abs() < 1e-12 * raw_ndp);
        assert_eq!(biased.cost_model(), t.cost_model());
    }

    #[test]
    fn fused_total_time_is_nonincreasing_in_members() {
        let s = stages(256);
        let t = sca();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 32] {
            let total = plan(&s, &t, &batch(PlacementPolicy::CostAware, k)).total_time();
            assert!(
                total <= last + 1e-12 * last.abs().max(1e-12),
                "k={k}: {total} > {last}"
            );
            last = total;
        }
    }

    #[test]
    fn fused_dp_matches_fused_exhaustive() {
        let s = stages(64);
        let t = sca();
        for k in [2usize, 8] {
            let dp = plan(&s, &t, &batch(PlacementPolicy::CostAware, k));
            let ex = plan(&s, &t, &batch(PlacementPolicy::Exhaustive, k));
            assert!(
                same_total(&dp, &ex, 1e-9),
                "k={k}: dp {} vs exhaustive {}",
                dp.total_time(),
                ex.total_time()
            );
        }
    }

    #[test]
    fn fused_timer_amortizes_boundaries_not_stage_times() {
        let s = stages(64);
        let t = sca();
        let fused = FusedTimer::new(&t, 8);
        assert_eq!(
            fused.stage_time(&s[0], Target::Ndp),
            t.stage_time(&s[0], Target::Ndp)
        );
        assert!(fused.cost_model().boundary(4096) < t.cost_model().boundary(4096));
        assert_eq!(
            fused.cost_model().transfer_bandwidth,
            t.cost_model().transfer_bandwidth
        );
    }

    #[test]
    fn heavy_fusion_never_adds_crossing_cost_per_member() {
        // With boundaries nearly free, the fused plan's per-member overhead
        // must shrink toward zero while compute stays optimal.
        let s = stages(1024);
        let t = sca();
        let solo = plan(&s, &t, &PlanRequest::default());
        let fused = plan(&s, &t, &batch(PlacementPolicy::CostAware, 1024));
        assert!(fused.sched_overhead <= solo.sched_overhead + 1e-15);
        assert!(fused.total_time() <= solo.total_time() + 1e-15);
    }

    #[test]
    fn greedy_ignores_boundaries_dp_does_not() {
        let s = stages(64);
        let t = sca();
        let greedy = plan(&s, &t, &request(PlacementPolicy::Greedy));
        let dp = plan(&s, &t, &PlanRequest::default());
        // Greedy may cross more often than the DP.
        assert!(dp.crossings() <= greedy.crossings() + 1);
    }
}
