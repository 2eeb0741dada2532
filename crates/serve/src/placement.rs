//! Planner-driven placement.
//!
//! Before executing a batch, a worker has the `ndft_sched` planner
//! ([`ndft_sched::plan`]) pick a CPU-vs-NDP placement per pipeline stage
//! on the gather-charging machine of the batch's system size
//! ([`MeasuredTimer`]), and times that very plan on it
//! ([`MeasuredTimer::report`]). That machine is built once per system
//! size and kept for the life of the process: its inputs (the Table III
//! system, the recorded calibration, default options) are fixed, so the
//! shared-block gather it charges is simulated once per size, and
//! workers, deadline admission and [`plan_placement`] all plan on the
//! same one. The decision also carries both pinned
//! baselines, so callers can verify the service-level analogue of the
//! paper's §IV-A guarantee: planned on an idle cluster, the placement
//! never loses to a CPU-only or an NDP-only run; planned under load, it
//! never loses on the load-dilated terms the planner weighed.
//!
//! Placement is **utilization-aware**: the engine hands the planner a
//! [`ClusterSnapshot`] of what concurrent batches have already reserved
//! per target, converted into the request's [`ndft_sched::TargetLoad`]
//! bias — the reserved busy seconds divided by this graph's faster
//! pinned time, i.e. pressure measured in *batch-equivalents of this
//! very workload*. The planner then sees contended targets as
//! proportionally slower and spreads simultaneous batches across CPU
//! and NDP. The reported plan costs stay unbiased (idle-machine
//! numbers), so a shifted plan may cost more of them than a pinned
//! baseline: it trades idle-machine seconds for less contention. A
//! fused batch of `k` members is planned with `members = k`.
//! [`plan_placement`] is the load-blind, one-member decision.

use crate::cluster::ClusterSnapshot;
use ndft_core::{calib, MeasuredTimer, NdftOptions, RunReport};
use ndft_dft::{build_task_graph_fused, TaskGraph};
use ndft_sched::{plan, Plan, PlanRequest, Target, TargetLoad};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

pub use ndft_sched::PlacementPolicy;

/// A placement plan plus the context needed to judge it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// Policy that produced the plan.
    pub policy: PlacementPolicy,
    /// The chosen placement with its predicted cost split.
    pub plan: Plan,
    /// Modeled time of the CPU-pinned baseline, seconds.
    pub cpu_pinned_time: f64,
    /// Modeled time of the NDP-pinned baseline, seconds.
    pub ndp_pinned_time: f64,
    /// Modeled busy time the plan puts on the host CPU, seconds.
    pub cpu_busy: f64,
    /// Modeled busy time the plan puts on the NDP stacks, seconds.
    pub ndp_busy: f64,
    /// Reserved CPU busy seconds concurrent batches held when this plan
    /// was made (0 for load-blind planning or an idle cluster).
    pub cpu_load_s: f64,
    /// Reserved NDP busy seconds concurrent batches held when this plan
    /// was made.
    pub ndp_load_s: f64,
    /// Whether the load bias actually changed the placement relative to
    /// an idle-machine plan under the same policy.
    pub shifted: bool,
}

impl PlacementDecision {
    /// End-to-end modeled time of the chosen plan, seconds.
    pub fn modeled_time(&self) -> f64 {
        self.plan.total_time()
    }

    /// The canonical **cache-entry cost** of a result produced under
    /// this plan: the modeled seconds re-creating the whole job would
    /// take on the paper's machine — the per-iteration plan time
    /// ([`PlacementDecision::modeled_time`]) scaled by the job's
    /// modeled iteration count (SCF iterations, MD steps, 1 for
    /// spectra). Named separately because it is a semantic contract:
    /// the cost-weighted cache tier weighs eviction by exactly this
    /// number, threaded from the worker's fulfill path.
    pub fn modeled_cost_s(&self, iterations: usize) -> f64 {
        self.modeled_time() * iterations.max(1) as f64
    }

    /// Stages placed on the NDP side.
    pub fn ndp_stage_count(&self) -> usize {
        self.plan
            .placement
            .iter()
            .filter(|t| **t == Target::Ndp)
            .count()
    }
}

/// Consults the planner selected by `policy` for one task graph on an
/// idle cluster (load-blind, one member).
pub fn plan_placement(graph: &TaskGraph, policy: PlacementPolicy) -> PlacementDecision {
    plan_batch(graph, policy, &ClusterSnapshot::idle(), 1).0
}

/// Gather-charging machines keyed by atom count, each built on first
/// use: the Table III system, its measured calibration and default
/// options, so one machine per size serves every later call.
#[derive(Default)]
struct Machines(Mutex<HashMap<usize, MeasuredTimer>>);

impl Machines {
    fn get(&self, atoms: usize) -> MeasuredTimer {
        // Only a panicking machine build could poison the lock, and
        // that build panics for every caller alike.
        let mut memo = self.0.lock().expect("a machine build panicked");
        memo.entry(atoms)
            .or_insert_with(|| {
                let (sys, cal) = (calib::system_config(), calib::measured());
                MeasuredTimer::new(sys, cal, atoms, NdftOptions::default())
            })
            .clone()
    }
}

/// The machine for Si_`atoms`, kept for the process: the one machine
/// source of `ndft-serve`, so the gather is simulated once per size.
pub(crate) fn kept_machine(atoms: usize) -> MeasuredTimer {
    static MACHINES: OnceLock<Machines> = OnceLock::new();
    MACHINES.get_or_init(Machines::default).get(atoms)
}

/// The machine for Si_`atoms` built anew, simulating the gather again:
/// the reference [`kept_machine`] is compared against.
#[cfg(test)]
pub(crate) fn fresh_machine(atoms: usize) -> MeasuredTimer {
    Machines::default().get(atoms)
}

/// Plans one batch of `members` jobs sharing `graph`'s shape on its
/// size's kept gather-charging machine ([`kept_machine`]): one decision
/// by `policy` under the load `cluster` holds, and the modeled run of
/// that same plan. A batch of ≥ 2 plans its fused graph on
/// [`MeasuredTimer::fused`], charging shared operands and the gather
/// once across the batch; times are per member, and the third value is
/// the per-member saving against the idle solo plan (0 for one member).
pub(crate) fn plan_batch(
    graph: &TaskGraph,
    policy: PlacementPolicy,
    cluster: &ClusterSnapshot,
    members: usize,
) -> (PlacementDecision, RunReport, f64) {
    let solo = kept_machine(graph.system.atoms());
    plan_batch_on(&solo, graph, policy, cluster, members)
}

/// [`plan_batch`] on `solo`, the solo machine of `graph`'s size.
pub(crate) fn plan_batch_on(
    solo: &MeasuredTimer,
    graph: &TaskGraph,
    policy: PlacementPolicy,
    cluster: &ClusterSnapshot,
    members: usize,
) -> (PlacementDecision, RunReport, f64) {
    let fused = (members > 1).then(|| {
        let g = build_task_graph_fused(&graph.system, graph.iterations, members);
        (g, solo.fused(members))
    });
    let (batch, machine) = fused.as_ref().map_or((graph, solo), |(g, m)| (g, m));
    let plan_under = |policy, load| {
        plan(
            &batch.stages,
            machine,
            &PlanRequest {
                policy,
                load,
                members,
            },
        )
    };
    let cpu_pinned_time = plan_under(PlacementPolicy::CpuPinned, TargetLoad::NONE).total_time();
    let ndp_pinned_time = plan_under(PlacementPolicy::NdpPinned, TargetLoad::NONE).total_time();
    // One unit of pressure = one batch-equivalent of *this* workload:
    // reserved seconds are measured against the graph's faster pinned
    // time, so the bias is dimensionless and scale-appropriate whatever
    // the job size.
    let reference_s = cpu_pinned_time.min(ndp_pinned_time);
    let load = TargetLoad::new(cluster.cpu_reserved_s, cluster.ndp_reserved_s, reference_s);
    let chosen = plan_under(policy, load);
    // A shift is observable only against the idle-machine plan; skip the
    // second consultation when the bias was inert. (Otherwise the re-plan
    // is one extra O(n) DP per *batch* — noise next to the numerics —
    // and Exhaustive is a validation-only policy.)
    let shifted =
        !load.is_idle() && chosen.placement != plan_under(policy, TargetLoad::NONE).placement;
    let saving_s = fused.as_ref().map_or(0.0, |_| {
        let request = PlanRequest {
            policy,
            ..PlanRequest::default()
        };
        let solo_s = plan(&graph.stages, solo, &request).total_time();
        (solo_s - chosen.total_time()).max(0.0)
    });
    let modeled = machine.report(batch, &chosen);
    let busy = |target| {
        let on = modeled.stages.iter().filter(|s| s.target == Some(target));
        on.fold(0.0, |acc, s| acc + s.time.total())
    };
    let decision = PlacementDecision {
        policy,
        plan: chosen,
        cpu_pinned_time,
        ndp_pinned_time,
        cpu_busy: busy(Target::Cpu),
        ndp_busy: busy(Target::Ndp),
        cpu_load_s: cluster.cpu_reserved_s.max(0.0),
        ndp_load_s: cluster.ndp_reserved_s.max(0.0),
        shifted,
    };
    (decision, modeled, saving_s)
}

#[cfg(test)]
/// Asserts the one-plan invariant: `modeled` runs every stage where
/// `decision` placed it.
pub(crate) fn assert_one_plan(decision: &PlacementDecision, modeled: &RunReport) {
    let ran: Vec<_> = modeled.stages.iter().map(|s| s.target).collect();
    let planned: Vec<_> = decision.plan.placement.iter().map(|&t| Some(t)).collect();
    assert_eq!(ran, planned);
}

#[cfg(test)]
/// Every bit of a planned batch: its decision and report printed with
/// `{:?}` (an `f64` prints as the shortest string that parses back to
/// it, so distinct finite bit patterns, `-0.0` included, print apart)
/// and the saving's raw bits.
pub(crate) fn plan_bits(
    decision: &PlacementDecision,
    modeled: &RunReport,
    saving_s: f64,
) -> String {
    format!("{decision:?} {modeled:?} {:#x}", saving_s.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn graph(atoms: usize) -> TaskGraph {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1)
    }

    fn snapshot(cpu: f64, ndp: f64) -> ClusterSnapshot {
        ClusterSnapshot {
            cpu_reserved_s: cpu,
            ndp_reserved_s: ndp,
            shard_inflight: vec![1],
        }
    }

    #[test]
    fn cost_aware_never_loses_to_cpu_pinned() {
        for atoms in [16usize, 64, 256, 1024] {
            let d = plan_placement(&graph(atoms), PlacementPolicy::CostAware);
            assert!(
                d.modeled_time() <= d.cpu_pinned_time + 1e-12,
                "Si_{atoms}: {} vs cpu {}",
                d.modeled_time(),
                d.cpu_pinned_time
            );
            assert!(d.modeled_time() <= d.ndp_pinned_time + 1e-12);
        }
    }

    #[test]
    fn modeled_cost_scales_with_iterations() {
        let d = plan_placement(&graph(64), PlacementPolicy::CostAware);
        assert!((d.modeled_cost_s(10) - 10.0 * d.modeled_time()).abs() < 1e-12);
        assert_eq!(d.modeled_cost_s(1), d.modeled_time());
        assert_eq!(d.modeled_cost_s(0), d.modeled_time(), "clamped to ≥ 1");
    }

    #[test]
    fn busy_split_sums_to_compute_time() {
        for policy in PlacementPolicy::all() {
            let d = plan_placement(&graph(64), policy);
            let sum = d.cpu_busy + d.ndp_busy;
            assert!(
                (sum - d.plan.compute_time).abs() < 1e-9 * d.plan.compute_time.max(1e-12),
                "{policy:?}: {sum} vs {}",
                d.plan.compute_time
            );
        }
    }

    #[test]
    fn pinned_policies_use_one_side() {
        let cpu = plan_placement(&graph(64), PlacementPolicy::CpuPinned);
        assert_eq!(cpu.ndp_stage_count(), 0);
        assert_eq!(cpu.ndp_busy, 0.0);
        let ndp = plan_placement(&graph(64), PlacementPolicy::NdpPinned);
        assert_eq!(ndp.ndp_stage_count(), ndp.plan.placement.len());
        assert_eq!(ndp.cpu_busy, 0.0);
    }

    #[test]
    fn exhaustive_matches_cost_aware_on_chains() {
        // The LR-TDDFT pipeline is a chain, so the DP is optimal and the
        // brute-force search cannot beat it.
        let g = graph(64);
        let dp = plan_placement(&g, PlacementPolicy::CostAware);
        let ex = plan_placement(&g, PlacementPolicy::Exhaustive);
        let rel = (dp.modeled_time() - ex.modeled_time()).abs() / ex.modeled_time().max(1e-12);
        assert!(
            rel < 1e-9,
            "dp {} ex {}",
            dp.modeled_time(),
            ex.modeled_time()
        );
    }

    #[test]
    fn idle_cluster_reproduces_load_blind_decision() {
        // Inert inputs reduce every policy to its load-blind solo
        // decision: an idle cluster (or one with nothing reserved) and a
        // batch of 0 or 1 members. Under a busy cluster, 0 and 1 members
        // still agree with each other.
        let g = graph(256);
        let busy = snapshot(0.5, 2.0);
        for policy in PlacementPolicy::all() {
            let blind = plan_placement(&g, policy);
            assert!(!blind.shifted, "{policy:?}");
            assert_eq!(blind.cpu_load_s, 0.0);
            assert_eq!(blind.ndp_load_s, 0.0);
            for members in [0usize, 1] {
                for cluster in [ClusterSnapshot::idle(), snapshot(0.0, 0.0)] {
                    let d = plan_batch(&g, policy, &cluster, members).0;
                    assert_eq!(d, blind, "{policy:?} {cluster:?} members {members}");
                }
                assert_eq!(
                    plan_batch(&g, policy, &busy, members).0,
                    plan_batch(&g, policy, &busy, 1).0,
                    "{policy:?} busy members {members}"
                );
            }
        }
    }

    #[test]
    fn fused_placement_of_one_is_the_plain_placement() {
        // A batch of one member (0 is clamped to 1) decides exactly as a
        // solo job, on an idle and on a busy cluster.
        let g = graph(64);
        let busy = snapshot(0.5, 2.0);
        for policy in PlacementPolicy::all() {
            let plain = plan_placement(&g, policy);
            let plain_busy = plan_batch(&g, policy, &busy, 1).0;
            for members in [0usize, 1] {
                let d = plan_batch(&g, policy, &ClusterSnapshot::idle(), members).0;
                assert_eq!(d, plain, "{policy:?} members {members}");
                let d = plan_batch(&g, policy, &busy, members).0;
                assert_eq!(d, plain_busy, "{policy:?} busy members {members}");
            }
        }
    }

    #[test]
    fn ndp_contention_shifts_the_split_toward_cpu() {
        let g = graph(1024);
        let blind = plan_placement(&g, PlacementPolicy::CostAware);
        assert!(blind.ndp_stage_count() > 0, "idle plan uses the NDP side");
        // Concurrent batches hold many batch-equivalents of NDP busy
        // time; the loaded plan must evacuate (records the load + shift).
        let heavy = snapshot(0.0, 1e4 * blind.cpu_pinned_time);
        let (loaded, modeled, _) = plan_batch(&g, PlacementPolicy::CostAware, &heavy, 1);
        assert!(loaded.ndp_stage_count() < blind.ndp_stage_count());
        assert!(loaded.shifted);
        assert_eq!(loaded.ndp_load_s, heavy.ndp_reserved_s);
        // The modeled run times the shifted plan, not an idle re-plan.
        assert_one_plan(&loaded, &modeled);
        // Reported costs stay idle-machine numbers: the shifted plan
        // cannot look better than the idle optimum on those terms.
        assert!(loaded.modeled_time() >= blind.modeled_time() - 1e-12);
    }

    #[test]
    fn kept_machine_plans_as_a_fresh_one() {
        // Every batch plans on its size's kept machine; one built anew
        // is the reference. The two decide and report alike, bit for
        // bit, for every policy, size, fused width up to `serve_study`'s
        // ceiling and load, call after call.
        const SIZES: [usize; 6] = [8, 16, 64, 128, 256, 1024];
        let busy = snapshot(0.5, 2.0);
        let mut reference = Vec::new();
        for atoms in SIZES {
            let (g, fresh) = (graph(atoms), fresh_machine(atoms));
            for policy in PlacementPolicy::all() {
                for members in 1..=16 {
                    for cluster in [ClusterSnapshot::idle(), busy.clone()] {
                        let (d, m, saving) = plan_batch_on(&fresh, &g, policy, &cluster, members);
                        let want = plan_bits(&d, &m, saving);
                        for _ in 0..2 {
                            let (d, m, saving) = plan_batch(&g, policy, &cluster, members);
                            assert!(
                                plan_bits(&d, &m, saving) == want,
                                "Si_{atoms} {policy:?} x{members} {cluster:?}"
                            );
                        }
                        reference.push(want);
                    }
                }
            }
        }
        // Four threads filling one cold memo at once each get the
        // machine a lone build makes, whichever of them built it.
        let cold = Machines::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    let mut want = reference.iter();
                    for atoms in SIZES {
                        let (g, machine) = (graph(atoms), cold.get(atoms));
                        for policy in PlacementPolicy::all() {
                            for members in 1..=16 {
                                for cluster in [ClusterSnapshot::idle(), busy.clone()] {
                                    let (d, m, saving) =
                                        plan_batch_on(&machine, &g, policy, &cluster, members);
                                    assert!(
                                        Some(&plan_bits(&d, &m, saving)) == want.next(),
                                        "cold Si_{atoms} {policy:?} x{members} {cluster:?}"
                                    );
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn pinned_policies_never_shift_under_load() {
        let g = graph(64);
        let heavy = snapshot(1e6, 1e6);
        for policy in [PlacementPolicy::CpuPinned, PlacementPolicy::NdpPinned] {
            let d = plan_batch(&g, policy, &heavy, 1).0;
            assert!(!d.shifted, "{policy:?} shifted under load");
            assert_eq!(d.plan.placement, plan_placement(&g, policy).plan.placement);
        }
    }

    #[test]
    fn fused_placement_amortization_never_hurts() {
        let g = graph(64);
        let solo = plan_placement(&g, PlacementPolicy::CostAware);
        let mut last = solo.modeled_time();
        for members in [2usize, 4, 16] {
            let idle = ClusterSnapshot::idle();
            let (fused, modeled, saving_s) =
                plan_batch(&g, PlacementPolicy::CostAware, &idle, members);
            // The batch reports the plan it decided, and banks the gap
            // to the solo plan as its saving.
            assert_one_plan(&fused, &modeled);
            assert_eq!(
                saving_s,
                (solo.modeled_time() - fused.modeled_time()).max(0.0)
            );
            // Cheaper boundaries + amortized shared reads: per-member
            // modeled time is non-increasing in the batch width.
            assert!(
                fused.modeled_time() <= last + 1e-12 * last.max(1e-12),
                "members {members}: {} > {last}",
                fused.modeled_time()
            );
            last = fused.modeled_time();
            // The planner guarantee survives fusion.
            assert!(fused.modeled_time() <= fused.cpu_pinned_time + 1e-12);
            assert!(fused.modeled_time() <= fused.ndp_pinned_time + 1e-12);
        }
    }

    #[test]
    fn large_systems_favor_hybrid_placement() {
        let d = plan_placement(&graph(1024), PlacementPolicy::CostAware);
        let speedup = d.cpu_pinned_time / d.modeled_time();
        assert!(speedup > 1.2, "speedup {speedup}");
        let n = d.ndp_stage_count();
        assert!(
            n > 0 && n < d.plan.placement.len(),
            "hybrid expected, got {n}"
        );
    }
}
