//! Simulated-annealing placement with pluggable objectives.
//!
//! The chain DP in [`crate::planner`] is optimal — for *additive time* on
//! *chain* graphs. Two things break that structure:
//!
//! 1. **Non-additive objectives**: energy-delay product is a global
//!    product of two sums, so no per-edge decomposition exists for a DP.
//! 2. **Richer move sets**: segment flips explore placements a one-step
//!    DP transition relation cannot represent once the objective couples
//!    distant stages.
//!
//! A Metropolis annealer handles both. On the pure-time objective it
//! must (and in tests does) recover the DP optimum, which is exactly what
//! makes it trustworthy on the objectives the DP cannot touch.
//!
//! ## Example
//!
//! ```
//! use ndft_sched::anneal::{plan_anneal, AnnealOptions, Objective, PowerModel};
//! use ndft_sched::StaticCodeAnalyzer;
//! use ndft_dft::{build_task_graph, SiliconSystem};
//!
//! let sca = StaticCodeAnalyzer::paper_default();
//! let stages = build_task_graph(&SiliconSystem::large(), 1).stages;
//! let power = PowerModel::paper_default();
//! let out = plan_anneal(&stages, &sca, &power, Objective::Edp, &AnnealOptions::default());
//! assert!(out.plan.total_time() > 0.0);
//! ```

use crate::planner::{boundary_bytes, make_plan, Plan, StageTimer};
use crate::sca::Target;
use ndft_dft::KernelDescriptor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Busy-power and link-energy constants for placement energy accounting.
///
/// Datasheet-level numbers for the Table III machine: a mid-range Xeon
/// package for the 8-core host, the aggregate logic-layer budget of 16
/// stacks of wimpy cores (HMC-class logic layers ran ~5 W each, most of
/// it memory I/O we bill separately), and a SerDes host link at
/// ~10 pJ/bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Host CPU busy power, watts.
    pub cpu_watts: f64,
    /// Aggregate NDP busy power, watts.
    pub ndp_watts: f64,
    /// Energy per byte crossing the CPU↔NDP boundary, picojoules.
    pub link_pj_per_byte: f64,
}

impl PowerModel {
    /// The defaults described on the type.
    pub fn paper_default() -> Self {
        PowerModel {
            cpu_watts: 95.0,
            ndp_watts: 60.0,
            link_pj_per_byte: 80.0,
        }
    }

    /// Energy in joules of executing `stages` under `placement`:
    /// busy power × stage time, plus link energy for every boundary
    /// crossing.
    ///
    /// # Panics
    ///
    /// Panics if `placement.len() != stages.len()`.
    pub fn plan_energy(
        &self,
        stages: &[KernelDescriptor],
        placement: &[Target],
        timer: &dyn StageTimer,
    ) -> f64 {
        assert_eq!(placement.len(), stages.len(), "one target per stage");
        let busy: f64 = stages
            .iter()
            .zip(placement)
            .map(|(s, &t)| {
                let watts = match t {
                    Target::Cpu => self.cpu_watts,
                    Target::Ndp => self.ndp_watts,
                };
                timer.stage_time(s, t) * watts
            })
            .sum();
        let bounds = boundary_bytes(stages);
        let link: f64 = placement
            .windows(2)
            .zip(&bounds)
            .filter(|(w, _)| w[0] != w[1])
            .map(|(_, &b)| b as f64 * self.link_pj_per_byte * 1e-12)
            .sum();
        busy + link
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::paper_default()
    }
}

/// What the annealer minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// End-to-end time (the DP's objective; used for validation).
    Time,
    /// Total energy in joules.
    Energy,
    /// Energy-delay product (J·s) — the objective no chain DP can
    /// decompose.
    Edp,
}

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealOptions {
    /// Metropolis steps.
    pub iterations: usize,
    /// Initial temperature as a fraction of the starting objective value.
    pub initial_temp: f64,
    /// Final temperature as a fraction of the starting objective value.
    pub final_temp: f64,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            iterations: 20_000,
            initial_temp: 0.1,
            final_temp: 1e-5,
            seed: 0xdf7,
        }
    }
}

/// Outcome of one annealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealOutcome {
    /// The best placement found, with its time split.
    pub plan: Plan,
    /// Energy of the best placement, joules.
    pub energy_joules: f64,
    /// The objective that was minimized.
    pub objective: Objective,
    /// Its value at the best placement.
    pub objective_value: f64,
    /// Accepted Metropolis moves (diagnostic).
    pub accepted_moves: usize,
}

fn objective_value(
    objective: Objective,
    stages: &[KernelDescriptor],
    placement: &[Target],
    timer: &dyn StageTimer,
    power: &PowerModel,
) -> f64 {
    let (compute, overhead) = crate::planner::evaluate(stages, placement, timer);
    let time = compute + overhead;
    match objective {
        Objective::Time => time,
        Objective::Energy => power.plan_energy(stages, placement, timer),
        Objective::Edp => time * power.plan_energy(stages, placement, timer),
    }
}

/// Minimizes `objective` over CPU/NDP placements by simulated annealing
/// (single-stage flips plus occasional segment flips, geometric cooling,
/// best-so-far tracking).
///
/// Deterministic for a given [`AnnealOptions::seed`].
///
/// # Examples
///
/// ```
/// use ndft_sched::anneal::{plan_anneal, AnnealOptions, Objective, PowerModel};
/// use ndft_sched::{plan, PlanRequest, StaticCodeAnalyzer};
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let sca = StaticCodeAnalyzer::paper_default();
/// let stages = build_task_graph(&SiliconSystem::large(), 1).stages;
/// let sa = plan_anneal(
///     &stages,
///     &sca,
///     &PowerModel::paper_default(),
///     Objective::Time,
///     &AnnealOptions::default(),
/// );
/// // On the time objective the annealer recovers the DP optimum.
/// let dp = plan(&stages, &sca, &PlanRequest::default());
/// assert!((sa.plan.total_time() - dp.total_time()).abs() < 1e-12);
/// ```
pub fn plan_anneal(
    stages: &[KernelDescriptor],
    timer: &dyn StageTimer,
    power: &PowerModel,
    objective: Objective,
    opts: &AnnealOptions,
) -> AnnealOutcome {
    let n = stages.len();
    if n == 0 {
        let plan = make_plan(stages, Vec::new(), timer);
        return AnnealOutcome {
            plan,
            energy_joules: 0.0,
            objective,
            objective_value: 0.0,
            accepted_moves: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // Start from the greedy per-stage preference: a decent basin.
    let mut placement: Vec<Target> = stages
        .iter()
        .map(|s| {
            if timer.stage_time(s, Target::Ndp) < timer.stage_time(s, Target::Cpu) {
                Target::Ndp
            } else {
                Target::Cpu
            }
        })
        .collect();
    let mut value = objective_value(objective, stages, &placement, timer, power);
    let scale = value.max(f64::MIN_POSITIVE);
    let mut best = placement.clone();
    let mut best_value = value;
    let mut accepted = 0usize;
    let t0 = opts.initial_temp * scale;
    let t1 = opts.final_temp * scale;
    let steps = opts.iterations.max(1);
    for step in 0..steps {
        let temp = t0 * (t1 / t0).powf(step as f64 / steps as f64);
        // Move: flip one stage, or (1 in 4) flip a contiguous segment.
        let mut candidate = placement.clone();
        if n > 2 && rng.gen_ratio(1, 4) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            let (lo, hi) = (a.min(b), a.max(b));
            for t in candidate.iter_mut().take(hi + 1).skip(lo) {
                *t = t.other();
            }
        } else {
            let k = rng.gen_range(0..n);
            candidate[k] = candidate[k].other();
        }
        let cand_value = objective_value(objective, stages, &candidate, timer, power);
        let dv = cand_value - value;
        if dv <= 0.0 || rng.gen::<f64>() < (-dv / temp.max(f64::MIN_POSITIVE)).exp() {
            placement = candidate;
            value = cand_value;
            accepted += 1;
            if value < best_value {
                best_value = value;
                best = placement.clone();
            }
        }
    }
    let energy_joules = power.plan_energy(stages, &best, timer);
    let plan = make_plan(stages, best, timer);
    AnnealOutcome {
        plan,
        energy_joules,
        objective,
        objective_value: best_value,
        accepted_moves: accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, PlacementPolicy, PlanRequest};
    use crate::sca::StaticCodeAnalyzer;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn stages(atoms: usize) -> Vec<KernelDescriptor> {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages
    }

    fn sca() -> StaticCodeAnalyzer {
        StaticCodeAnalyzer::paper_default()
    }

    #[test]
    fn time_objective_recovers_dp_optimum() {
        for atoms in [64usize, 1024] {
            let s = stages(atoms);
            let t = sca();
            let dp = plan(&s, &t, &PlanRequest::default());
            let sa = plan_anneal(
                &s,
                &t,
                &PowerModel::paper_default(),
                Objective::Time,
                &AnnealOptions::default(),
            );
            assert!(
                (sa.plan.total_time() - dp.total_time()).abs() <= 1e-9 * dp.total_time().max(1e-12),
                "Si_{atoms}: SA {} vs DP {}",
                sa.plan.total_time(),
                dp.total_time()
            );
        }
    }

    #[test]
    fn energy_objective_beats_time_plan_on_energy() {
        let s = stages(1024);
        let t = sca();
        let power = PowerModel::paper_default();
        let time_plan = plan(&s, &t, &PlanRequest::default());
        let time_energy = power.plan_energy(&s, &time_plan.placement, &t);
        let sa = plan_anneal(&s, &t, &power, Objective::Energy, &AnnealOptions::default());
        assert!(
            sa.energy_joules <= time_energy * (1.0 + 1e-9),
            "energy plan {} J vs time plan {} J",
            sa.energy_joules,
            time_energy
        );
    }

    #[test]
    fn edp_plan_dominates_both_pure_plans_on_edp() {
        let s = stages(1024);
        let t = sca();
        let power = PowerModel::paper_default();
        let edp_of = |placement: &[Target]| {
            let (c, o) = crate::planner::evaluate(&s, placement, &t);
            (c + o) * power.plan_energy(&s, placement, &t)
        };
        let time_plan = plan(&s, &t, &PlanRequest::default());
        let energy_sa = plan_anneal(&s, &t, &power, Objective::Energy, &AnnealOptions::default());
        let edp_sa = plan_anneal(&s, &t, &power, Objective::Edp, &AnnealOptions::default());
        assert!(edp_sa.objective_value <= edp_of(&time_plan.placement) * (1.0 + 1e-9));
        assert!(edp_sa.objective_value <= edp_of(&energy_sa.plan.placement) * (1.0 + 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let s = stages(256);
        let t = sca();
        let power = PowerModel::paper_default();
        let opts = AnnealOptions {
            seed: 99,
            ..AnnealOptions::default()
        };
        let a = plan_anneal(&s, &t, &power, Objective::Edp, &opts);
        let b = plan_anneal(&s, &t, &power, Objective::Edp, &opts);
        assert_eq!(a.plan.placement, b.plan.placement);
        assert_eq!(a.objective_value, b.objective_value);
    }

    #[test]
    fn pinned_cpu_energy_is_busy_power_times_time() {
        let s = stages(64);
        let t = sca();
        let power = PowerModel::paper_default();
        let pinned = plan(
            &s,
            &t,
            &PlanRequest {
                policy: PlacementPolicy::CpuPinned,
                ..PlanRequest::default()
            },
        );
        let e = power.plan_energy(&s, &pinned.placement, &t);
        // No crossings ⇒ pure busy energy.
        assert!((e - pinned.compute_time * power.cpu_watts).abs() < 1e-9 * e);
    }

    #[test]
    fn empty_chain_is_trivial() {
        let t = sca();
        let out = plan_anneal(
            &[],
            &t,
            &PowerModel::paper_default(),
            Objective::Edp,
            &AnnealOptions::default(),
        );
        assert!(out.plan.placement.is_empty());
        assert_eq!(out.objective_value, 0.0);
    }

    #[test]
    fn ndp_heavy_plans_save_energy_on_memory_bound_chains() {
        // The NDP side is both faster on memory-bound stages *and* lower
        // power, so the energy-optimal plan should lean NDP.
        let s = stages(1024);
        let t = sca();
        let sa = plan_anneal(
            &s,
            &t,
            &PowerModel::paper_default(),
            Objective::Energy,
            &AnnealOptions::default(),
        );
        let ndp = sa
            .plan
            .placement
            .iter()
            .filter(|&&p| p == Target::Ndp)
            .count();
        assert!(
            ndp > sa.plan.placement.len() / 2,
            "{} of {}",
            ndp,
            sa.plan.placement.len()
        );
    }
}
