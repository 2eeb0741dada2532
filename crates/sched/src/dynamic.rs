//! Online rescheduling against runtime feedback.
//!
//! The paper's offloader is *static*: the SCA estimates every kernel's
//! time per target once, and the placement never changes (§IV-A-2). A
//! natural question the paper leaves open is how much that costs when the
//! SCA mispredicts. This module simulates the alternative: an online
//! scheduler that starts from the static plan, measures the stages it
//! actually runs, refines its estimates with an EWMA, and re-plans each
//! pipeline iteration — migrating a stage only when the predicted gain
//! clears a hysteresis threshold (to avoid ping-ponging on noise).
//!
//! The simulated "truth" is the SCA estimate distorted by a per-
//! (stage, target) multiplicative bias the SCA cannot see, plus
//! per-iteration noise. With zero bias the online scheduler must
//! reproduce the static plan and never migrate; with bias it should
//! converge towards the oracle plan (the DP run on the true times).
//!
//! The re-planning step is the same `(stage, last target)` chain DP as
//! [`crate::plan`] (see the [`crate::planner`] module docs for the
//! recurrence), run over the scheduler's *current estimate table*
//! instead of a [`crate::StageTimer`]. Note the relation to the
//! cross-job [`crate::TargetLoad`] bias: both mechanisms perturb the
//! per-target times the DP consumes, but they answer different
//! questions. A `TargetLoad` models *other* work contending for a
//! target right now (a serving-layer concern, applied per batch and
//! released when the batch completes); this module models the SCA
//! being *wrong about the machine itself*, corrected by measurement
//! over many iterations of one long-running pipeline. A production
//! runtime would compose them: EWMA-refined estimates dilated by live
//! cluster load.
//!
//! ## Example
//!
//! ```
//! use ndft_sched::dynamic::{simulate_online, DynamicOptions};
//! use ndft_sched::StaticCodeAnalyzer;
//! use ndft_dft::{build_task_graph, SiliconSystem};
//!
//! let sca = StaticCodeAnalyzer::paper_default();
//! let stages = build_task_graph(&SiliconSystem::large(), 1).stages;
//! let report = simulate_online(&stages, &sca, &DynamicOptions::default());
//! // Adaptation never ends up slower than never adapting.
//! assert!(report.converged_time() <= report.static_time * 1.02);
//! ```

use crate::cost::CostModel;
use crate::planner::boundary_bytes;
use crate::sca::{StaticCodeAnalyzer, Target};
use ndft_dft::KernelDescriptor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the online-scheduling simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicOptions {
    /// Std-dev of the log-normal per-(stage, target) bias the SCA does
    /// not know about (0 = the SCA is exact).
    pub mispredict_sigma: f64,
    /// Std-dev of per-iteration multiplicative measurement noise.
    pub noise_sigma: f64,
    /// Relative gain a migration must promise before it is taken.
    pub hysteresis: f64,
    /// EWMA weight of the newest measurement.
    pub ewma_alpha: f64,
    /// Per-stage probability of running on the non-planned target for one
    /// iteration to refresh the other side's estimate (ε-greedy
    /// exploration). Without it the scheduler can never discover that the
    /// other unit is secretly faster.
    pub explore_epsilon: f64,
    /// Pipeline iterations to simulate.
    pub iterations: usize,
    /// RNG seed; the simulation is deterministic per seed.
    pub seed: u64,
}

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            mispredict_sigma: 0.5,
            noise_sigma: 0.03,
            hysteresis: 0.05,
            ewma_alpha: 0.3,
            explore_epsilon: 0.08,
            iterations: 40,
            seed: 2025,
        }
    }
}

/// Outcome of one online-scheduling simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicReport {
    /// Mean per-iteration time of the frozen static plan under the truth.
    pub static_time: f64,
    /// Per-iteration times of the adaptive scheduler.
    pub dynamic_times: Vec<f64>,
    /// Per-iteration time of the oracle plan (DP on the true means).
    pub oracle_time: f64,
    /// Total stage migrations performed.
    pub migrations: usize,
    /// Final placement.
    pub final_placement: Vec<Target>,
    /// Whether the final placement equals the oracle's.
    pub matches_oracle: bool,
}

impl DynamicReport {
    /// Mean per-iteration time over the last quarter of the run — the
    /// post-convergence behaviour.
    pub fn converged_time(&self) -> f64 {
        let n = self.dynamic_times.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.dynamic_times[n - (n / 4).max(1)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Regret of the converged scheduler relative to the oracle
    /// (0 = oracle-optimal, 0.1 = 10 % slower).
    pub fn regret(&self) -> f64 {
        if self.oracle_time == 0.0 {
            0.0
        } else {
            self.converged_time() / self.oracle_time - 1.0
        }
    }
}

/// Fraction of a stage's work an exploration probe re-runs on the other
/// target (profiling a slice, not migrating the kernel).
const PROBE_FRACTION: f64 = 0.05;

/// Probes are skipped when the other target's estimate is more than this
/// factor worse than the current one: re-measuring a placement already
/// believed hopeless only burns time.
const PROBE_GATE: f64 = 8.0;

/// Approximately standard-normal deviate (Irwin–Hall with 12 uniforms);
/// good to a few permille in the body, which is all the noise model needs.
fn normalish(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// Chain DP over explicit per-(stage, target) estimates. Mirrors
/// [`crate::plan`]'s chain DP but takes a table instead of a
/// [`crate::planner::StageTimer`], which is what the online scheduler
/// updates in place.
fn dp_over_estimates(est: &[[f64; 2]], bounds: &[u64], cost: &CostModel) -> Vec<Target> {
    let n = est.len();
    if n == 0 {
        return Vec::new();
    }
    let targets = [Target::Cpu, Target::Ndp];
    let mut acc = [est[0][0], est[0][1]];
    let mut back: Vec<[usize; 2]> = vec![[0, 1]];
    for k in 1..n {
        let mut next = [f64::INFINITY; 2];
        let mut choice = [0usize; 2];
        for ti in 0..2 {
            for (pi, &prev) in acc.iter().enumerate() {
                let cross = if pi != ti {
                    cost.boundary(bounds[k - 1])
                } else {
                    0.0
                };
                let total = prev + cross + est[k][ti];
                if total < next[ti] {
                    next[ti] = total;
                    choice[ti] = pi;
                }
            }
        }
        acc = next;
        back.push(choice);
    }
    let mut ti = if acc[0] <= acc[1] { 0 } else { 1 };
    let mut placement = vec![Target::Cpu; n];
    for k in (0..n).rev() {
        placement[k] = targets[ti];
        if k > 0 {
            ti = back[k][ti];
        }
    }
    placement
}

fn tidx(t: Target) -> usize {
    match t {
        Target::Cpu => 0,
        Target::Ndp => 1,
    }
}

fn plan_time(placement: &[Target], truth: &[[f64; 2]], bounds: &[u64], cost: &CostModel) -> f64 {
    let exec: f64 = placement
        .iter()
        .enumerate()
        .map(|(k, &t)| truth[k][tidx(t)])
        .sum();
    let cross: f64 = placement
        .windows(2)
        .zip(bounds)
        .filter(|(w, _)| w[0] != w[1])
        .map(|(_, &b)| cost.boundary(b))
        .sum();
    exec + cross
}

/// Simulates the online scheduler against a biased-and-noisy truth and
/// reports how it compares to the frozen static plan and the oracle.
///
/// Deterministic for a given [`DynamicOptions::seed`].
///
/// # Examples
///
/// See the [module documentation](self).
pub fn simulate_online(
    stages: &[KernelDescriptor],
    sca: &StaticCodeAnalyzer,
    opts: &DynamicOptions,
) -> DynamicReport {
    let n = stages.len();
    let bounds = boundary_bytes(stages);
    let cost = &sca.cost;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Ground truth the SCA cannot see: per-(stage, target) bias.
    let mut truth = vec![[0.0f64; 2]; n];
    let mut estimates = vec![[0.0f64; 2]; n];
    for (k, stage) in stages.iter().enumerate() {
        for (ti, t) in [Target::Cpu, Target::Ndp].into_iter().enumerate() {
            let base = sca.estimate_time(stage, t);
            let bias = (opts.mispredict_sigma * normalish(&mut rng)).exp();
            truth[k][ti] = base * bias;
            estimates[k][ti] = base;
        }
    }

    // Static plan: DP over the (unbiased) SCA estimates, frozen forever.
    let static_placement = dp_over_estimates(&estimates, &bounds, cost);
    let static_time = plan_time(&static_placement, &truth, &bounds, cost);
    // Oracle: DP over the true means.
    let oracle_placement = dp_over_estimates(&truth, &bounds, cost);
    let oracle_time = plan_time(&oracle_placement, &truth, &bounds, cost);

    let mut placement = static_placement;
    let mut migrations = 0usize;
    let mut dynamic_times = Vec::with_capacity(opts.iterations);
    for _ in 0..opts.iterations {
        // Re-plan on current estimates; accept per-stage changes only if
        // the predicted gain clears the hysteresis bar.
        let proposal = dp_over_estimates(&estimates, &bounds, cost);
        let current_pred: f64 = placement
            .iter()
            .enumerate()
            .map(|(k, &t)| estimates[k][tidx(t)])
            .sum();
        let proposal_pred: f64 = proposal
            .iter()
            .enumerate()
            .map(|(k, &t)| estimates[k][tidx(t)])
            .sum();
        if proposal != placement && proposal_pred < current_pred * (1.0 - opts.hysteresis) {
            migrations += placement
                .iter()
                .zip(&proposal)
                .filter(|(a, b)| a != b)
                .count();
            placement = proposal;
        }
        // Execute one iteration under the truth with fresh noise; observe
        // the stages where they actually ran. ε-greedy exploration probes
        // the *other* unit with a small slice of the stage's work (the
        // way a runtime profiles a few tiles) rather than migrating the
        // whole kernel, so a probe of a 50×-slower target costs 5 % of
        // that, not 5000 %.
        let mut iter_time = 0.0;
        for (k, &t) in placement.iter().enumerate() {
            let noise = (opts.noise_sigma * normalish(&mut rng)).exp();
            let observed = truth[k][tidx(t)] * noise;
            iter_time += observed;
            let e = &mut estimates[k][tidx(t)];
            *e = (1.0 - opts.ewma_alpha) * *e + opts.ewma_alpha * observed;
            let o = t.other();
            let plausible = estimates[k][tidx(o)] < estimates[k][tidx(t)] * PROBE_GATE;
            if opts.explore_epsilon > 0.0 && plausible && rng.gen::<f64>() < opts.explore_epsilon {
                let probe_noise = (opts.noise_sigma * normalish(&mut rng)).exp();
                let probe = truth[k][tidx(o)] * probe_noise;
                iter_time += probe * PROBE_FRACTION;
                let e = &mut estimates[k][tidx(o)];
                *e = (1.0 - opts.ewma_alpha) * *e + opts.ewma_alpha * probe;
            }
        }
        iter_time += placement
            .windows(2)
            .zip(&bounds)
            .filter(|(w, _)| w[0] != w[1])
            .map(|(_, &b)| cost.boundary(b))
            .sum::<f64>();
        dynamic_times.push(iter_time);
    }
    let matches_oracle = placement == oracle_placement;
    DynamicReport {
        static_time,
        dynamic_times,
        oracle_time,
        migrations,
        final_placement: placement,
        matches_oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, PlanRequest, StageTimer};
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn stages(atoms: usize) -> Vec<KernelDescriptor> {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages
    }

    fn sca() -> StaticCodeAnalyzer {
        StaticCodeAnalyzer::paper_default()
    }

    #[test]
    fn exact_sca_means_no_migrations() {
        let s = stages(1024);
        let opts = DynamicOptions {
            mispredict_sigma: 0.0,
            noise_sigma: 0.0,
            explore_epsilon: 0.0,
            ..DynamicOptions::default()
        };
        let r = simulate_online(&s, &sca(), &opts);
        assert_eq!(r.migrations, 0);
        assert!(r.matches_oracle);
        assert!((r.converged_time() - r.static_time).abs() < 1e-9 * r.static_time);
    }

    #[test]
    fn internal_dp_matches_public_planner_on_sca_estimates() {
        let s = stages(256);
        let t = sca();
        let bounds = boundary_bytes(&s);
        let est: Vec<[f64; 2]> = s
            .iter()
            .map(|d| [t.stage_time(d, Target::Cpu), t.stage_time(d, Target::Ndp)])
            .collect();
        let internal = dp_over_estimates(&est, &bounds, &t.cost);
        let public = plan(&s, &t, &PlanRequest::default());
        assert_eq!(internal, public.placement);
    }

    #[test]
    fn adaptation_beats_static_under_heavy_misprediction() {
        // Three behaviours must hold across seeds: (1) adaptation never
        // costs more than a few percent of exploration overhead, (2) when
        // the oracle differs from the static plan the scheduler finds a
        // win on a decent fraction of seeds, (3) when there is no
        // headroom it leaves the placement alone.
        let s = stages(1024);
        let mut wins = 0;
        let mut headroom_seeds = 0;
        for seed in 0..8u64 {
            let opts = DynamicOptions {
                mispredict_sigma: 0.8,
                seed,
                iterations: 60,
                ..DynamicOptions::default()
            };
            let r = simulate_online(&s, &sca(), &opts);
            assert!(
                r.converged_time() <= r.static_time * 1.05,
                "seed {seed}: converged {} vs static {}",
                r.converged_time(),
                r.static_time
            );
            let headroom = r.oracle_time < r.static_time * 0.98;
            if headroom {
                headroom_seeds += 1;
            }
            if r.converged_time() < r.static_time * 0.98 {
                wins += 1;
                assert!(headroom, "seed {seed}: won without oracle headroom?");
            }
            if !headroom {
                assert_eq!(
                    r.migrations, 0,
                    "seed {seed}: migrated with nothing to gain"
                );
            }
        }
        assert!(
            headroom_seeds >= 3,
            "test needs mispredicted seeds ({headroom_seeds})"
        );
        assert!(wins >= 2, "adaptive won only {wins}/8 seeds");
    }

    #[test]
    fn converges_near_oracle() {
        let s = stages(1024);
        let opts = DynamicOptions {
            iterations: 80,
            ..DynamicOptions::default()
        };
        let r = simulate_online(&s, &sca(), &opts);
        // Within noise + exploration cost of the oracle.
        assert!(r.regret() < 0.25, "regret {}", r.regret());
    }

    #[test]
    fn hysteresis_suppresses_thrash() {
        let s = stages(256);
        let noisy = DynamicOptions {
            mispredict_sigma: 0.05,
            noise_sigma: 0.4,
            hysteresis: 0.0,
            iterations: 80,
            ..DynamicOptions::default()
        };
        let damped = DynamicOptions {
            hysteresis: 0.2,
            ..noisy
        };
        let free = simulate_online(&s, &sca(), &noisy);
        let held = simulate_online(&s, &sca(), &damped);
        assert!(
            held.migrations <= free.migrations,
            "hysteresis {} vs free {}",
            held.migrations,
            free.migrations
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = stages(64);
        let opts = DynamicOptions::default();
        let a = simulate_online(&s, &sca(), &opts);
        let b = simulate_online(&s, &sca(), &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn report_helpers_handle_empty() {
        let r = DynamicReport {
            static_time: 0.0,
            dynamic_times: vec![],
            oracle_time: 0.0,
            migrations: 0,
            final_placement: vec![],
            matches_oracle: true,
        };
        assert_eq!(r.converged_time(), 0.0);
        assert_eq!(r.regret(), 0.0);
    }
}
