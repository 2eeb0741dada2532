//! Design-space exploration of the CPU-NDP architecture.
//!
//! The paper evaluates one Table III configuration; a natural extension
//! (and the kind of sensitivity analysis an architecture reviewer asks
//! for) is to sweep the structural parameters and watch the speedup
//! respond: stack count (aggregate bandwidth + mesh size), host-link
//! bandwidth (the CPU side's lifeline), and NDP compute width. Every
//! point re-measures its own calibration through the simulator — nothing
//! is interpolated.

use crate::calib;
use crate::engine::{run_cpu_baseline, MeasuredTimer, NdftOptions, RunReport};
use ndft_dft::{build_task_graph, SiliconSystem};
use ndft_sched::{plan, PlanRequest};
use ndft_sim::{Calibration, SystemConfig};
use serde::{Deserialize, Serialize};

/// One evaluated configuration of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Swept-parameter label (e.g. `"16 stacks"`).
    pub label: String,
    /// Swept-parameter value (stacks, GB/s, …).
    pub value: f64,
    /// NDFT total runtime on this configuration, seconds.
    pub ndft_total: f64,
    /// Speedup over the (fixed) CPU baseline.
    pub speedup_vs_cpu: f64,
}

/// Near-square mesh dimensions for a stack count.
fn mesh_dims(stacks: usize) -> (usize, usize) {
    let mut w = (stacks as f64).sqrt().floor() as usize;
    while w > 1 && !stacks.is_multiple_of(w) {
        w -= 1;
    }
    (w.max(1), stacks / w.max(1))
}

/// Builds a Table III variant with a different stack count (per-stack
/// resources unchanged, so capacity and bandwidth scale with stacks).
pub fn config_with_stacks(stacks: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table3();
    let per_stack_capacity = cfg.memory.capacity_bytes / cfg.ndp.stacks;
    cfg.ndp.stacks = stacks;
    let (w, h) = mesh_dims(stacks);
    cfg.mesh.width = w;
    cfg.mesh.height = h;
    cfg.memory.capacity_bytes = per_stack_capacity * stacks;
    cfg
}

/// Builds a Table III variant with a different host-link bandwidth.
pub fn config_with_host_link(bandwidth: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table3();
    cfg.host_link.bandwidth = bandwidth;
    cfg
}

fn evaluate(
    system: &SiliconSystem,
    cfg: &SystemConfig,
    cpu: &RunReport,
    label: String,
    value: f64,
) -> DesignPoint {
    let cal = Calibration::measure(cfg, calib::baseline_config(), 7);
    let graph = build_task_graph(system, 1);
    let machine = MeasuredTimer::new(cfg, &cal, system.atoms(), NdftOptions::default());
    let plan = plan(&graph.stages, &machine, &PlanRequest::default());
    let ndft = machine.report(&graph, &plan);
    DesignPoint {
        label,
        value,
        ndft_total: ndft.total(),
        speedup_vs_cpu: cpu.total() / ndft.total(),
    }
}

/// Sweeps the stack count.
pub fn sweep_stacks(system: &SiliconSystem, counts: &[usize]) -> Vec<DesignPoint> {
    let graph = build_task_graph(system, 1);
    let cpu = run_cpu_baseline(&graph);
    counts
        .iter()
        .map(|&n| {
            evaluate(
                system,
                &config_with_stacks(n),
                &cpu,
                format!("{n} stacks"),
                n as f64,
            )
        })
        .collect()
}

/// Sweeps the host-link bandwidth (GB/s values).
pub fn sweep_host_link(system: &SiliconSystem, gbps: &[f64]) -> Vec<DesignPoint> {
    let graph = build_task_graph(system, 1);
    let cpu = run_cpu_baseline(&graph);
    gbps.iter()
        .map(|&g| {
            evaluate(
                system,
                &config_with_host_link(g * 1e9),
                &cpu,
                format!("{g:.0} GB/s link"),
                g,
            )
        })
        .collect()
}

/// Renders a sweep as a text table.
pub fn render_sweep(title: &str, points: &[DesignPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "--- design-space sweep: {title} ---");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12}",
        "config", "NDFT total", "vs CPU"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>11.2}x",
            p.label,
            crate::report::fmt_time(p.ndft_total),
            p.speedup_vs_cpu
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_stacks_help_monotonically() {
        let pts = sweep_stacks(&SiliconSystem::large(), &[4, 8, 16]);
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(
                w[1].speedup_vs_cpu > w[0].speedup_vs_cpu,
                "{} → {}",
                w[0].label,
                w[1].label
            );
        }
    }

    #[test]
    fn stack_scaling_has_diminishing_returns() {
        let pts = sweep_stacks(&SiliconSystem::large(), &[4, 8, 16, 32]);
        let gain1 = pts[1].speedup_vs_cpu / pts[0].speedup_vs_cpu;
        let gain3 = pts[3].speedup_vs_cpu / pts[2].speedup_vs_cpu;
        assert!(
            gain3 < gain1,
            "doubling 16→32 must pay less than 4→8: {gain1} vs {gain3}"
        );
    }

    #[test]
    fn faster_host_link_never_hurts() {
        let pts = sweep_host_link(&SiliconSystem::large(), &[16.0, 64.0, 256.0]);
        for w in pts.windows(2) {
            assert!(
                w[1].speedup_vs_cpu >= w[0].speedup_vs_cpu * 0.999,
                "{} → {}",
                w[0].label,
                w[1].label
            );
        }
    }

    #[test]
    fn mesh_dims_cover_counts() {
        assert_eq!(mesh_dims(4), (2, 2));
        assert_eq!(mesh_dims(8), (2, 4));
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(32), (4, 8));
        let (w, h) = mesh_dims(7);
        assert_eq!(w * h, 7);
    }

    #[test]
    fn rendering_contains_every_point() {
        let pts = sweep_stacks(&SiliconSystem::small(), &[8, 16]);
        let text = render_sweep("stacks", &pts);
        assert!(text.contains("8 stacks"));
        assert!(text.contains("16 stacks"));
    }
}
