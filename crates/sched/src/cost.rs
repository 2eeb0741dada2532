//! The scheduling-overhead cost model (paper Eq. 1) and the cross-job
//! load bias ([`TargetLoad`]) fed into the load-aware planners.
//!
//! ## Boundary costs (Eq. 1)
//!
//! `Scheduling Overhead = Σ_{i∈NDP} Σ_{j∈CPU} (DT(i,j) + CXT)` — every
//! placement boundary between adjacent code segments on different units
//! pays a data-transfer term proportional to the tensor crossing the
//! boundary plus a constant context-switch term. [`CostModel`] holds the
//! three constants (link bandwidth, link latency, context-switch cost)
//! and evaluates single boundaries ([`CostModel::boundary`]) or whole
//! placements ([`CostModel::scheduling_overhead`]).
//!
//! ## Cross-job load ([`TargetLoad`])
//!
//! The paper's planner places one task graph on an otherwise-idle
//! machine. A serving system runs many batches concurrently, and each
//! concurrent batch that has already reserved busy time on a target
//! makes that target effectively slower for everyone else. [`TargetLoad`]
//! captures that pressure: `cpu_reserved_s` / `ndp_reserved_s` are the
//! modeled busy seconds concurrent work currently holds on each unit,
//! and `reference_s` is the time scale of "one batch-equivalent" (the
//! caller's own pinned time is the natural choice). Under processor
//! sharing, a target already claimed by `k` batch-equivalents runs new
//! work `1 + k` times slower — exactly what [`TargetLoad::dilation`]
//! returns and what [`crate::plan`] multiplies into per-stage time
//! estimates when a [`crate::PlanRequest`] carries a load.

use crate::sca::Target;
use serde::{Deserialize, Serialize};

/// Cost model constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Bandwidth of the CPU↔NDP path (the off-chip host link), bytes/s.
    pub transfer_bandwidth: f64,
    /// One-way transfer latency in seconds.
    pub transfer_latency: f64,
    /// Context-switch cost per boundary in seconds (register/thread state
    /// synchronization — the paper's constant `CXT`).
    pub context_switch: f64,
}

impl CostModel {
    /// Constants for the paper's Table III machine: a 64 GB/s host link
    /// with 40 ns latency, and a 20 µs offload context switch (kernel
    /// launch + state hand-off, typical for NDP offload runtimes).
    pub fn paper_default() -> Self {
        CostModel {
            transfer_bandwidth: 64e9,
            transfer_latency: 40e-9,
            context_switch: 20e-6,
        }
    }

    /// The data-transfer term `DT` for `bytes` crossing the boundary.
    pub fn dt(&self, bytes: u64) -> f64 {
        self.transfer_latency + bytes as f64 / self.transfer_bandwidth
    }

    /// Full cost of one boundary: `DT + CXT`.
    pub fn boundary(&self, bytes: u64) -> f64 {
        self.dt(bytes) + self.context_switch
    }

    /// The data-transfer term for a *fused* boundary: `k` members' tensors
    /// of `bytes` each cross in one coalesced transfer, paying the wire
    /// latency once. `fused_dt(b, 1) == dt(b)` exactly, and
    /// `fused_dt(b, k) ≤ k · dt(b)` — fusion amortizes latency, never
    /// payload bytes.
    fn fused_dt(&self, bytes: u64, members: usize) -> f64 {
        let k = members.max(1) as f64;
        self.transfer_latency + k * bytes as f64 / self.transfer_bandwidth
    }

    /// Full cost of one fused boundary: one coalesced transfer plus one
    /// context switch for the whole batch (instead of `k` of each).
    /// Equals [`CostModel::boundary`] at `members = 1`.
    pub fn fused_boundary(&self, bytes: u64, members: usize) -> f64 {
        self.fused_dt(bytes, members) + self.context_switch
    }

    /// The per-member view of this model under `k`-way fusion: latency and
    /// context-switch constants are divided by `k` (each member pays its
    /// share of the once-per-batch costs) while bandwidth is untouched
    /// (payload bytes are never amortized). For any `bytes`,
    /// `amortized(k).boundary(bytes) == fused_boundary(bytes, k) / k`
    /// exactly, and `amortized(1)` is the identity.
    ///
    /// [`crate::plan`] consumes this view for a request's `members`, so
    /// the per-member DP machinery prices fused batches without new code
    /// paths.
    pub fn amortized(&self, members: usize) -> CostModel {
        let k = members.max(1) as f64;
        CostModel {
            transfer_bandwidth: self.transfer_bandwidth,
            transfer_latency: self.transfer_latency / k,
            context_switch: self.context_switch / k,
        }
    }

    /// Eq. 1 evaluated over a whole placement: the sum of boundary costs
    /// for every adjacent pair placed on different units.
    ///
    /// `boundary_bytes[k]` is the tensor flowing from stage `k` to stage
    /// `k+1`; `crossings[k]` is true when those stages sit on different
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn scheduling_overhead(&self, boundary_bytes: &[u64], crossings: &[bool]) -> f64 {
        assert_eq!(
            boundary_bytes.len(),
            crossings.len(),
            "boundary slice mismatch"
        );
        // fold from +0.0: `Iterator::sum::<f64>()` of an empty iterator
        // yields -0.0, which leaks into reports as "-0.000".
        boundary_bytes
            .iter()
            .zip(crossings)
            .filter(|(_, &c)| c)
            .map(|(&b, _)| self.boundary(b))
            .fold(0.0, |acc, x| acc + x)
    }
}

/// Cross-job utilization pressure on the two execution targets.
///
/// Produced by a serving layer's global utilization view (reserved
/// modeled busy time per target across in-flight batches) and consumed
/// by [`crate::plan`] through [`crate::PlanRequest::load`], which
/// dilates per-target stage-time estimates by [`TargetLoad::dilation`]
/// so concurrent batches spread across targets instead of piling onto
/// the one an isolated plan would pick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetLoad {
    /// Modeled busy seconds concurrent work has reserved on the host CPU.
    pub cpu_reserved_s: f64,
    /// Modeled busy seconds concurrent work has reserved on the NDP stacks.
    pub ndp_reserved_s: f64,
    /// Seconds of reserved time that count as one "batch-equivalent" of
    /// pressure — the caller's own natural time scale (a serving layer
    /// uses the planned graph's faster pinned time). Non-positive ⇒ the
    /// load is ignored (dilation 1).
    pub reference_s: f64,
}

impl TargetLoad {
    /// The idle cluster: no reservations, no bias. The default
    /// [`crate::PlanRequest`] plans under this.
    pub const NONE: TargetLoad = TargetLoad {
        cpu_reserved_s: 0.0,
        ndp_reserved_s: 0.0,
        reference_s: 0.0,
    };

    /// A load view with negatives clamped away (reservations are sums of
    /// modeled times and must never be negative).
    pub fn new(cpu_reserved_s: f64, ndp_reserved_s: f64, reference_s: f64) -> Self {
        TargetLoad {
            cpu_reserved_s: cpu_reserved_s.max(0.0),
            ndp_reserved_s: ndp_reserved_s.max(0.0),
            reference_s: reference_s.max(0.0),
        }
    }

    /// True when the load cannot bias a plan: nothing reserved, or no
    /// reference scale to measure the reservations against.
    pub fn is_idle(&self) -> bool {
        self.reference_s <= 0.0 || (self.cpu_reserved_s <= 0.0 && self.ndp_reserved_s <= 0.0)
    }

    /// Reserved busy seconds on `target`.
    fn reserved(&self, target: Target) -> f64 {
        match target {
            Target::Cpu => self.cpu_reserved_s,
            Target::Ndp => self.ndp_reserved_s,
        }
    }

    /// Dimensionless pressure on `target`: reserved batch-equivalents
    /// (`reserved / reference`, 0 when idle).
    fn pressure(&self, target: Target) -> f64 {
        if self.reference_s <= 0.0 {
            0.0
        } else {
            (self.reserved(target) / self.reference_s).max(0.0)
        }
    }

    /// Processor-sharing slowdown for new work on `target`: a unit
    /// already claimed by `k` batch-equivalents runs new work `1 + k`
    /// times slower. Always ≥ 1.
    pub fn dilation(&self, target: Target) -> f64 {
        1.0 + self.pressure(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_load_has_unit_dilation() {
        let l = TargetLoad::NONE;
        assert!(l.is_idle());
        assert_eq!(l.dilation(Target::Cpu), 1.0);
        assert_eq!(l.dilation(Target::Ndp), 1.0);
        // Reservations without a reference scale are also inert.
        let unscaled = TargetLoad::new(5.0, 3.0, 0.0);
        assert!(unscaled.is_idle());
        assert_eq!(unscaled.dilation(Target::Ndp), 1.0);
    }

    #[test]
    fn pressure_counts_batch_equivalents() {
        let l = TargetLoad::new(1.0, 3.0, 2.0);
        assert!(!l.is_idle());
        assert!((l.pressure(Target::Cpu) - 0.5).abs() < 1e-15);
        assert!((l.pressure(Target::Ndp) - 1.5).abs() < 1e-15);
        assert!((l.dilation(Target::Ndp) - 2.5).abs() < 1e-15);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let l = TargetLoad::new(-1.0, -2.0, -3.0);
        assert_eq!(l, TargetLoad::new(0.0, 0.0, 0.0));
        assert!(l.is_idle());
        assert_eq!(l.dilation(Target::Cpu), 1.0);
    }

    #[test]
    fn dt_scales_with_bytes() {
        let m = CostModel::paper_default();
        let small = m.dt(1 << 10);
        let large = m.dt(1 << 30);
        assert!(large > 1000.0 * small);
    }

    #[test]
    fn boundary_includes_context_switch() {
        let m = CostModel::paper_default();
        assert!((m.boundary(0) - (m.transfer_latency + m.context_switch)).abs() < 1e-15);
    }

    #[test]
    fn overhead_counts_only_crossings() {
        let m = CostModel::paper_default();
        let bytes = [1000, 2000, 3000];
        let none = m.scheduling_overhead(&bytes, &[false, false, false]);
        assert_eq!(none, 0.0);
        let one = m.scheduling_overhead(&bytes, &[false, true, false]);
        assert!((one - m.boundary(2000)).abs() < 1e-15);
        let all = m.scheduling_overhead(&bytes, &[true, true, true]);
        assert!(all > one);
    }

    #[test]
    fn fused_dt_amortizes_latency_only() {
        let m = CostModel::paper_default();
        for bytes in [0u64, 1 << 10, 1 << 30] {
            assert_eq!(m.fused_dt(bytes, 1), m.dt(bytes));
            assert_eq!(m.fused_boundary(bytes, 1), m.boundary(bytes));
            for k in [2usize, 8, 64] {
                let fused = m.fused_dt(bytes, k);
                let solo = k as f64 * m.dt(bytes);
                assert!(fused <= solo + 1e-18);
                // Exactly (k-1) latencies saved (up to cancellation noise
                // relative to the magnitudes being subtracted).
                let saved = solo - fused;
                let expect = (k - 1) as f64 * m.transfer_latency;
                assert!((saved - expect).abs() < 1e-12 * solo.max(1e-18));
            }
        }
    }

    #[test]
    fn amortized_model_is_the_per_member_view() {
        let m = CostModel::paper_default();
        assert_eq!(m.amortized(1), m);
        assert_eq!(m.amortized(0), m); // clamped to 1
        for k in [2usize, 5, 16] {
            let per = m.amortized(k);
            assert_eq!(per.transfer_bandwidth, m.transfer_bandwidth);
            for bytes in [0u64, 4096, 1 << 24] {
                let lhs = per.boundary(bytes);
                let rhs = m.fused_boundary(bytes, k) / k as f64;
                assert!((lhs - rhs).abs() < 1e-15 * rhs.max(1e-30));
                assert!(lhs <= m.boundary(bytes));
            }
        }
    }

    #[test]
    fn gigabyte_transfer_takes_tens_of_ms() {
        let m = CostModel::paper_default();
        let t = m.dt(1 << 30);
        assert!(
            t > 0.01 && t < 0.05,
            "1 GiB over 64 GB/s ≈ 16.8 ms, got {t}"
        );
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_slices_panic() {
        let m = CostModel::paper_default();
        let _ = m.scheduling_overhead(&[1, 2], &[true]);
    }
}
