//! Roofline model (paper Fig. 4).
//!
//! Classifies kernels by arithmetic intensity against a machine's compute
//! and bandwidth ceilings, and generates the Fig. 4 dataset: every
//! LR-TDDFT kernel at the small (Si_64) and large (Si_1024) system sizes.

use ndft_dft::{build_task_graph, KernelDescriptor, KernelKind, SiliconSystem};
use serde::{Deserialize, Serialize};

/// Whether a kernel is limited by compute or memory on a given machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Boundedness {
    /// Below the ridge point: bandwidth-limited.
    MemoryBound,
    /// Above the ridge point: FLOP-limited.
    ComputeBound,
}

/// A machine's roofline: peak FLOP/s and sustained bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Peak double-precision FLOP/s.
    pub peak_flops: f64,
    /// Sustained memory bandwidth in bytes/s.
    pub peak_bandwidth: f64,
}

impl Roofline {
    /// Creates a roofline.
    ///
    /// # Panics
    ///
    /// Panics if either peak is non-positive.
    pub fn new(peak_flops: f64, peak_bandwidth: f64) -> Self {
        assert!(
            peak_flops > 0.0 && peak_bandwidth > 0.0,
            "peaks must be positive"
        );
        Roofline {
            peak_flops,
            peak_bandwidth,
        }
    }

    /// The ridge point in FLOP/byte: intensities below it are
    /// memory-bound.
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops / self.peak_bandwidth
    }

    /// Attainable FLOP/s at a given arithmetic intensity.
    fn attainable(&self, ai: f64) -> f64 {
        (ai * self.peak_bandwidth).min(self.peak_flops)
    }

    /// Classifies an arithmetic intensity.
    pub fn classify(&self, ai: f64) -> Boundedness {
        if ai < self.ridge_point() {
            Boundedness::MemoryBound
        } else {
            Boundedness::ComputeBound
        }
    }
}

/// One point of the Fig. 4 scatter plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Kernel family.
    pub kind: KernelKind,
    /// System label (`Si_64` / `Si_1024`).
    pub system: String,
    /// Arithmetic intensity (x-axis), FLOP/byte.
    pub intensity: f64,
    /// Attainable performance (y-axis), GFLOP/s.
    pub attainable_gflops: f64,
    /// Classification on the given roofline.
    pub boundedness: Boundedness,
}

/// Kernels plotted in the paper's Fig. 4.
const FIG4_KERNELS: [KernelKind; 4] = [
    KernelKind::Fft,
    KernelKind::FaceSplitting,
    KernelKind::Gemm,
    KernelKind::Syevd,
];

/// Generates the Fig. 4 dataset: the four headline kernels at the small
/// and large system sizes, classified on `machine`.
///
/// # Examples
///
/// ```
/// use ndft_sched::roofline::{fig4_points, Boundedness, Roofline};
/// use ndft_dft::KernelKind;
///
/// // The paper's CPU baseline: ~461 GF/s, ~148 GB/s.
/// let points = fig4_points(&Roofline::new(461e9, 148e9));
/// let fft_large = points.iter()
///     .find(|p| p.kind == KernelKind::Fft && p.system == "Si_1024")
///     .unwrap();
/// assert_eq!(fft_large.boundedness, Boundedness::MemoryBound);
/// ```
pub fn fig4_points(machine: &Roofline) -> Vec<RooflinePoint> {
    let mut out = Vec::new();
    for sys in [SiliconSystem::small(), SiliconSystem::large()] {
        let graph = build_task_graph(&sys, 1);
        for kind in FIG4_KERNELS {
            let stages = graph.stages_of(kind);
            let stage: &KernelDescriptor = stages.first().expect("kernel present in graph");
            let ai = stage.arithmetic_intensity();
            out.push(RooflinePoint {
                kind,
                system: sys.label(),
                intensity: ai,
                attainable_gflops: machine.attainable(ai) / 1e9,
                boundedness: machine.classify(ai),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Roofline {
        Roofline::new(461e9, 148e9)
    }

    #[test]
    fn ridge_point_divides_classes() {
        let r = cpu();
        let ridge = r.ridge_point();
        assert_eq!(r.classify(ridge * 0.5), Boundedness::MemoryBound);
        assert_eq!(r.classify(ridge * 2.0), Boundedness::ComputeBound);
    }

    #[test]
    fn attainable_saturates_at_peak() {
        let r = cpu();
        assert!((r.attainable(1e6) - r.peak_flops).abs() < 1.0);
        assert!(r.attainable(0.1) < r.peak_flops);
    }

    #[test]
    fn fig4_reproduces_paper_observations() {
        // Paper Fig. 4 key observations on the CPU roofline:
        // (1) FFT memory-bound at both sizes.
        // (2) GEMM compute-bound at both sizes and more so when large.
        // (3) SYEVD memory-bound small, compute-bound large.
        // (4) Face-splitting deeply memory-bound at both sizes.
        let points = fig4_points(&cpu());
        let get = |kind: KernelKind, sys: &str| {
            points
                .iter()
                .find(|p| p.kind == kind && p.system == sys)
                .unwrap_or_else(|| panic!("{kind:?} {sys}"))
        };
        assert_eq!(
            get(KernelKind::Fft, "Si_64").boundedness,
            Boundedness::MemoryBound
        );
        assert_eq!(
            get(KernelKind::Fft, "Si_1024").boundedness,
            Boundedness::MemoryBound
        );
        assert_eq!(
            get(KernelKind::Gemm, "Si_64").boundedness,
            Boundedness::ComputeBound
        );
        assert_eq!(
            get(KernelKind::Gemm, "Si_1024").boundedness,
            Boundedness::ComputeBound
        );
        assert!(
            get(KernelKind::Gemm, "Si_1024").intensity > get(KernelKind::Gemm, "Si_64").intensity
        );
        assert_eq!(
            get(KernelKind::Syevd, "Si_64").boundedness,
            Boundedness::MemoryBound
        );
        assert_eq!(
            get(KernelKind::Syevd, "Si_1024").boundedness,
            Boundedness::ComputeBound
        );
        assert_eq!(
            get(KernelKind::FaceSplitting, "Si_64").boundedness,
            Boundedness::MemoryBound
        );
        assert!(get(KernelKind::FaceSplitting, "Si_1024").intensity < 0.2);
    }

    #[test]
    fn fig4_has_eight_points() {
        assert_eq!(fig4_points(&cpu()).len(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_peak_rejected() {
        let _ = Roofline::new(0.0, 1.0);
    }
}
