//! LR-TDDFT workload characterization: the kernel descriptors that drive
//! the roofline analysis and the CPU–NDP timing models.
//!
//! Each pipeline stage of Fig. 1 of the paper is summarized as a
//! [`KernelDescriptor`]: exact FLOP and byte counts (from
//! `ndft-numerics`' analytic cost formulas), the dominant access-pattern
//! mix, the working-set size (which decides whether the CPU baseline's
//! LLC can hold it), the degree of parallelism (which decides whether 256
//! wimpy NDP cores can be fed), and the communication volume (for the
//! all-to-all phases).

use crate::system::SiliconSystem;
use ndft_numerics::{syevd_cost, KernelCost, C64_BYTES};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kernel families of the LR-TDDFT pipeline (paper Fig. 1 / Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Point-to-point multiplication `P_vc(r) = ψ_v*(r)·ψ_c(r)`.
    FaceSplitting,
    /// Batched 3-D FFTs of the transition densities.
    Fft,
    /// Reciprocal-space response kernels (Hartree `4π/G²` + XC).
    ApplyKernel,
    /// `MPI_Alltoall` data transposition.
    Alltoall,
    /// Dense contraction building the response Hamiltonian.
    Gemm,
    /// Dense symmetric eigensolve of the Hamiltonian.
    Syevd,
    /// Nonlocal pseudopotential application / wavefunction update.
    PseudoUpdate,
}

impl KernelKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::FaceSplitting => "Face-splitting Product",
            KernelKind::Fft => "FFT",
            KernelKind::ApplyKernel => "Apply f_Hxc",
            KernelKind::Alltoall => "Global Comm",
            KernelKind::Gemm => "GEMM",
            KernelKind::Syevd => "SYEVD",
            KernelKind::PseudoUpdate => "Pseudopotential",
        }
    }

    /// All kinds, in pipeline order.
    pub fn all() -> [KernelKind; 7] {
        [
            KernelKind::PseudoUpdate,
            KernelKind::FaceSplitting,
            KernelKind::Alltoall,
            KernelKind::Fft,
            KernelKind::ApplyKernel,
            KernelKind::Gemm,
            KernelKind::Syevd,
        ]
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload summary of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDescriptor {
    /// Kernel family.
    pub kind: KernelKind,
    /// Human-readable stage name (e.g. `"FFT forward"`).
    pub name: String,
    /// FLOPs and streamed bytes.
    pub cost: KernelCost,
    /// Fraction of memory traffic that is unit-stride streaming (the rest
    /// is strided, e.g. FFT transpose passes).
    pub stream_fraction: f64,
    /// Fraction of traffic that is random-access gathers (pseudopotential
    /// projector lookups); carved out of the non-stream part.
    pub random_fraction: f64,
    /// Resident working set in bytes (decides LLC behaviour).
    pub working_set: u64,
    /// Independent work items (orbital pairs, matrix panels…): bounds how
    /// many cores can be fed.
    pub parallelism: u64,
    /// Bytes exchanged between processes (all-to-all volume); zero for
    /// compute stages.
    pub comm_volume: u64,
}

impl KernelDescriptor {
    /// Arithmetic intensity in FLOP/byte (roofline x-coordinate).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.cost.arithmetic_intensity()
    }
}

/// The whole LR-TDDFT calculation as an ordered stage list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    /// The physical system this graph was generated for.
    pub system: SiliconSystem,
    /// Stages in execution order (one response iteration, which the
    /// engine multiplies by `iterations`).
    pub stages: Vec<KernelDescriptor>,
    /// Response/Davidson iterations to run.
    pub iterations: usize,
}

impl TaskGraph {
    /// Total cost across all stages and iterations.
    pub fn total_cost(&self) -> KernelCost {
        let one: KernelCost = self.stages.iter().map(|s| s.cost).sum();
        one * self.iterations as u64
    }

    /// Stage descriptors of a given kind.
    pub fn stages_of(&self, kind: KernelKind) -> Vec<&KernelDescriptor> {
        self.stages.iter().filter(|s| s.kind == kind).collect()
    }
}

/// Builds the LR-TDDFT task graph for a silicon system.
///
/// The per-stage formulas follow Fig. 1 of the paper; see DESIGN.md §4 for
/// the workload-parameter derivation.
///
/// # Examples
///
/// ```
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let graph = build_task_graph(&SiliconSystem::small(), 1);
/// assert!(graph.stages.len() >= 8);
/// // LR-TDDFT is fundamentally memory-bound: the face-splitting product
/// // sits far below 1 FLOP/byte.
/// let fs = &graph.stages_of(ndft_dft::KernelKind::FaceSplitting)[0];
/// assert!(fs.arithmetic_intensity() < 0.5);
/// ```
pub fn build_task_graph(system: &SiliconSystem, iterations: usize) -> TaskGraph {
    build_task_graph_fused(system, iterations, 1)
}

/// The per-member task graph of a `members`-way fused same-class batch.
///
/// Cross-job fusion executes K jobs that share the *system-resident*
/// operands, so each member's descriptor charges those operands' DRAM
/// traffic at `1/K` share (ceiling division — never undercounting):
///
/// * the pseudopotential **projector tables** (the dominant shared
///   operand — geometry-only, identical for every member), and
/// * the FFT **plan/twiddle tables** re-read per grid when each member
///   transforms alone but resident across a [`Fft3Plan::forward_batch`]
///   style plan-reuse sweep (cf. [`Fft3Plan::shared_table_bytes`]).
///
/// Per-member operands (orbitals, transition densities, the GEMM's `P`
/// and `fP`, the eigenproblem) are **not** amortized — fusion saves
/// traffic only where members genuinely share bytes. FLOPs are never
/// amortized. `build_task_graph_fused(s, it, 1)` equals
/// [`build_task_graph`] exactly.
///
/// [`Fft3Plan::forward_batch`]: ndft_numerics::Fft3Plan::forward_batch
/// [`Fft3Plan::shared_table_bytes`]: ndft_numerics::Fft3Plan::shared_table_bytes
pub fn build_task_graph_fused(
    system: &SiliconSystem,
    iterations: usize,
    members: usize,
) -> TaskGraph {
    let members = members.max(1) as u64;
    let nr = system.grid().len() as u64;
    let ng = system.gsphere_len() as u64;
    let nv = system.valence_window() as u64;
    let nc = system.conduction_window() as u64;
    let npair = system.pair_count() as u64;
    let natoms = system.atoms() as u64;
    let nbands = (nv + nc).max(1);

    let mut stages = Vec::new();

    // --- Pseudopotential application: update the windowed orbitals with
    // the nonlocal projectors (Algorithm 1). For each band and atom,
    // gather ~`SPHERE_PTS` grid values, contract with `N_PROJ` projectors,
    // scatter back.
    let sphere_pts = crate::pseudo::SPHERE_PTS as u64;
    let nproj = crate::pseudo::N_PROJ as u64;
    let pseudo_flops = nbands * natoms * nproj * sphere_pts * 4; // dot + axpy
    let pseudo_tables = natoms * nproj * sphere_pts * 8; // projector tables, geometry-only
    let pseudo_bytes = nbands * natoms * sphere_pts * (C64_BYTES + 4) // ψ gather + index
        + pseudo_tables.div_ceil(members); // tables read once per fused batch
    stages.push(KernelDescriptor {
        kind: KernelKind::PseudoUpdate,
        name: "nonlocal pseudopotential update".into(),
        cost: KernelCost {
            flops: pseudo_flops,
            bytes_read: pseudo_bytes,
            bytes_written: nbands * natoms * sphere_pts * C64_BYTES / 4,
        },
        stream_fraction: 0.2,
        random_fraction: 0.6, // sphere gathers dominate
        working_set: natoms * nproj * sphere_pts * 8,
        // Independent (band, atom) contractions.
        parallelism: nbands * natoms,
        comm_volume: 0,
    });

    // --- Face-splitting product: stream ψ_v, ψ_c, write P. ---
    let p_bytes = npair * nr * C64_BYTES;
    stages.push(KernelDescriptor {
        kind: KernelKind::FaceSplitting,
        name: "face-splitting product".into(),
        cost: KernelCost {
            flops: 6 * npair * nr,
            bytes_read: 2 * npair * nr * C64_BYTES,
            bytes_written: p_bytes,
        },
        stream_fraction: 1.0,
        random_fraction: 0.0,
        working_set: (nv + nc) * nr * C64_BYTES + p_bytes,
        parallelism: npair,
        comm_volume: 0,
    });

    // --- Alltoall #1: orbital-major → pair-major layout. ---
    stages.push(alltoall("alltoall P (orbital→pair)", p_bytes));

    // --- Forward FFTs: one 3-D transform per pair. ---
    let grid = system.grid();
    let plan = ndft_numerics::Fft3Plan::new(grid);
    let fft_one = plan.cost();
    // Plan/twiddle tables stay resident across a fused plan-reuse sweep;
    // solo members re-read them per grid (cf. `Fft3Plan::shared_table_bytes`).
    let fft_read = fft_one.bytes_read.min(6 * nr * C64_BYTES);
    let fft_read_fused =
        fft_read.saturating_sub(plan.shared_table_bytes() * (members - 1) / members);
    stages.push(KernelDescriptor {
        kind: KernelKind::Fft,
        name: "forward FFT of P".into(),
        cost: KernelCost {
            flops: fft_one.flops * npair,
            bytes_read: fft_read_fused * npair,
            bytes_written: fft_one.bytes_written.min(6 * nr * C64_BYTES) * npair,
        },
        stream_fraction: 0.5, // x-lines stream; y/z passes stride
        random_fraction: 0.0,
        working_set: p_bytes,
        parallelism: npair,
        comm_volume: 0,
    });

    // --- Apply f_H (4π/G²) and f_xc on the sphere + assemble V_Hxc. ---
    stages.push(KernelDescriptor {
        kind: KernelKind::ApplyKernel,
        name: "apply f_H + f_xc".into(),
        cost: KernelCost {
            flops: 8 * npair * ng,
            bytes_read: 2 * npair * ng * C64_BYTES,
            bytes_written: npair * ng * C64_BYTES,
        },
        stream_fraction: 1.0,
        random_fraction: 0.0,
        working_set: 2 * npair * ng * C64_BYTES,
        parallelism: npair,
        comm_volume: 0,
    });

    // --- Alltoall #2: redistribute for the Hamiltonian contraction. ---
    stages.push(alltoall("alltoall fP (pair→G)", npair * ng * C64_BYTES));

    // --- GEMM: H = P† · f(P) over the G-sphere. ---
    stages.push(KernelDescriptor {
        kind: KernelKind::Gemm,
        name: "Hamiltonian GEMM P†·fP".into(),
        cost: ndft_numerics::gemm_cost_c64(npair as usize, npair as usize, ng as usize),
        stream_fraction: 1.0,
        random_fraction: 0.0,
        working_set: (2 * npair * ng + npair * npair) * C64_BYTES,
        parallelism: npair * npair / 64, // tile-level parallelism
        comm_volume: 0,
    });

    // --- SYEVD: diagonalize the npair × npair Hamiltonian. ---
    stages.push(KernelDescriptor {
        kind: KernelKind::Syevd,
        name: "SYEVD of response Hamiltonian".into(),
        cost: syevd_cost(npair as usize),
        stream_fraction: 0.8,
        random_fraction: 0.0,
        working_set: 2 * npair * npair * 8,
        // Panel-width-limited concurrency: the tridiagonal reduction's
        // critical path exposes only ~nb-way parallelism per step.
        parallelism: 32.min(npair.max(1)),
        comm_volume: 0,
    });

    TaskGraph {
        system: system.clone(),
        stages,
        iterations: iterations.max(1),
    }
}

fn alltoall(name: &str, volume: u64) -> KernelDescriptor {
    KernelDescriptor {
        kind: KernelKind::Alltoall,
        name: name.into(),
        // Pack + unpack passes on both sides.
        cost: KernelCost {
            flops: 0,
            bytes_read: volume,
            bytes_written: volume,
        },
        stream_fraction: 0.3, // bucket scatter is mostly non-contiguous
        random_fraction: 0.3,
        working_set: volume,
        parallelism: 1 << 16,
        comm_volume: volume,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(atoms: usize) -> TaskGraph {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1)
    }

    #[test]
    fn fft_cost_model_is_pinned() {
        // The modeled machine consumes these costs; a change to the FFT
        // kernel must not move them.
        let pinned = [
            (8, 518_400, 768_000),
            (16, 1_116_800, 1_792_000),
            (24, 1_745_600, 2_688_000),
            (256, 22_995_200, 36_864_000),
        ];
        for (atoms, flops, bytes) in pinned {
            let grid = SiliconSystem::new(atoms).unwrap().grid();
            let cost = ndft_numerics::Fft3Plan::new(grid).cost();
            let expect = KernelCost {
                flops,
                bytes_read: bytes,
                bytes_written: bytes,
            };
            assert_eq!(cost, expect, "Si_{atoms}");
        }
        let fft = graph(64).stages_of(KernelKind::Fft)[0].cost;
        let expect = KernelCost {
            flops: 612_864_000,
            bytes_read: 737_280_000,
            bytes_written: 737_280_000,
        };
        assert_eq!(fft, expect);
    }

    #[test]
    fn has_all_kernel_kinds() {
        let g = graph(64);
        for kind in KernelKind::all() {
            assert!(
                g.stages.iter().any(|s| s.kind == kind),
                "missing stage kind {kind:?}"
            );
        }
    }

    #[test]
    fn fft_is_memory_bound_gemm_is_compute_bound() {
        let g = graph(1024);
        let fft = &g.stages_of(KernelKind::Fft)[0];
        let gemm = &g.stages_of(KernelKind::Gemm)[0];
        assert!(
            fft.arithmetic_intensity() < 2.0,
            "FFT AI = {}",
            fft.arithmetic_intensity()
        );
        assert!(
            gemm.arithmetic_intensity() > 50.0,
            "GEMM AI = {}",
            gemm.arithmetic_intensity()
        );
    }

    #[test]
    fn syevd_intensity_grows_with_system_size() {
        let small = graph(64);
        let large = graph(1024);
        let ai_small = small.stages_of(KernelKind::Syevd)[0].arithmetic_intensity();
        let ai_large = large.stages_of(KernelKind::Syevd)[0].arithmetic_intensity();
        assert!(
            ai_large > 3.0 * ai_small,
            "SYEVD AI should grow: {ai_small} → {ai_large}"
        );
    }

    #[test]
    fn face_splitting_ai_is_constant_in_size() {
        let a = graph(64).stages_of(KernelKind::FaceSplitting)[0].arithmetic_intensity();
        let b = graph(1024).stages_of(KernelKind::FaceSplitting)[0].arithmetic_intensity();
        assert!((a - b).abs() < 1e-9);
        assert!(a < 0.2);
    }

    #[test]
    fn total_cost_scales_with_iterations() {
        let one = build_task_graph(&SiliconSystem::small(), 1).total_cost();
        let three = build_task_graph(&SiliconSystem::small(), 3).total_cost();
        assert_eq!(three.flops, 3 * one.flops);
    }

    #[test]
    fn fused_graph_of_one_is_the_plain_graph() {
        for atoms in [8usize, 64] {
            let sys = SiliconSystem::new(atoms).unwrap();
            assert_eq!(
                build_task_graph_fused(&sys, 3, 1),
                build_task_graph(&sys, 3)
            );
            assert_eq!(
                build_task_graph_fused(&sys, 3, 0), // clamped
                build_task_graph(&sys, 3)
            );
        }
    }

    #[test]
    fn fused_graph_amortizes_shared_reads_only() {
        let sys = SiliconSystem::new(8).unwrap();
        let solo = build_task_graph(&sys, 1);
        let mut last_read = u64::MAX;
        for members in [2usize, 4, 16] {
            let fused = build_task_graph_fused(&sys, 1, members);
            let fc = fused.total_cost();
            let sc = solo.total_cost();
            // FLOPs and writes are never amortized; reads strictly shrink
            // (the projector tables dominate at small atom counts) and
            // keep shrinking as the batch grows.
            assert_eq!(fc.flops, sc.flops);
            assert_eq!(fc.bytes_written, sc.bytes_written);
            assert!(fc.bytes_read < sc.bytes_read, "members {members}");
            assert!(fc.bytes_read < last_read, "members {members}");
            last_read = fc.bytes_read;
            // Per-member stages: only pseudo and FFT reads may differ.
            for (f, s) in fused.stages.iter().zip(&solo.stages) {
                assert_eq!(f.name, s.name);
                match f.kind {
                    KernelKind::PseudoUpdate | KernelKind::Fft => {
                        assert!(f.cost.bytes_read <= s.cost.bytes_read)
                    }
                    _ => assert_eq!(f.cost, s.cost, "{}", f.name),
                }
            }
        }
    }

    #[test]
    fn fused_pseudo_reads_never_drop_below_the_gather_floor() {
        // Even at absurd batch sizes the per-member ψ gather traffic
        // remains; only the table share vanishes.
        let sys = SiliconSystem::new(8).unwrap();
        let huge = build_task_graph_fused(&sys, 1, 1 << 20);
        let pseudo = &huge.stages_of(KernelKind::PseudoUpdate)[0];
        let nbands = (sys.valence_window() + sys.conduction_window()) as u64;
        let gather =
            nbands * sys.atoms() as u64 * crate::pseudo::SPHERE_PTS as u64 * (C64_BYTES + 4);
        assert!(pseudo.cost.bytes_read >= gather);
    }

    #[test]
    fn comm_volume_only_on_alltoall() {
        let g = graph(64);
        for s in &g.stages {
            if s.kind == KernelKind::Alltoall {
                assert!(s.comm_volume > 0);
            } else {
                assert_eq!(s.comm_volume, 0, "{}", s.name);
            }
        }
    }

    #[test]
    fn working_sets_grow_with_system() {
        let s = graph(64);
        let l = graph(1024);
        for (a, b) in s.stages.iter().zip(&l.stages) {
            assert!(b.working_set > a.working_set, "{}", a.name);
        }
    }

    #[test]
    fn parallelism_positive_everywhere() {
        for s in &graph(16).stages {
            assert!(s.parallelism > 0, "{}", s.name);
        }
    }

    #[test]
    fn fractions_are_valid() {
        for s in &graph(256).stages {
            assert!(s.stream_fraction >= 0.0 && s.stream_fraction <= 1.0);
            assert!(s.random_fraction >= 0.0 && s.random_fraction <= 1.0);
            assert!(
                s.stream_fraction + s.random_fraction <= 1.0 + 1e-12,
                "{}",
                s.name
            );
        }
    }
}
