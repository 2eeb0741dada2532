//! # ndft-dft
//!
//! The LR-TDDFT physics and workload layer of the NDFT reproduction.
//!
//! * [`system`] — diamond-cubic silicon supercells Si_16 … Si_2048 with
//!   derived grids, G-spheres and LR-TDDFT band windows.
//! * [`workload`] — per-stage [`KernelDescriptor`]s (exact FLOPs/bytes,
//!   pattern mix, working sets, parallelism, comm volumes) forming the
//!   [`TaskGraph`] the scheduler and machine models consume.
//! * [`pseudo`] — nonlocal pseudopotential data (runtime projectors and
//!   the Table I sizing model) and the Algorithm 1 update kernel.
//! * [`dist`] — process topologies and all-to-all volume decomposition.
//! * [`driver`] — the real numeric pipeline for small systems, producing
//!   excitation spectra that validate the descriptors.
//!
//! ## Example
//!
//! ```
//! use ndft_dft::{build_task_graph, run_lr_tddft, SiliconSystem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Workload characterization for the paper's large system…
//! let graph = build_task_graph(&SiliconSystem::large(), 1);
//! assert!(graph.total_cost().flops > 1_000_000_000);
//! // …and real physics for a small one.
//! let spectrum = run_lr_tddft(&SiliconSystem::new(16)?)?;
//! assert!(spectrum.optical_gap() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod basis;
pub mod casida;
pub mod dist;
pub mod driver;
pub mod kpoints;
pub mod md;
pub mod pseudo;
pub mod scf;
pub mod spectra;
pub mod system;
pub mod workload;

pub use casida::{casida_from_parts, run_casida, solve_tda_iterative, CasidaError, CasidaResult};
pub use dist::{alltoall_volume, CommVolume, ProcessTopology};
pub use driver::{
    build_response_hamiltonian, lr_tddft_from_orbitals, model_orbitals, response_parts,
    run_lr_tddft, Spectrum,
};
pub use kpoints::{band_structure, monkhorst_pack, si_path, BandPathPoint, BandStructure, KPoint};
pub use md::{bond_list, run_md, run_md_prepared, MdOptions, MdSample, MdTrajectory};
pub use pseudo::{
    apply_nonlocal, atom_block_bytes, build_pseudos, footprint_bytes, PseudoLayout, Pseudopotential,
};
pub use scf::{
    run_scf, run_scf_in, run_scf_selfconsistent, GroundState, KsHamiltonian, ScfOptions,
    SelfConsistentResult,
};
pub use spectra::{model_oscillator_spectrum, OscillatorSpectrum};
pub use system::{SiliconSystem, SystemError};
pub use workload::{
    build_task_graph, build_task_graph_fused, KernelDescriptor, KernelKind, TaskGraph,
};
