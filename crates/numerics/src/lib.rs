//! # ndft-numerics
//!
//! From-scratch numerical kernels backing the NDFT reproduction: the four
//! kernel families the paper characterizes on its roofline (Fig. 4) —
//! **FFT**, the **face-splitting product**, **GEMM** and **SYEVD** — plus
//! the complex scalar/vector/matrix plumbing they need.
//!
//! Every kernel reports an exact analytic [`KernelCost`] (FLOPs and bytes
//! streamed), which the workload layer turns into the descriptors that
//! drive the CPU–NDP scheduling study.
//!
//! [`Fft3Plan::forward_batch`] transforms `K` stacked grids on one plan
//! with **bit-identical** per-grid results.
//!
//! ## Example
//!
//! ```
//! use ndft_numerics::{face_splitting, CMat, Complex64, FftPlan};
//!
//! // Transition density of a 2-orbital toy system on 8 grid points...
//! let v = CMat::from_fn(2, 8, |i, r| Complex64::cis((i + 1) as f64 * r as f64));
//! let p = face_splitting(&v, &v);
//! // ...taken to reciprocal space, one row at a time.
//! let plan = FftPlan::new(8);
//! let mut row = p.row(0).to_vec();
//! plan.forward(&mut row);
//! assert_eq!(row.len(), 8);
//! ```

pub mod complex;
pub mod counters;
pub mod davidson;
pub mod eig;
pub mod facesplit;
pub mod fft;
pub mod fft3d;
pub mod gemm;
pub mod matrix;
pub mod vecops;

pub use complex::Complex64;
pub use counters::{face_splitting_cost, gemm_cost_c64, syevd_cost, KernelCost, C64_BYTES};
pub use davidson::{davidson, DavidsonError, DavidsonOptions, DavidsonResult, SymOperator};
pub use eig::{heevd, syevd, EigError, Eigen, HermEigen};
pub use facesplit::{face_splitting, face_splitting_cost_for};
pub use fft::{dft_naive, FftPlan};
pub use fft3d::{Fft3Plan, GridDims, StickMap};
pub use gemm::{gemm_adjoint_c64, gemm_c64_naive, gemm_f64, gemm_f64_naive};
pub use matrix::{CMat, Mat};
