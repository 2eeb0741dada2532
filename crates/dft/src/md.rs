//! Born–Oppenheimer-style molecular dynamics on the silicon supercells.
//!
//! The paper's workload is a single-geometry LR-TDDFT calculation, but
//! its shared-block design really earns its keep in *ab-initio MD*,
//! where atoms move every step and the pseudopotential blocks tied to
//! them must be rebuilt and re-broadcast — write traffic on blocks that
//! the LR-TDDFT pipeline treats as immutable (see `ndft-shmem`'s crate
//! docs). This module supplies that driver: velocity-Verlet dynamics on
//! a Keating-like harmonic bond model of the diamond lattice, reporting
//! per-step *pseudopotential rebuild fractions* (atoms displaced past a
//! projector-grid threshold), the share of [`crate::pseudo`] blocks each
//! step would rewrite.
//!
//! Units: eV, Å, fs (so masses carry eV·fs²/Å²).
//!
//! ## Example
//!
//! ```
//! use ndft_dft::md::{run_md, MdOptions};
//! use ndft_dft::SiliconSystem;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = SiliconSystem::new(16)?;
//! let traj = run_md(&sys, &MdOptions { steps: 50, ..MdOptions::default() });
//! assert!(traj.energy_drift() < 0.05); // velocity Verlet conserves energy
//! # Ok(())
//! # }
//! ```

use crate::system::SiliconSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Silicon atomic mass in eV·fs²/Å² (28.0855 u × 103.64).
const SI_MASS: f64 = 2910.9;
/// Boltzmann constant in eV/K.
const K_B: f64 = 8.617_333e-5;
/// Harmonic bond-stretch constant, eV/Å² (Keating-α-class for silicon).
const BOND_K: f64 = 8.0;
/// Equilibrium Si–Si bond length in the diamond lattice, Å
/// (`a·√3/4` for the supercell's lattice constant, so the starting
/// geometry is exactly the potential minimum).
const BOND_LENGTH: f64 = crate::system::SI_LATTICE_A * 0.433_012_701_892_219_3;
/// Neighbor-search cutoff, Å (between first and second neighbor shells).
const BOND_CUTOFF: f64 = 2.8;

/// Integration and thermostat parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MdOptions {
    /// Timestep in femtoseconds.
    pub timestep_fs: f64,
    /// Initial Maxwell–Boltzmann temperature in kelvin.
    pub temperature_k: f64,
    /// Steps to integrate.
    pub steps: usize,
    /// Displacement (Å) past which an atom's pseudopotential block must
    /// be rebuilt (real-space projector spheres shift off their grid).
    pub rebuild_threshold: f64,
    /// RNG seed for the initial velocities.
    pub seed: u64,
}

impl Default for MdOptions {
    fn default() -> Self {
        MdOptions {
            timestep_fs: 0.5,
            temperature_k: 300.0,
            steps: 200,
            rebuild_threshold: 0.05,
            seed: 7,
        }
    }
}

/// Per-step energy sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MdSample {
    /// Kinetic energy, eV.
    pub kinetic_ev: f64,
    /// Potential energy, eV.
    pub potential_ev: f64,
    /// Fraction of atoms whose pseudopotential block was rebuilt this
    /// step.
    pub rebuild_fraction: f64,
}

impl MdSample {
    /// Total energy, eV.
    pub fn total_ev(&self) -> f64 {
        self.kinetic_ev + self.potential_ev
    }

    /// Instantaneous kinetic temperature, K, for `atoms` atoms.
    pub fn temperature_k(&self, atoms: usize) -> f64 {
        if atoms == 0 {
            0.0
        } else {
            2.0 * self.kinetic_ev / (3.0 * atoms as f64 * K_B)
        }
    }
}

/// The result of an MD run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MdTrajectory {
    /// One sample per step.
    pub samples: Vec<MdSample>,
    /// Atoms simulated.
    pub atoms: usize,
    /// Mean displacement from the starting geometry at the end, Å.
    pub final_mean_displacement: f64,
    /// Total pseudopotential rebuilds across the run.
    pub total_rebuilds: u64,
}

impl MdTrajectory {
    /// Relative drift of the total energy between the first and last
    /// step (0 = perfectly symplectic).
    pub fn energy_drift(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) if a.total_ev().abs() > 1e-12 => {
                ((b.total_ev() - a.total_ev()) / a.total_ev()).abs()
            }
            _ => 0.0,
        }
    }

    /// Mean kinetic temperature over the second half of the run, K.
    pub fn equilibrium_temperature(&self) -> f64 {
        let half = &self.samples[self.samples.len() / 2..];
        if half.is_empty() {
            return 0.0;
        }
        half.iter()
            .map(|s| s.temperature_k(self.atoms))
            .sum::<f64>()
            / half.len() as f64
    }
}

/// Minimum-image displacement under the supercell's periodic box.
fn min_image(mut d: [f64; 3], lengths: (f64, f64, f64)) -> [f64; 3] {
    let ls = [lengths.0, lengths.1, lengths.2];
    for (x, l) in d.iter_mut().zip(ls) {
        if *x > l / 2.0 {
            *x -= l;
        } else if *x < -l / 2.0 {
            *x += l;
        }
    }
    d
}

fn distance(a: &[f64; 3], b: &[f64; 3], lengths: (f64, f64, f64)) -> [f64; 3] {
    min_image([b[0] - a[0], b[1] - a[1], b[2] - a[2]], lengths)
}

/// Nearest-neighbor bond list of the diamond lattice under periodic
/// boundaries. Every silicon atom has exactly four bonds.
pub fn bond_list(system: &SiliconSystem) -> Vec<(usize, usize)> {
    let pos = system.atom_positions();
    let lengths = system.lengths();
    let mut bonds = Vec::with_capacity(2 * pos.len());
    for i in 0..pos.len() {
        for j in (i + 1)..pos.len() {
            let d = distance(&pos[i], &pos[j], lengths);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 < BOND_CUTOFF * BOND_CUTOFF {
                bonds.push((i, j));
            }
        }
    }
    bonds
}

/// Approximately standard-normal deviate (Irwin–Hall, 12 uniforms).
fn normalish(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

fn forces(
    pos: &[[f64; 3]],
    bonds: &[(usize, usize)],
    lengths: (f64, f64, f64),
) -> (Vec<[f64; 3]>, f64) {
    let mut f = vec![[0.0; 3]; pos.len()];
    let mut potential = 0.0;
    for &(i, j) in bonds {
        let d = distance(&pos[i], &pos[j], lengths);
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        let stretch = r - BOND_LENGTH;
        potential += 0.5 * BOND_K * stretch * stretch;
        // dV/dr along the bond; positive stretch pulls atoms together.
        let scale = BOND_K * stretch / r.max(1e-12);
        for k in 0..3 {
            f[i][k] += scale * d[k];
            f[j][k] -= scale * d[k];
        }
    }
    (f, potential)
}

/// Runs velocity-Verlet dynamics and reports energies plus per-step
/// pseudopotential rebuild fractions.
///
/// Deterministic for a given [`MdOptions::seed`].
///
/// # Examples
///
/// See the [module documentation](self).
pub fn run_md(system: &SiliconSystem, opts: &MdOptions) -> MdTrajectory {
    run_md_prepared(system, opts, &bond_list(system))
}

/// [`run_md`] with the `O(n²)` neighbor search hoisted out: runs on a
/// pre-built `bonds` list (from [`bond_list`]). The bond list depends only
/// on the system geometry, so fused batch execution builds it once and
/// shares it across every same-system segment — with results bit-identical
/// to [`run_md`], which is a thin wrapper over this function.
pub fn run_md_prepared(
    system: &SiliconSystem,
    opts: &MdOptions,
    bonds: &[(usize, usize)],
) -> MdTrajectory {
    let lengths = system.lengths();
    let mut pos = system.atom_positions();
    let start = pos.clone();
    let n = pos.len();
    let dt = opts.timestep_fs;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Maxwell–Boltzmann velocities with the center-of-mass drift removed.
    let sigma = (K_B * opts.temperature_k.max(0.0) / SI_MASS).sqrt();
    let mut vel: Vec<[f64; 3]> = (0..n)
        .map(|_| {
            [
                sigma * normalish(&mut rng),
                sigma * normalish(&mut rng),
                sigma * normalish(&mut rng),
            ]
        })
        .collect();
    let mut com = [0.0; 3];
    for v in &vel {
        for k in 0..3 {
            com[k] += v[k] / n as f64;
        }
    }
    for v in &mut vel {
        for k in 0..3 {
            v[k] -= com[k];
        }
    }

    // Reference geometry of the last pseudopotential rebuild, per atom.
    let mut reference = pos.clone();
    let (mut f, _) = forces(&pos, bonds, lengths);
    let mut samples = Vec::with_capacity(opts.steps);
    let mut total_rebuilds = 0u64;

    for _ in 0..opts.steps {
        // Velocity Verlet.
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += 0.5 * dt * f[i][k] / SI_MASS;
                pos[i][k] += dt * vel[i][k];
            }
        }
        let (new_f, potential) = forces(&pos, bonds, lengths);
        f = new_f;
        let mut kinetic = 0.0;
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += 0.5 * dt * f[i][k] / SI_MASS;
            }
            kinetic += 0.5
                * SI_MASS
                * (vel[i][0] * vel[i][0] + vel[i][1] * vel[i][1] + vel[i][2] * vel[i][2]);
        }
        // Pseudopotential rebuild check.
        let mut rebuilt = 0u64;
        for i in 0..n {
            let d = distance(&reference[i], &pos[i], lengths);
            let disp2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if disp2 > opts.rebuild_threshold * opts.rebuild_threshold {
                reference[i] = pos[i];
                rebuilt += 1;
            }
        }
        total_rebuilds += rebuilt;
        samples.push(MdSample {
            kinetic_ev: kinetic,
            potential_ev: potential,
            rebuild_fraction: rebuilt as f64 / n as f64,
        });
    }

    let final_mean_displacement = pos
        .iter()
        .zip(&start)
        .map(|(p, s)| {
            let d = distance(s, p, lengths);
            (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
        })
        .sum::<f64>()
        / n as f64;
    MdTrajectory {
        samples,
        atoms: n,
        final_mean_displacement,
        total_rebuilds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si16() -> SiliconSystem {
        SiliconSystem::new(16).expect("valid size")
    }

    #[test]
    fn diamond_lattice_has_four_bonds_per_atom() {
        for atoms in [16usize, 64] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let bonds = bond_list(&sys);
            assert_eq!(
                bonds.len(),
                2 * atoms,
                "Si_{atoms}: 4 bonds/atom, each shared"
            );
            let mut degree = vec![0usize; atoms];
            for &(i, j) in &bonds {
                degree[i] += 1;
                degree[j] += 1;
            }
            assert!(
                degree.iter().all(|&d| d == 4),
                "Si_{atoms} degrees {degree:?}"
            );
        }
    }

    #[test]
    fn batch_trajectories_bit_identical_to_solo_runs() {
        let sys = si16();
        let opts: Vec<MdOptions> = (0..4)
            .map(|i| MdOptions {
                seed: 100 + i,
                temperature_k: 250.0 + 25.0 * i as f64,
                steps: 12,
                ..MdOptions::default()
            })
            .collect();
        let bonds = bond_list(&sys);
        for o in &opts {
            let traj = run_md_prepared(&sys, o, &bonds);
            let solo = run_md(&sys, o);
            assert_eq!(traj.atoms, solo.atoms);
            assert_eq!(traj.total_rebuilds, solo.total_rebuilds);
            assert_eq!(
                traj.final_mean_displacement.to_bits(),
                solo.final_mean_displacement.to_bits()
            );
            assert_eq!(traj.samples.len(), solo.samples.len());
            for (a, b) in traj.samples.iter().zip(&solo.samples) {
                assert_eq!(a.kinetic_ev.to_bits(), b.kinetic_ev.to_bits());
                assert_eq!(a.potential_ev.to_bits(), b.potential_ev.to_bits());
            }
        }
    }

    #[test]
    fn bonds_start_at_equilibrium_length() {
        let sys = si16();
        let pos = sys.atom_positions();
        let lengths = sys.lengths();
        for &(i, j) in &bond_list(&sys) {
            let d = distance(&pos[i], &pos[j], lengths);
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((r - BOND_LENGTH).abs() < 0.01, "bond {i}-{j} length {r}");
        }
    }

    #[test]
    fn zero_temperature_means_no_motion() {
        let traj = run_md(
            &si16(),
            &MdOptions {
                temperature_k: 0.0,
                steps: 20,
                ..MdOptions::default()
            },
        );
        assert_eq!(traj.total_rebuilds, 0);
        assert!(traj.final_mean_displacement < 1e-9);
        for s in &traj.samples {
            assert!(s.kinetic_ev < 1e-12);
            assert!(s.potential_ev < 1e-9);
        }
    }

    #[test]
    fn velocity_verlet_conserves_energy() {
        let traj = run_md(
            &si16(),
            &MdOptions {
                timestep_fs: 0.25,
                steps: 400,
                ..MdOptions::default()
            },
        );
        assert!(traj.energy_drift() < 0.02, "drift {}", traj.energy_drift());
    }

    #[test]
    fn kinetic_energy_equilibrates_to_half_initial_temperature() {
        // Starting at the potential minimum, a harmonic system splits the
        // initial kinetic energy evenly: T_eq ≈ T₀/2 by equipartition.
        let t0 = 600.0;
        let traj = run_md(
            &si16(),
            &MdOptions {
                temperature_k: t0,
                steps: 600,
                ..MdOptions::default()
            },
        );
        let teq = traj.equilibrium_temperature();
        assert!(
            teq > 0.3 * t0 && teq < 0.8 * t0,
            "equilibrium {teq} K from initial {t0} K"
        );
    }

    #[test]
    fn hotter_runs_move_more_and_rebuild_more() {
        let cold = run_md(
            &si16(),
            &MdOptions {
                temperature_k: 100.0,
                steps: 200,
                ..MdOptions::default()
            },
        );
        let hot = run_md(
            &si16(),
            &MdOptions {
                temperature_k: 900.0,
                steps: 200,
                ..MdOptions::default()
            },
        );
        assert!(hot.final_mean_displacement > cold.final_mean_displacement);
        // Same atoms and steps on both sides, so the totals compare the
        // mean rebuild fractions.
        assert!(hot.total_rebuilds >= cold.total_rebuilds);
        assert!(
            hot.total_rebuilds > 0,
            "900 K must cross a 0.05 Å threshold"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let opts = MdOptions {
            steps: 50,
            ..MdOptions::default()
        };
        let a = run_md(&si16(), &opts);
        let b = run_md(&si16(), &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_fraction_is_a_fraction() {
        let traj = run_md(
            &si16(),
            &MdOptions {
                temperature_k: 1200.0,
                steps: 100,
                ..MdOptions::default()
            },
        );
        for s in &traj.samples {
            assert!((0.0..=1.0).contains(&s.rebuild_fraction));
        }
    }

    #[test]
    fn sample_helpers_behave() {
        let s = MdSample {
            kinetic_ev: 1.0,
            potential_ev: 0.5,
            rebuild_fraction: 0.1,
        };
        assert_eq!(s.total_ev(), 1.5);
        assert!(s.temperature_k(16) > 0.0);
        assert_eq!(s.temperature_k(0), 0.0);
    }
}
