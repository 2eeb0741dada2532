//! Pseudopotential data structures and sizing model.
//!
//! Two things live here:
//!
//! 1. **Runtime data** — Kleinman–Bylander-style nonlocal projectors
//!    discretized on the real-space grid, and the wavefunction-update
//!    kernel of the paper's Algorithm 1. One point-major projector table
//!    serves every atom, which keeps only an index array of its sphere
//!    points ([`Pseudopotential`]): the runtime analogue of the shared
//!    pseudopotential block of §IV-B. This path is exercised numerically
//!    by the Kohn–Sham solver and the small-system driver.
//! 2. **Sizing model** — the byte-accounting used by the Table I
//!    reproduction. Per process: a constant block (species radial tables,
//!    dense local-potential arrays, application workspace) plus one
//!    projector block per atom. The constants are calibrated in
//!    DESIGN.md §4.3 so the CPU cells of Table I are matched; the NDP and
//!    NDFT layouts are then *derived* from process topology, not fitted.

use crate::basis::SphereStencil;
use crate::system::SiliconSystem;
use ndft_numerics::Complex64;
use serde::{Deserialize, Serialize};

/// Nonlocal projectors per silicon atom (s/p/d channels × 2 each + spares,
/// the typical ONCV-style count).
pub const N_PROJ: usize = 8;

/// Grid points per atom projector sphere on the *double grid* used by
/// production plane-wave codes (rc ≈ 2.6 Å at double-grid resolution).
/// Calibrated so one atom block is ≈ 1.59 MiB, which solves the two CPU
/// cells of Table I exactly (see DESIGN.md §4.3).
pub const SPHERE_PTS: usize = 24_590;

/// Per-process constant pseudopotential overhead: species radial tables,
/// dense local-potential arrays and application workspace (≈ 133 MiB,
/// Table I CPU-column calibration).
const PER_PROCESS_CONST_BYTES: u64 = 139_950_000;

/// Bytes of one atom's projector block: `N_PROJ × SPHERE_PTS` f64
/// coefficients plus a u32 grid-index per sphere point.
pub const fn atom_block_bytes() -> u64 {
    (N_PROJ * SPHERE_PTS * 8 + SPHERE_PTS * 4) as u64
}

/// Runtime nonlocal pseudopotential of a system on its grid: one
/// projector table shared by every atom, plus each atom's sphere indices.
///
/// Every atom is the same species on the same grid, and a projector's
/// value at a sphere point depends only on that point's offset from the
/// atom's nearest grid site. So the table is computed once per system,
/// point-major (the `N_PROJ` values of one sphere point are adjacent, the
/// order the gather and the scatter read them in), and the atoms differ
/// only in where the sphere lands. This is the runtime analogue of the
/// paper's shared pseudopotential block (§IV-B): one copy of the
/// coefficients, read through per-consumer index tables, instead of one
/// copy per atom.
#[derive(Debug, Clone, PartialEq)]
pub struct Pseudopotential {
    /// Projector values, one `[β_p(r_j); N_PROJ]` row per sphere point.
    pub(crate) table: Vec<[f64; N_PROJ]>,
    /// The same rows scaled by the Kleinman–Bylander strengths `D_p`, as
    /// the scatter reads them.
    scaled: Vec<[f64; N_PROJ]>,
    /// Per atom, in atom order, the linear grid index of each sphere
    /// point, in the order of the table's rows.
    pub(crate) spheres: Vec<Vec<u32>>,
}

/// Builds synthetic-but-physical projectors for every atom of a system on
/// its real grid: Gaussian-enveloped radial shapes inside `rc_angstrom`,
/// distinct per channel. Deterministic.
///
/// The small-system numeric driver uses this; the sizing model above uses
/// the calibrated double-grid constants instead.
pub fn build_pseudos(system: &SiliconSystem, rc_angstrom: f64) -> Pseudopotential {
    let stencil = SphereStencil::new(system, rc_angstrom);
    let table: Vec<[f64; N_PROJ]> = stencil
        .r2()
        .iter()
        .map(|&r2| {
            let r = r2.sqrt();
            std::array::from_fn(|p| {
                // Channel-dependent radial shape: r^l · exp(-(r/σ_p)²).
                let l = (p / 2) as i32; // s, s, p, p, d, d, f, f
                let sigma = 0.6 + 0.25 * (p % 2) as f64 + 0.1 * l as f64;
                r.powi(l) * (-(r / sigma).powi(2)).exp()
            })
        })
        .collect();
    // Kleinman–Bylander strengths D_p, one per projector.
    let coefficients: [f64; N_PROJ] = std::array::from_fn(|p| {
        if p % 2 == 0 {
            0.9 / (1.0 + p as f64)
        } else {
            -0.4 / (1.0 + p as f64)
        }
    });
    let scaled = table
        .iter()
        .map(|row| std::array::from_fn(|p| coefficients[p] * row[p]))
        .collect();
    let spheres = system
        .atom_positions()
        .into_iter()
        .map(|pos| stencil.indices_at(pos).map(|i| i as u32).collect())
        .collect();
    Pseudopotential {
        table,
        scaled,
        spheres,
    }
}

/// Applies the nonlocal pseudopotential to one wavefunction in place,
/// atom after atom — the computational core of the paper's Algorithm 1
/// (lines 17–21), with `V_a = Σ_p D_p |β_ap⟩⟨β_ap|`.
///
/// Each atom projects the `ψ` that earlier atoms already updated, so the
/// result is `ψ ← Π_a (1 + V_a) ψ`. Where projector spheres overlap this
/// differs from `ψ + Σ_a V_a ψ` and is not Hermitian;
/// [`crate::KsHamiltonian::apply`] adds the Hermitian sum instead.
///
/// Returns the number of projector contractions performed.
///
/// # Panics
///
/// Panics if `psi.len()` does not cover every projector grid index.
pub fn apply_nonlocal(
    psi: &mut [Complex64],
    pseudos: &Pseudopotential,
    volume_element: f64,
) -> u64 {
    let len = psi.len();
    let mut coef = [[Complex64::ZERO; N_PROJ]];
    for sphere in &pseudos.spheres {
        pseudos.project(sphere, psi, len, volume_element, &mut coef);
        pseudos.scatter(sphere, &coef, len, psi);
    }
    (pseudos.spheres.len() * N_PROJ) as u64
}

/// Adds the Hermitian nonlocal term `Σ_a V_a ψ` to `out` for every row
/// of the block `psi` (rows of `len` grid points): every atom projects
/// the unmodified rows.
///
/// Each atom's projector table rows and sphere indices are read once for
/// the whole block, and every row gets exactly the arithmetic it would
/// get as a block of one.
///
/// # Panics
///
/// Panics if `psi` and `out` differ in length, are not whole rows of
/// `len`, or a row does not cover every projector grid index.
pub(crate) fn add_nonlocal(
    psi: &[Complex64],
    len: usize,
    pseudos: &Pseudopotential,
    volume_element: f64,
    out: &mut [Complex64],
) {
    assert_eq!(psi.len(), out.len(), "nonlocal block shape mismatch");
    assert!(
        psi.len().is_multiple_of(len),
        "nonlocal block must hold whole rows"
    );
    let mut coef = vec![[Complex64::ZERO; N_PROJ]; psi.len() / len];
    for sphere in &pseudos.spheres {
        pseudos.project(sphere, psi, len, volume_element, &mut coef);
        pseudos.scatter(sphere, &coef, len, out);
    }
}

impl Pseudopotential {
    /// `coef[b] = ⟨β_ap|ψ_b⟩·dv` for every projector of one atom and every
    /// row `ψ_b` of the block (the gather half).
    fn project(
        &self,
        sphere: &[u32],
        psi: &[Complex64],
        len: usize,
        volume_element: f64,
        coef: &mut [[Complex64; N_PROJ]],
    ) {
        coef.fill([Complex64::ZERO; N_PROJ]);
        for (&idx, row) in sphere.iter().zip(&self.table) {
            for (b, cb) in coef.iter_mut().enumerate() {
                let v = psi[b * len + idx as usize];
                for (cp, &beta) in cb.iter_mut().zip(row) {
                    *cp += v.scale(beta);
                }
            }
        }
        for cb in coef.iter_mut() {
            *cb = cb.map(|c| c.scale(volume_element));
        }
    }

    /// `out_b += Σ_p D_p · coef[b]_p · β_ap` over one atom's sphere, for
    /// every row `out_b` of the block (the scatter half).
    fn scatter(
        &self,
        sphere: &[u32],
        coef: &[[Complex64; N_PROJ]],
        len: usize,
        out: &mut [Complex64],
    ) {
        for (&idx, row) in sphere.iter().zip(&self.scaled) {
            for (b, cb) in coef.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (cf, &db) in cb.iter().zip(row) {
                    acc += cf.scale(db);
                }
                out[b * len + idx as usize] += acc;
            }
        }
    }
}

/// Pseudopotential layout variants whose footprints the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PseudoLayout {
    /// Every process keeps a full copy of all atoms' blocks (the
    /// traditional layout of §III-B).
    Replicated {
        /// Number of processes.
        processes: usize,
        /// Marshalling / double-buffering overhead on the atom blocks,
        /// in parts-per-thousand above 1.0 (e.g. 380 ⇒ ×1.38). The NDP
        /// baseline pays this for staging blocks into unit-local DRAM.
        staging_overhead_ppm: u32,
    },
    /// The NDFT shared-block layout (§IV-B): one copy per sharing domain
    /// (stack), spatially partitioned with halos, plus per-process index
    /// tables.
    SharedBlock {
        /// Sharing domains (stacks).
        domains: usize,
        /// Processes (for the index tables).
        processes: usize,
        /// Halo radius in Å for the spatial partition overlap.
        halo_angstrom: f64,
    },
}

/// Fraction of all atoms whose projector sphere intersects one domain of
/// a `dx × dy` in-plane partition of the supercell, with halo `r` (Å).
/// Clamped to 1.
fn domain_atom_fraction(system: &SiliconSystem, dx: usize, dy: usize, r: f64) -> f64 {
    let (lx, ly, _lz) = system.lengths();
    let fx = ((lx / dx as f64 + 2.0 * r) / lx).min(1.0);
    let fy = ((ly / dy as f64 + 2.0 * r) / ly).min(1.0);
    fx * fy
}

/// Total pseudopotential memory footprint (bytes) of a layout on a system.
pub fn footprint_bytes(system: &SiliconSystem, layout: PseudoLayout) -> u64 {
    let natoms = system.atoms() as u64;
    match layout {
        PseudoLayout::Replicated {
            processes,
            staging_overhead_ppm,
        } => {
            let blocks = natoms * atom_block_bytes();
            let staged = blocks + blocks * staging_overhead_ppm as u64 / 1000;
            processes as u64 * (PER_PROCESS_CONST_BYTES + staged)
        }
        PseudoLayout::SharedBlock {
            domains,
            processes,
            halo_angstrom,
        } => {
            // Assume a near-square domain grid (4×4 for 16 stacks).
            let side = (domains as f64).sqrt().round() as usize;
            let (dx, dy) = if side * side == domains {
                (side, side)
            } else {
                (domains, 1)
            };
            let frac = domain_atom_fraction(system, dx, dy, halo_angstrom);
            let per_domain_blocks = (natoms as f64 * frac) as u64 * atom_block_bytes();
            let index_tables = processes as u64 * natoms * 16; // sharedBL handles
            domains as u64 * (PER_PROCESS_CONST_BYTES + per_domain_blocks) + index_tables
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndft_numerics::{vecops, Mat};

    #[test]
    fn atom_block_is_about_1_6_mib() {
        let b = atom_block_bytes() as f64 / (1024.0 * 1024.0);
        assert!((b - 1.59).abs() < 0.05, "atom block = {b} MiB");
    }

    #[test]
    fn build_pseudos_covers_every_atom() {
        let sys = SiliconSystem::new(16).unwrap();
        let ps = build_pseudos(&sys, 2.0);
        assert_eq!(ps.spheres.len(), 16);
        assert!(!ps.table.is_empty());
        assert_eq!(ps.scaled.len(), ps.table.len());
        for sphere in &ps.spheres {
            assert_eq!(sphere.len(), ps.table.len());
            // All indices must be valid grid points.
            let nr = sys.grid().len() as u32;
            assert!(sphere.iter().all(|&i| i < nr));
        }
    }

    #[test]
    fn sphere_point_count_matches_geometry() {
        let sys = SiliconSystem::new(16).unwrap();
        let rc: f64 = 2.0;
        let ps = build_pseudos(&sys, rc);
        // Expected: (4/3)π rc³ / (h³) within ±30% (lattice discretization).
        let h: f64 = 5.43 / 20.0;
        let expect = 4.0 / 3.0 * std::f64::consts::PI * rc.powi(3) / h.powi(3);
        for sphere in &ps.spheres {
            let n = sphere.len() as f64;
            assert!(
                (n - expect).abs() / expect < 0.3,
                "sphere pts {n} vs {expect}"
            );
        }
    }

    #[test]
    fn apply_nonlocal_changes_norm_but_stays_finite() {
        let sys = SiliconSystem::new(16).unwrap();
        let ps = build_pseudos(&sys, 1.5);
        let nr = sys.grid().len();
        let mut psi: Vec<Complex64> = (0..nr)
            .map(|i| Complex64::cis(0.001 * i as f64).scale(1.0 / (nr as f64).sqrt()))
            .collect();
        let before = vecops::norm(&psi);
        let contractions = apply_nonlocal(&mut psi, &ps, sys.volume() / nr as f64);
        assert_eq!(contractions, 16 * N_PROJ as u64);
        let after = vecops::norm(&psi);
        assert!(after.is_finite());
        assert!(
            (after - before).abs() > 1e-12,
            "projector should act nontrivially"
        );
    }

    #[test]
    fn apply_nonlocal_is_linear() {
        let sys = SiliconSystem::new(16).unwrap();
        let ps = build_pseudos(&sys, 1.2);
        let nr = sys.grid().len();
        let dv = sys.volume() / nr as f64;
        let base: Vec<Complex64> = (0..nr)
            .map(|i| Complex64::new((i % 17) as f64 / 17.0, (i % 5) as f64 / 5.0))
            .collect();
        // V_nl(2ψ) == 2·V_nl(ψ)
        let mut one = base.clone();
        apply_nonlocal(&mut one, &ps, dv);
        let mut two: Vec<Complex64> = base.iter().map(|z| z.scale(2.0)).collect();
        apply_nonlocal(&mut two, &ps, dv);
        let err = one
            .iter()
            .zip(&two)
            .map(|(a, b)| (*b - a.scale(2.0)).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-10, "linearity violation {err}");
    }

    #[test]
    fn replicated_footprint_matches_table1_cpu_cells() {
        // Table I: CPU small = 1.84 GB, CPU large = 13.8 GB (8 processes).
        let gib = 1024.0 * 1024.0 * 1024.0;
        let small = footprint_bytes(
            &SiliconSystem::small(),
            PseudoLayout::Replicated {
                processes: 8,
                staging_overhead_ppm: 0,
            },
        ) as f64
            / gib;
        let large = footprint_bytes(
            &SiliconSystem::large(),
            PseudoLayout::Replicated {
                processes: 8,
                staging_overhead_ppm: 0,
            },
        ) as f64
            / gib;
        assert!((small - 1.84).abs() / 1.84 < 0.05, "CPU small {small} GB");
        assert!((large - 13.8).abs() / 13.8 < 0.05, "CPU large {large} GB");
    }

    #[test]
    fn shared_block_shrinks_large_system_footprint() {
        let sys = SiliconSystem::large();
        let ndp = footprint_bytes(
            &sys,
            PseudoLayout::Replicated {
                processes: 16,
                staging_overhead_ppm: 380,
            },
        );
        let ndft = footprint_bytes(
            &sys,
            PseudoLayout::SharedBlock {
                domains: 16,
                processes: 256,
                halo_angstrom: 4.9,
            },
        );
        let reduction = 1.0 - ndft as f64 / ndp as f64;
        assert!(
            reduction > 0.45 && reduction < 0.70,
            "reduction = {reduction}"
        );
    }

    /// One atom as `build_pseudos` built it before the shared table: its
    /// own box scan, an `N_PROJ × n` projector matrix, and strengths.
    struct ReferenceAtom {
        indices: Vec<u32>,
        projectors: Mat,
        coefficients: Vec<f64>,
    }

    fn reference_pseudos(system: &SiliconSystem, rc: f64) -> Vec<ReferenceAtom> {
        let grid = system.grid();
        let (lx, ly, lz) = system.lengths();
        let h = (
            lx / grid.nx as f64,
            ly / grid.ny as f64,
            lz / grid.nz as f64,
        );
        let rc2 = rc * rc;
        let span = |step: f64| (rc / step).ceil() as isize + 1;
        system
            .atom_positions()
            .iter()
            .map(|pos| {
                let mut indices = Vec::new();
                let mut radii = Vec::new();
                let (cx, cy, cz) = (
                    (pos[0] / h.0).round() as isize,
                    (pos[1] / h.1).round() as isize,
                    (pos[2] / h.2).round() as isize,
                );
                for dz in -span(h.2)..=span(h.2) {
                    for dy in -span(h.1)..=span(h.1) {
                        for dx in -span(h.0)..=span(h.0) {
                            let fx = dx as f64 * h.0;
                            let fy = dy as f64 * h.1;
                            let fz = dz as f64 * h.2;
                            let r2 = fx * fx + fy * fy + fz * fz;
                            if r2 > rc2 {
                                continue;
                            }
                            let gx = (cx + dx).rem_euclid(grid.nx as isize) as usize;
                            let gy = (cy + dy).rem_euclid(grid.ny as isize) as usize;
                            let gz = (cz + dz).rem_euclid(grid.nz as isize) as usize;
                            indices.push(grid.index(gx, gy, gz) as u32);
                            radii.push(r2.sqrt());
                        }
                    }
                }
                let projectors = Mat::from_fn(N_PROJ, indices.len(), |p, i| {
                    let r = radii[i];
                    let l = (p / 2) as i32;
                    let sigma = 0.6 + 0.25 * (p % 2) as f64 + 0.1 * l as f64;
                    r.powi(l) * (-(r / sigma).powi(2)).exp()
                });
                let coefficients = (0..N_PROJ)
                    .map(|p| {
                        if p % 2 == 0 {
                            0.9 / (1.0 + p as f64)
                        } else {
                            -0.4 / (1.0 + p as f64)
                        }
                    })
                    .collect();
                ReferenceAtom {
                    indices,
                    projectors,
                    coefficients,
                }
            })
            .collect()
    }

    /// Projects `src` and scatters into `dst` atom by atom, on the
    /// per-atom matrices.
    fn reference_nonlocal(
        atoms: &[ReferenceAtom],
        dv: f64,
        src: Option<&[Complex64]>,
        dst: &mut [Complex64],
    ) {
        for ap in atoms {
            let mut coef = [Complex64::ZERO; N_PROJ];
            for (j, &idx) in ap.indices.iter().enumerate() {
                let v = src.map_or(dst[idx as usize], |s| s[idx as usize]);
                for (p, cp) in coef.iter_mut().enumerate() {
                    *cp += v.scale(ap.projectors[(p, j)]);
                }
            }
            let coef = coef.map(|c| c.scale(dv));
            for (j, &idx) in ap.indices.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (p, cf) in coef.iter().enumerate() {
                    acc += cf.scale(ap.coefficients[p] * ap.projectors[(p, j)]);
                }
                dst[idx as usize] += acc;
            }
        }
    }

    fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn shared_table_matches_per_atom_scan_bitwise() {
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let nr = sys.grid().len();
            let dv = sys.volume() / nr as f64;
            let ps = build_pseudos(&sys, 1.8);
            let reference = reference_pseudos(&sys, 1.8);
            assert_eq!(ps.spheres.len(), reference.len());
            for (atom, (sphere, r)) in ps.spheres.iter().zip(&reference).enumerate() {
                assert_eq!(*sphere, r.indices, "Si_{atoms}, atom {atom}");
                for (j, (row, srow)) in ps.table.iter().zip(&ps.scaled).enumerate() {
                    for p in 0..N_PROJ {
                        let b = r.projectors[(p, j)];
                        assert_eq!(row[p].to_bits(), b.to_bits());
                        assert_eq!(srow[p].to_bits(), (r.coefficients[p] * b).to_bits());
                    }
                }
            }
            let psi: Vec<Complex64> = (0..nr)
                .map(|i| Complex64::new((i % 17) as f64 / 17.0 - 0.5, (i % 5) as f64 / 5.0))
                .collect();
            // Sequential (Algorithm 1) update.
            let mut fast = psi.clone();
            apply_nonlocal(&mut fast, &ps, dv);
            let mut slow = psi.clone();
            reference_nonlocal(&reference, dv, None, &mut slow);
            assert!(same_bits(&fast, &slow), "Si_{atoms}: apply_nonlocal");
            // Hermitian sum, every atom projecting the unmodified ψ.
            let mut fast = psi.clone();
            add_nonlocal(&psi, nr, &ps, dv, &mut fast);
            let mut slow = psi.clone();
            reference_nonlocal(&reference, dv, Some(&psi), &mut slow);
            assert!(same_bits(&fast, &slow), "Si_{atoms}: add_nonlocal");
        }
    }

    #[test]
    fn domain_fraction_clamps_for_small_systems() {
        let frac = domain_atom_fraction(&SiliconSystem::small(), 4, 4, 4.9);
        assert!(
            (frac - 1.0).abs() < 1e-12,
            "small system: halo covers everything"
        );
        let frac_large = domain_atom_fraction(&SiliconSystem::large(), 4, 4, 4.9);
        assert!(frac_large < 0.6);
    }
}
