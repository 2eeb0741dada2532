//! Crystal-silicon physical systems (Si_16 … Si_2048).
//!
//! The paper evaluates on diamond-cubic silicon supercells. This module
//! derives, from the atom count alone, everything the workload needs:
//! the supercell geometry, atom positions, the real-space grid (2/3/5-
//! smooth so the mixed-radix FFT applies), the reciprocal-space sphere,
//! and the LR-TDDFT band windows.

use serde::{Deserialize, Serialize};
use std::fmt;

use ndft_numerics::GridDims;

/// Silicon lattice constant in Ångström.
pub const SI_LATTICE_A: f64 = 5.43;
/// Valence electrons per silicon atom.
const SI_VALENCE_ELECTRONS: usize = 4;
/// Real-space grid points per conventional-cell edge (≈ 0.27 Å spacing,
/// a typical 25–30 Ry density-grid resolution).
const GRID_PER_CELL: usize = 20;

/// The eight-atom diamond basis, in units of the lattice constant.
const DIAMOND_BASIS: [[f64; 3]; 8] = [
    [0.00, 0.00, 0.00],
    [0.00, 0.50, 0.50],
    [0.50, 0.00, 0.50],
    [0.50, 0.50, 0.00],
    [0.25, 0.25, 0.25],
    [0.25, 0.75, 0.75],
    [0.75, 0.25, 0.75],
    [0.75, 0.75, 0.25],
];

/// Errors constructing a [`SiliconSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemError {
    /// The atom count is not a multiple of 8 (whole conventional cells).
    NotWholeCells {
        /// Offending atom count.
        atoms: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NotWholeCells { atoms } => {
                write!(
                    f,
                    "{atoms} atoms is not a whole number of 8-atom diamond cells"
                )
            }
        }
    }
}

impl std::error::Error for SystemError {}

/// A diamond-cubic silicon supercell.
///
/// # Examples
///
/// ```
/// use ndft_dft::SiliconSystem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let si64 = SiliconSystem::new(64)?;
/// assert_eq!(si64.cells(), (2, 2, 2));
/// assert_eq!(si64.grid().len(), 64_000); // 1000 points per atom
/// assert_eq!(si64.occupied_bands(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiliconSystem {
    atoms: usize,
    cells: (usize, usize, usize),
}

impl SiliconSystem {
    /// Builds the Si_N supercell, choosing the most cubic cell arrangement.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NotWholeCells`] unless `atoms` is a positive
    /// multiple of 8.
    pub fn new(atoms: usize) -> Result<Self, SystemError> {
        if atoms == 0 || !atoms.is_multiple_of(8) {
            return Err(SystemError::NotWholeCells { atoms });
        }
        let n_cells = atoms / 8;
        Ok(SiliconSystem {
            atoms,
            cells: most_cubic_factorization(n_cells),
        })
    }

    /// The systems evaluated in the paper (§V): Si_16 through Si_2048.
    pub fn paper_suite() -> Vec<SiliconSystem> {
        [16, 32, 64, 128, 256, 1024, 2048]
            .iter()
            .map(|&n| SiliconSystem::new(n).expect("paper sizes are multiples of 8"))
            .collect()
    }

    /// The paper's "small system".
    pub fn small() -> SiliconSystem {
        SiliconSystem::new(64).expect("Si_64 is valid")
    }

    /// The paper's "large system".
    pub fn large() -> SiliconSystem {
        SiliconSystem::new(1024).expect("Si_1024 is valid")
    }

    /// Number of silicon atoms.
    pub fn atoms(&self) -> usize {
        self.atoms
    }

    /// Conventional cells along each axis.
    pub fn cells(&self) -> (usize, usize, usize) {
        self.cells
    }

    /// Supercell edge lengths in Å.
    pub fn lengths(&self) -> (f64, f64, f64) {
        (
            self.cells.0 as f64 * SI_LATTICE_A,
            self.cells.1 as f64 * SI_LATTICE_A,
            self.cells.2 as f64 * SI_LATTICE_A,
        )
    }

    /// Supercell volume in Å³.
    pub fn volume(&self) -> f64 {
        let (a, b, c) = self.lengths();
        a * b * c
    }

    /// Real-space FFT grid (20 points per cell edge — always
    /// 2/3/5-smooth because 20 = 2²·5).
    pub fn grid(&self) -> GridDims {
        GridDims::new(
            self.cells.0 * GRID_PER_CELL,
            self.cells.1 * GRID_PER_CELL,
            self.cells.2 * GRID_PER_CELL,
        )
    }

    /// Plane waves in the band solve's wavefunction sphere
    /// `|G| ≤ G_w = π/(2h)`, half the grid's Nyquist wavenumber (see
    /// [`crate::scf`]): the real dimension of its basis, so the most bands
    /// a ground-state solve of this system can hold. 515 on Si_8's grid of
    /// 8,000 points.
    pub fn wave_sphere_len(&self) -> usize {
        crate::basis::wave_sphere_bins(self.grid()).count()
    }

    /// Auxiliary-basis size for the response-kernel contraction.
    ///
    /// Production LR-TDDFT codes build `P† f P` through density fitting /
    /// low-rank auxiliary bases rather than the full G-sphere; we scale
    /// the auxiliary dimension as `Nr / 256`, clamped to [250, 4000]
    /// (the effective rank of the screened response kernel saturates for
    /// large supercells).
    pub fn gsphere_len(&self) -> usize {
        (self.grid().len() / 256).clamp(250, 4000)
    }

    /// Doubly-occupied valence bands (4 electrons/atom, spin-paired).
    pub fn occupied_bands(&self) -> usize {
        self.atoms * SI_VALENCE_ELECTRONS / 2
    }

    /// Valence bands inside the LR-TDDFT excitation window.
    ///
    /// Production LR-TDDFT restricts the transition space to bands near
    /// the gap; we scale the window as `1.5·√N` (see DESIGN.md §4).
    pub fn valence_window(&self) -> usize {
        ((1.5 * (self.atoms as f64).sqrt()).round() as usize).clamp(4, self.occupied_bands())
    }

    /// Conduction bands inside the window (`1.2·√N`).
    pub fn conduction_window(&self) -> usize {
        ((1.2 * (self.atoms as f64).sqrt()).round() as usize).max(3)
    }

    /// Valence–conduction pairs: the LR-TDDFT Hamiltonian dimension.
    pub fn pair_count(&self) -> usize {
        self.valence_window() * self.conduction_window()
    }

    /// Cartesian atom positions in Å.
    pub fn atom_positions(&self) -> Vec<[f64; 3]> {
        let mut out = Vec::with_capacity(self.atoms);
        for cz in 0..self.cells.2 {
            for cy in 0..self.cells.1 {
                for cx in 0..self.cells.0 {
                    for basis in &DIAMOND_BASIS {
                        out.push([
                            (cx as f64 + basis[0]) * SI_LATTICE_A,
                            (cy as f64 + basis[1]) * SI_LATTICE_A,
                            (cz as f64 + basis[2]) * SI_LATTICE_A,
                        ]);
                    }
                }
            }
        }
        out
    }

    /// A short label like `Si_64`.
    pub fn label(&self) -> String {
        format!("Si_{}", self.atoms)
    }
}

impl fmt::Display for SiliconSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cx, cy, cz) = self.cells;
        write!(
            f,
            "{} ({}×{}×{} cells, {} grid points)",
            self.label(),
            cx,
            cy,
            cz,
            self.grid().len()
        )
    }
}

/// Splits `n` into three factors as close to a cube as possible.
fn most_cubic_factorization(n: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, n);
    let mut best_score = usize::MAX;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let rem = n / a;
        for b in 1..=rem {
            if !rem.is_multiple_of(b) {
                continue;
            }
            let c = rem / b;
            let mut dims = [a, b, c];
            dims.sort_unstable();
            // Penalize spread between the largest and smallest factor.
            let score = dims[2] * 100 + dims[2] - dims[0];
            if score < best_score {
                best_score = score;
                best = (dims[0], dims[1], dims[2]);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_have_expected_cells() {
        let expect = [
            (16, (1, 1, 2)),
            (32, (1, 2, 2)),
            (64, (2, 2, 2)),
            (128, (2, 2, 4)),
            (256, (2, 4, 4)),
            (1024, (4, 4, 8)),
            (2048, (4, 8, 8)),
        ];
        for (atoms, cells) in expect {
            let s = SiliconSystem::new(atoms).unwrap();
            assert_eq!(s.cells(), cells, "Si_{atoms}");
        }
    }

    #[test]
    fn grid_is_1000_points_per_atom() {
        for s in SiliconSystem::paper_suite() {
            assert_eq!(s.grid().len(), 1000 * s.atoms(), "{s}");
        }
    }

    #[test]
    fn grid_dims_are_smooth() {
        for s in SiliconSystem::paper_suite() {
            let g = s.grid();
            for mut d in [g.nx, g.ny, g.nz] {
                for p in [2usize, 3, 5] {
                    while d % p == 0 {
                        d /= p;
                    }
                }
                assert_eq!(d, 1, "{s} has a non-smooth grid dimension");
            }
        }
    }

    #[test]
    fn rejects_non_cell_multiples() {
        assert!(SiliconSystem::new(0).is_err());
        assert!(SiliconSystem::new(12).is_err());
        assert!(SiliconSystem::new(17).is_err());
    }

    #[test]
    fn atom_positions_count_and_bounds() {
        let s = SiliconSystem::new(64).unwrap();
        let pos = s.atom_positions();
        assert_eq!(pos.len(), 64);
        let (lx, ly, lz) = s.lengths();
        for p in &pos {
            assert!(p[0] >= 0.0 && p[0] < lx);
            assert!(p[1] >= 0.0 && p[1] < ly);
            assert!(p[2] >= 0.0 && p[2] < lz);
        }
    }

    #[test]
    fn atom_positions_are_distinct() {
        let s = SiliconSystem::new(16).unwrap();
        let pos = s.atom_positions();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d2: f64 = (0..3).map(|k| (pos[i][k] - pos[j][k]).powi(2)).sum();
                assert!(d2 > 1.0, "atoms {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn band_windows_grow_sublinearly() {
        let small = SiliconSystem::new(64).unwrap();
        let large = SiliconSystem::new(1024).unwrap();
        assert_eq!(small.valence_window(), 12);
        assert_eq!(small.conduction_window(), 10);
        assert_eq!(large.valence_window(), 48);
        assert_eq!(large.conduction_window(), 38);
        // Window must never exceed the number of occupied bands.
        for s in SiliconSystem::paper_suite() {
            assert!(s.valence_window() <= s.occupied_bands());
        }
    }

    #[test]
    fn pair_count_is_window_product() {
        let s = SiliconSystem::new(1024).unwrap();
        assert_eq!(s.pair_count(), 48 * 38);
    }

    #[test]
    fn display_mentions_label() {
        let s = SiliconSystem::new(64).unwrap();
        assert!(format!("{s}").contains("Si_64"));
    }

    #[test]
    fn gsphere_smaller_than_grid() {
        for s in SiliconSystem::paper_suite() {
            assert!(s.gsphere_len() <= s.grid().len() / 64);
            assert!(s.gsphere_len() >= 250);
        }
    }
}
