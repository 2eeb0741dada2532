//! Plane-wave basis helpers shared by the ground-state solver and the
//! LR-TDDFT driver: G-vector tables, normalized plane waves, and the
//! local potential of the silicon lattice.

use crate::system::SiliconSystem;
use ndft_numerics::{Complex64, GridDims};

/// `ħ²/2mₑ` in eV·Å².
pub const HBAR2_OVER_2M: f64 = 3.81;

/// `|G|²` for every FFT bin of a grid with box lengths `(lx, ly, lz)`,
/// in Å⁻², FFT frequency order.
fn g2_table(grid: GridDims, lx: f64, ly: f64, lz: f64) -> Vec<f64> {
    let freq = |i: usize, n: usize, l: f64| {
        let k = if i <= n / 2 {
            i as f64
        } else {
            i as f64 - n as f64
        };
        2.0 * std::f64::consts::PI * k / l
    };
    let mut out = Vec::with_capacity(grid.len());
    for z in 0..grid.nz {
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                let gx = freq(x, grid.nx, lx);
                let gy = freq(y, grid.ny, ly);
                let gz = freq(z, grid.nz, lz);
                out.push(gx * gx + gy * gy + gz * gz);
            }
        }
    }
    out
}

/// `|G|²` table of a system's grid.
pub fn system_g2(system: &SiliconSystem) -> Vec<f64> {
    let (lx, ly, lz) = system.lengths();
    g2_table(system.grid(), lx, ly, lz)
}

/// The bin of `−G` for every bin `G` of a grid, in FFT frequency order:
/// `(n − i) mod n` along each axis. On an even axis the Nyquist plane
/// `i = n/2` maps onto itself, as does the plane `i = 0`.
pub(crate) fn minus_g_bins(grid: GridDims) -> Vec<usize> {
    let neg = |i: usize, n: usize| (n - i) % n;
    let mut out = Vec::with_capacity(grid.len());
    for z in 0..grid.nz {
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                out.push(grid.index(neg(x, grid.nx), neg(y, grid.ny), neg(z, grid.nz)));
            }
        }
    }
    out
}

/// Grid-bin indices sorted by ascending `|G|²`.
pub fn sorted_g_indices(g2: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g2.len()).collect();
    order.sort_by(|&a, &b| g2[a].partial_cmp(&g2[b]).expect("finite |G|²"));
    order
}

/// The `count` grid bins of lowest `|G|²`, ascending, ties broken by bin
/// index: the first `count` entries of [`sorted_g_indices`] (a stable
/// sort), found by selection instead of sorting the whole grid.
pub(crate) fn lowest_g_indices(g2: &[f64], count: usize) -> Vec<usize> {
    let key = |a: &usize, b: &usize| {
        g2[*a]
            .partial_cmp(&g2[*b])
            .expect("finite |G|²")
            .then(a.cmp(b))
    };
    let mut order: Vec<usize> = (0..g2.len()).collect();
    if count < order.len() {
        order.select_nth_unstable_by(count, key);
        order.truncate(count);
    }
    order.sort_unstable_by(key);
    order
}

/// Normalized plane wave addressed by a linear FFT-grid frequency index
/// (unit 2-norm on the grid).
pub fn plane_wave(grid: GridDims, g_idx: usize) -> Vec<Complex64> {
    let nr = grid.len();
    let gx = g_idx % grid.nx;
    let gy = (g_idx / grid.nx) % grid.ny;
    let gz = g_idx / (grid.nx * grid.ny);
    let norm = 1.0 / (nr as f64).sqrt();
    let mut out = Vec::with_capacity(nr);
    for z in 0..grid.nz {
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                let phase = 2.0
                    * std::f64::consts::PI
                    * (gx as f64 * x as f64 / grid.nx as f64
                        + gy as f64 * y as f64 / grid.ny as f64
                        + gz as f64 * z as f64 / grid.nz as f64);
                out.push(Complex64::cis(phase).scale(norm));
            }
        }
    }
    out
}

/// Grid points within a radius of a grid site, as offsets from that
/// site: the scan the local potential and the projector spheres both
/// make around every atom. Offsets and radii depend only on the grid
/// spacing, never on the atom, so one stencil serves every atom of a
/// system; atoms differ only in the site the offsets wrap around.
pub(crate) struct SphereStencil {
    grid: GridDims,
    /// Grid spacing along each axis in Å.
    step: [f64; 3],
    /// Half-width of the scanned box along each axis, in grid steps.
    span: [isize; 3],
    /// `(dx, dy, dz)` of every point inside the sphere, in scan order
    /// (`dz` slowest, `dx` fastest).
    offsets: Vec<[isize; 3]>,
    /// Squared distance of every offset from the site, in Å².
    r2: Vec<f64>,
}

impl SphereStencil {
    /// Scans the box around a site for the points within `radius` Å.
    pub(crate) fn new(system: &SiliconSystem, radius: f64) -> Self {
        let grid = system.grid();
        let (lx, ly, lz) = system.lengths();
        let step = [
            lx / grid.nx as f64,
            ly / grid.ny as f64,
            lz / grid.nz as f64,
        ];
        let span = step.map(|h| (radius / h).ceil() as isize + 1);
        let rc2 = radius * radius;
        let mut offsets = Vec::new();
        let mut r2s = Vec::new();
        for dz in -span[2]..=span[2] {
            for dy in -span[1]..=span[1] {
                for dx in -span[0]..=span[0] {
                    let fx = dx as f64 * step[0];
                    let fy = dy as f64 * step[1];
                    let fz = dz as f64 * step[2];
                    let r2 = fx * fx + fy * fy + fz * fz;
                    if r2 <= rc2 {
                        offsets.push([dx, dy, dz]);
                        r2s.push(r2);
                    }
                }
            }
        }
        SphereStencil {
            grid,
            step,
            span,
            offsets,
            r2: r2s,
        }
    }

    /// Squared distance of every stencil point from its site, in Å².
    pub(crate) fn r2(&self) -> &[f64] {
        &self.r2
    }

    /// Linear grid index of every stencil point around the atom at `pos`
    /// (Cartesian Å), in stencil order, wrapped periodically around the
    /// nearest grid site.
    pub(crate) fn indices_at(&self, pos: [f64; 3]) -> impl Iterator<Item = usize> + '_ {
        let dims = [self.grid.nx, self.grid.ny, self.grid.nz];
        // Per axis, the wrapped coordinate of each offset in -span..=span.
        let wrap: [Vec<usize>; 3] = std::array::from_fn(|a| {
            let c = (pos[a] / self.step[a]).round() as isize;
            (-self.span[a]..=self.span[a])
                .map(|d| (c + d).rem_euclid(dims[a] as isize) as usize)
                .collect()
        });
        self.offsets.iter().map(move |&[dx, dy, dz]| {
            let at = |a: usize, d: isize| wrap[a][(d + self.span[a]) as usize];
            self.grid.index(at(0, dx), at(1, dy), at(2, dz))
        })
    }
}

/// Local (pseudo)potential of the silicon lattice on the grid, in eV:
/// a Gaussian attractive well at each atom site with periodic wrapping.
/// Depth/width chosen to be silicon-like (a few eV deep, ~bond-length
/// range).
///
/// The well is tabulated once on a sphere stencil of radius `4σ` and
/// accumulated atom by atom, in the stencil's scan order.
pub fn local_potential(system: &SiliconSystem, depth_ev: f64, sigma_angstrom: f64) -> Vec<f64> {
    let stencil = SphereStencil::new(system, 4.0 * sigma_angstrom);
    let inv2s2 = 1.0 / (2.0 * sigma_angstrom * sigma_angstrom);
    let well: Vec<f64> = stencil
        .r2()
        .iter()
        .map(|&r2| depth_ev * (-r2 * inv2s2).exp())
        .collect();
    let mut v = vec![0.0f64; system.grid().len()];
    for pos in system.atom_positions() {
        for (idx, w) in stencil.indices_at(pos).zip(&well) {
            v[idx] -= w;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndft_numerics::vecops;

    #[test]
    fn g2_is_zero_at_gamma_and_symmetric() {
        let sys = SiliconSystem::new(16).unwrap();
        let g2 = system_g2(&sys);
        assert_eq!(g2[0], 0.0);
        // Bin 1 and bin nx-1 alias to ±1 along x: same |G|².
        let grid = sys.grid();
        assert!((g2[1] - g2[grid.nx - 1]).abs() < 1e-12);
    }

    #[test]
    fn sorted_indices_start_at_gamma() {
        let sys = SiliconSystem::new(16).unwrap();
        let g2 = system_g2(&sys);
        let order = sorted_g_indices(&g2);
        assert_eq!(order[0], 0);
        for w in order.windows(2) {
            assert!(g2[w[0]] <= g2[w[1]] + 1e-12);
        }
    }

    #[test]
    fn lowest_indices_are_the_sorted_prefix() {
        for atoms in [8, 16, 24] {
            let g2 = system_g2(&SiliconSystem::new(atoms).unwrap());
            let order = sorted_g_indices(&g2);
            for count in (0..=12).chain([57, 200]) {
                assert_eq!(
                    lowest_g_indices(&g2, count),
                    order[..count],
                    "Si_{atoms}, {count} bins"
                );
            }
            assert_eq!(lowest_g_indices(&g2, g2.len() + 1), order);
        }
    }

    #[test]
    fn plane_waves_are_orthonormal() {
        let sys = SiliconSystem::new(16).unwrap();
        let grid = sys.grid();
        let a = plane_wave(grid, 1);
        let b = plane_wave(grid, 5);
        assert!((vecops::norm(&a) - 1.0).abs() < 1e-12);
        assert!(vecops::dot(&a, &b).abs() < 1e-10);
    }

    /// The per-atom box scan `local_potential` made before it used a
    /// shared stencil.
    fn local_potential_reference(system: &SiliconSystem, depth_ev: f64, sigma: f64) -> Vec<f64> {
        let grid = system.grid();
        let (lx, ly, lz) = system.lengths();
        let h = (
            lx / grid.nx as f64,
            ly / grid.ny as f64,
            lz / grid.nz as f64,
        );
        let mut v = vec![0.0f64; grid.len()];
        let cutoff = 4.0 * sigma;
        let inv2s2 = 1.0 / (2.0 * sigma * sigma);
        let span = |step: f64| (cutoff / step).ceil() as isize;
        for pos in system.atom_positions() {
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
                        if r2 > cutoff * cutoff {
                            continue;
                        }
                        let gx = (cx + dx).rem_euclid(grid.nx as isize) as usize;
                        let gy = (cy + dy).rem_euclid(grid.ny as isize) as usize;
                        let gz = (cz + dz).rem_euclid(grid.nz as isize) as usize;
                        v[grid.index(gx, gy, gz)] -= depth_ev * (-r2 * inv2s2).exp();
                    }
                }
            }
        }
        v
    }

    #[test]
    fn stencil_local_potential_matches_per_atom_scan_bitwise() {
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            for (depth, sigma) in [(5.0, 0.8), (3.5, 0.55)] {
                let fast = local_potential(&sys, depth, sigma);
                let slow = local_potential_reference(&sys, depth, sigma);
                assert!(
                    fast.iter()
                        .zip(&slow)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "Si_{atoms}, depth {depth}, sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn local_potential_is_attractive_and_bounded() {
        let sys = SiliconSystem::new(16).unwrap();
        let v = local_potential(&sys, 5.0, 0.8);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < -4.0, "wells should be a few eV deep: {min}");
        assert!(max <= 0.0, "purely attractive: {max}");
        // Deepest near an atom: check the first atom's grid point.
        let grid = sys.grid();
        let pos = sys.atom_positions()[0];
        let (lx, ly, lz) = sys.lengths();
        let idx = grid.index(
            (pos[0] / lx * grid.nx as f64).round() as usize % grid.nx,
            (pos[1] / ly * grid.ny as f64).round() as usize % grid.ny,
            (pos[2] / lz * grid.nz as f64).round() as usize % grid.nz,
        );
        assert!(v[idx] < 0.5 * min, "atom site should sit in a well");
    }
}
