//! Plane-wave basis helpers shared by the ground-state solver and the
//! LR-TDDFT driver: G-vector tables, normalized plane waves, and the
//! local potential of the silicon lattice.

use crate::system::SiliconSystem;
use ndft_numerics::{Complex64, GridDims, StickMap};

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

/// The bin of `−G` for the bin `g` of a grid, in FFT frequency order:
/// `(n − i) mod n` along each axis. On an even axis the Nyquist plane
/// `i = n/2` maps onto itself, as does the plane `i = 0`.
fn minus_g(grid: GridDims, g: usize) -> usize {
    let neg = |i: usize, n: usize| (n - i) % n;
    let (x, y, z) = (
        g % grid.nx,
        (g / grid.nx) % grid.ny,
        g / (grid.nx * grid.ny),
    );
    grid.index(neg(x, grid.nx), neg(y, grid.ny), neg(z, grid.nz))
}

/// The bin of `−G` for every bin `G` of a grid.
#[cfg(test)]
pub(crate) fn minus_g_bins(grid: GridDims) -> Vec<usize> {
    (0..grid.len()).map(|g| minus_g(grid, g)).collect()
}

/// Grid-bin indices sorted by ascending `|G|²`.
pub fn sorted_g_indices(g2: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g2.len()).collect();
    order.sort_by(|&a, &b| g2[a].partial_cmp(&g2[b]).expect("finite |G|²"));
    order
}

/// The bins of a grid's wavefunction sphere `|G| ≤ G_w = π/(2h)`, half the
/// grid's Nyquist wavenumber `π/h`: the usual density-grid relation, under
/// which the density's components, which reach `2·G_w`, fit on the grid.
/// A system's grid has the same spacing `h` along every axis, so with
/// signed frequencies `k_a` the sphere is `Σ (k_a/n_a)² ≤ 1/16`, tested
/// here in integers (`16·Σ (k_a·P/n_a)² ≤ P²` with `P = nx·ny·nz`) so that
/// a bin on the surface is never lost to rounding. The bins come
/// column by column: every `(kx, ky)` with its run of `kz`.
pub(crate) fn wave_sphere_bins(grid: GridDims) -> impl Iterator<Item = usize> {
    let p = grid.len() as i64;
    let (qx, qy, qz) = (p / grid.nx as i64, p / grid.ny as i64, p / grid.nz as i64);
    let span = |n: usize| {
        let r = (n / 4) as i64;
        -r..=r
    };
    let bin = |k: i64, n: usize| k.rem_euclid(n as i64) as usize;
    span(grid.nx)
        .flat_map(move |kx| span(grid.ny).map(move |ky| (kx, ky)))
        .flat_map(move |(kx, ky)| {
            let rest = p * p - 16 * ((kx * qx).pow(2) + (ky * qy).pow(2));
            // The largest |kz| with 16·(kz·qz)² ≤ rest, if any.
            let top = (rest >= 0).then(|| (rest / (16 * qz * qz)).isqrt());
            top.into_iter().flat_map(move |top| {
                (-top..=top)
                    .map(move |kz| grid.index(bin(kx, grid.nx), bin(ky, grid.ny), bin(kz, grid.nz)))
            })
        })
}

/// The plane-wave basis of the band solve: a set of bins closed under
/// `G → −G`, stored as half of itself. Every band is real, so its
/// coefficients satisfy `c(−G) = c(G)*`, and one coefficient per ±G pair
/// carries the band, as in the `gamma_only` path of plane-wave codes:
///
/// - a self-conjugate bin (`G = −G`: `G = 0`, or a Nyquist bin) holds a
///   real value, which counts once in an inner product;
/// - each ±G pair is stored at its lower bin as the complex `c(G)`, which
///   counts twice.
///
/// So `⟨c|d⟩ = Σ_sc c·d + 2·Σ_pairs Re(c̄·d)` ([`half_sphere_dot`]). The
/// stored bins are ordered by ascending `(|G|², bin)`.
pub(crate) struct WaveSphere {
    /// The stored bin of every coefficient.
    pub(crate) bins: Vec<usize>,
    /// The bin of `−G` for every stored bin (itself when self-conjugate).
    pub(crate) mirrors: Vec<usize>,
    /// `|G|²` of every stored bin.
    pub(crate) g2: Vec<f64>,
    /// The positions of the self-conjugate bins among the stored ones.
    pub(crate) self_conjugate: Vec<usize>,
    /// The x-rows and z-slabs the full set (both members of each pair)
    /// meets: the pruning of the solve's 3-D FFTs.
    pub(crate) sticks: StickMap,
}

impl WaveSphere {
    /// The wavefunction sphere of a grid ([`wave_sphere_bins`]), with the
    /// grid's `|G|²` table `g2`.
    pub(crate) fn new(grid: GridDims, g2: &[f64]) -> Self {
        Self::of_bins(grid, g2, wave_sphere_bins(grid))
    }

    /// A sphere that holds every bin of the grid: the full-grid basis the
    /// production sphere is checked against.
    #[cfg(test)]
    pub(crate) fn full(grid: GridDims, g2: &[f64]) -> Self {
        Self::of_bins(grid, g2, 0..grid.len())
    }

    /// The half-sphere of a set of bins closed under `G → −G`.
    fn of_bins(grid: GridDims, g2: &[f64], bins: impl Iterator<Item = usize>) -> Self {
        let mut pairs: Vec<(usize, usize)> = bins
            .map(|g| (g, minus_g(grid, g)))
            .filter(|&(g, m)| g <= m)
            .collect();
        pairs.sort_unstable_by(|a, b| {
            g2[a.0]
                .partial_cmp(&g2[b.0])
                .expect("finite |G|²")
                .then(a.0.cmp(&b.0))
        });
        let sticks = StickMap::new(grid, pairs.iter().flat_map(|&(g, m)| [g, m]));
        WaveSphere {
            bins: pairs.iter().map(|p| p.0).collect(),
            mirrors: pairs.iter().map(|p| p.1).collect(),
            g2: pairs.iter().map(|p| g2[p.0]).collect(),
            self_conjugate: (0..pairs.len())
                .filter(|&j| pairs[j].0 == pairs[j].1)
                .collect(),
            sticks,
        }
    }

    /// Stored coefficients: the length of a band's row.
    pub(crate) fn len(&self) -> usize {
        self.bins.len()
    }

    /// Real dimension of the basis: the bins of the full set, one per
    /// self-conjugate bin and two per pair. No more bands than this fit.
    pub(crate) fn dim(&self) -> usize {
        2 * self.len() - self.self_conjugate.len()
    }

    /// Writes the half-sphere rows of the real bands `a` and `b` into the
    /// grid as the coefficients of `a + i·b` over the whole sphere:
    /// `X(G) = a(G) + i·b(G)` and `X(−G) = a(G)* + i·b(G)*`, zero off the
    /// sphere. A lone `a` takes `b = 0`. Works alike on any two real
    /// bands: `F(ψ_a + iψ_b) = Fψ_a + i·Fψ_b`.
    pub(crate) fn scatter(&self, grid: &mut [Complex64], a: &[Complex64], b: Option<&[Complex64]>) {
        grid.fill(Complex64::ZERO);
        for (j, (&g, &m)) in self.bins.iter().zip(&self.mirrors).enumerate() {
            let (x, y) = (a[j], b.map_or(Complex64::ZERO, |b| b[j]));
            grid[m] = Complex64::new(x.re + y.im, y.re - x.im);
            grid[g] = Complex64::new(x.re - y.im, x.im + y.re);
        }
    }
}

/// `⟨c|d⟩ = Σ_sc c·d + 2·Σ_pairs Re(c̄·d)` of two real bands on a
/// half-sphere whose self-conjugate coefficients sit at the positions
/// `self_conjugate` (their imaginary parts are zero). Four partial sums
/// keep the adds independent, so they vectorize.
pub(crate) fn half_sphere_dot(self_conjugate: &[usize], c: &[Complex64], d: &[Complex64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for (x, y) in c.chunks_exact(2).zip(d.chunks_exact(2)) {
        acc[0] += x[0].re * y[0].re;
        acc[1] += x[0].im * y[0].im;
        acc[2] += x[1].re * y[1].re;
        acc[3] += x[1].im * y[1].im;
    }
    let tail: f64 = c
        .chunks_exact(2)
        .remainder()
        .iter()
        .zip(d.chunks_exact(2).remainder())
        .map(|(x, y)| x.re * y.re + x.im * y.im)
        .sum();
    let once: f64 = self_conjugate.iter().map(|&j| c[j].re * d[j].re).sum();
    2.0 * ((acc[0] + acc[2]) + (acc[1] + acc[3]) + tail) - once
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
    fn wave_sphere_is_closed_ordered_and_below_nyquist() {
        // (atoms, bins of the sphere): G_w = π/(2h) with 20 points per
        // cell edge is |k| ≤ 5 in steps of 2π/(one cell edge), on every
        // axis of a cell.
        for (atoms, len) in [(8, 515), (16, 1_013), (24, 1_527)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let grid = sys.grid();
            let g2 = system_g2(&sys);
            let sphere = WaveSphere::new(grid, &g2);
            assert_eq!(sys.wave_sphere_len(), len, "Si_{atoms}");
            assert_eq!(sphere.dim(), len, "Si_{atoms}");
            // Half the sphere: G = 0 alone, then one bin per ±G pair.
            assert_eq!(sphere.self_conjugate, [0], "Si_{atoms}");
            assert_eq!(sphere.len(), len.div_ceil(2), "Si_{atoms}");
            assert_eq!(sphere.bins[0], 0, "Si_{atoms}");
            let mut all: Vec<usize> = sphere.bins.iter().chain(&sphere.mirrors).copied().collect();
            all.sort_unstable();
            all.dedup();
            let mut expect: Vec<usize> = wave_sphere_bins(grid).collect();
            expect.sort_unstable();
            assert_eq!(all, expect, "Si_{atoms}: both members of every pair");
            let inside = |g: usize| all.binary_search(&g).is_ok();
            // Closed under G → −G, and bounded by |G|² ≤ G_w².
            let (lx, ..) = sys.lengths();
            let h = lx / grid.nx as f64;
            let gw2 = (std::f64::consts::PI / (2.0 * h)).powi(2);
            for (g, &g2) in g2.iter().enumerate() {
                assert_eq!(inside(g), inside(minus_g(grid, g)), "Si_{atoms}, bin {g}");
                let below = g2 <= gw2 * (1.0 + 1e-12);
                assert_eq!(inside(g), below, "Si_{atoms}, bin {g}");
            }
            // Ordered by |G|² (ties by bin), each pair at its lower bin.
            for w in sphere.bins.windows(2) {
                assert!((g2[w[0]], w[0]) < (g2[w[1]], w[1]), "Si_{atoms}: {w:?}");
            }
            for (j, (&g, &m)) in sphere.bins.iter().zip(&sphere.mirrors).enumerate() {
                assert_eq!(m, minus_g(grid, g));
                assert!(g < m || j == 0, "Si_{atoms}, coefficient {j}");
                assert_eq!(sphere.g2[j].to_bits(), g2[g].to_bits());
            }
            // No Nyquist plane: every frequency is within a quarter of its
            // axis.
            for &g in &all {
                let (x, y, z) = (
                    g % grid.nx,
                    (g / grid.nx) % grid.ny,
                    g / (grid.nx * grid.ny),
                );
                for (i, n) in [(x, grid.nx), (y, grid.ny), (z, grid.nz)] {
                    assert_ne!(i, n / 2, "Si_{atoms}, bin {g}");
                    assert!(i.min(n - i) <= n / 4, "Si_{atoms}, bin {g}");
                }
            }
        }
    }

    #[test]
    fn half_sphere_dot_counts_pairs_twice() {
        // ⟨c|d⟩ over the full set of bins equals c₀d₀ + 2·Σ Re(c̄d) over the
        // stored half.
        let sys = SiliconSystem::new(8).unwrap();
        let grid = sys.grid();
        let sphere = WaveSphere::new(grid, &system_g2(&sys));
        let half = |seed: f64| -> Vec<Complex64> {
            (0..sphere.len())
                .map(|j| {
                    let t = seed * (j as f64 + 1.0);
                    Complex64::new(t.sin(), if j == 0 { 0.0 } else { t.cos() })
                })
                .collect()
        };
        let full = |c: &[Complex64]| {
            let mut out = vec![Complex64::ZERO; grid.len()];
            for ((&g, &m), &z) in sphere.bins.iter().zip(&sphere.mirrors).zip(c) {
                out[m] = z.conj();
                out[g] = z;
            }
            out
        };
        let (c, d) = (half(0.37), half(1.91));
        let expect = vecops::dot(&full(&c), &full(&d));
        assert!(expect.im.abs() < 1e-12);
        assert!(
            (half_sphere_dot(&sphere.self_conjugate, &c, &d) - expect.re).abs()
                < 1e-12 * expect.re.abs().max(1.0)
        );
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
