//! Numeric validation harness: runs the oracle checks that justify
//! trusting the substrate, and prints a PASS/FAIL summary. Complements
//! `cargo test` with a single human-readable report.

use ndft_dft::basis::{sorted_g_indices, system_g2};
use ndft_dft::{model_oscillator_spectrum, run_lr_tddft, run_scf, ScfOptions, SiliconSystem};
use ndft_numerics::{
    dft_naive, gemm_f64, gemm_f64_naive, syevd, vecops, Complex64, Fft3Plan, FftPlan, Mat,
};

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn main() {
    ndft_bench::print_header("Numeric validation suite");
    let mut checks: Vec<Check> = Vec::new();

    // --- FFT vs naive DFT. ---
    {
        let n = 360;
        let plan = FftPlan::new(n);
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(0.37 * i as f64).scale(1.0 + 0.01 * i as f64))
            .collect();
        let mut fast = x.clone();
        plan.forward(&mut fast);
        let slow = dft_naive(&x);
        let err = fast
            .iter()
            .zip(&slow)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        checks.push(Check {
            name: "FFT(360) matches naive DFT",
            pass: err < 1e-8 * n as f64,
            detail: format!("max deviation {err:.3e}"),
        });
    }

    // --- FFT round trip + Parseval. ---
    {
        let n = 4096;
        let plan = FftPlan::new(n);
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::cis(1.7 * i as f64)).collect();
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        plan.forward(&mut y);
        let fe: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        plan.inverse(&mut y);
        let rt = y
            .iter()
            .zip(&x)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        checks.push(Check {
            name: "FFT(4096) round trip + Parseval",
            pass: rt < 1e-9 * n as f64 && (te - fe).abs() < 1e-8 * te,
            detail: format!(
                "round-trip {rt:.3e}, energy drift {:.3e}",
                (te - fe).abs() / te
            ),
        });
    }

    // --- GEMM blocked vs naive. ---
    {
        let a = Mat::from_fn(97, 71, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Mat::from_fn(71, 83, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        let fast = gemm_f64(&a, &b);
        let slow = gemm_f64_naive(&a, &b);
        let err = fast
            .as_slice()
            .iter()
            .zip(slow.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        checks.push(Check {
            name: "GEMM 97×71×83 blocked vs naive",
            pass: err < 1e-9,
            detail: format!("max deviation {err:.3e}"),
        });
    }

    // --- SYEVD reconstruction. ---
    {
        let n = 64;
        let a = Mat::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 }
        });
        let eig = syevd(&a).expect("converges");
        let trace_err = (a.trace() - eig.values.iter().sum::<f64>()).abs();
        let mut resid = 0.0f64;
        for j in 0..n {
            for i in 0..n {
                let mut av = 0.0;
                for k in 0..n {
                    av += a[(i, k)] * eig.vectors[(k, j)];
                }
                resid = resid.max((av - eig.values[j] * eig.vectors[(i, j)]).abs());
            }
        }
        checks.push(Check {
            name: "SYEVD(64) residual + trace",
            pass: resid < 1e-9 && trace_err < 1e-9,
            detail: format!("‖Av−λv‖∞ = {resid:.3e}, trace drift {trace_err:.3e}"),
        });
    }

    // --- LR-TDDFT spectrum physicality. ---
    {
        let sys = SiliconSystem::new(16).expect("Si_16");
        let spec = run_lr_tddft(&sys).expect("pipeline runs");
        let ascending = spec.energies_ev.windows(2).all(|w| w[0] <= w[1] + 1e-10);
        checks.push(Check {
            name: "LR-TDDFT Si_16 spectrum",
            pass: spec.optical_gap() > 0.0 && ascending && spec.hermiticity_error < 1e-8,
            detail: format!(
                "gap {:.3} eV, Hermiticity {:.2e}",
                spec.optical_gap(),
                spec.hermiticity_error
            ),
        });
    }

    // --- SCF ground state. ---
    {
        let sys = SiliconSystem::new(16).expect("Si_16");
        let gs = run_scf(
            &sys,
            &ScfOptions {
                bands: 4,
                max_iterations: 5,
                ..Default::default()
            },
        )
        .expect("SCF runs");
        let ascending = gs.energies_ev.windows(2).all(|w| w[0] <= w[1] + 1e-9);
        // At Γ the orbitals are real: the imaginary part of each, relative
        // to its norm, and the largest deviation of the Gram matrix from
        // the identity.
        let orbitals = gs.real_space_orbitals(&sys);
        let nb = orbitals.rows();
        let imaginary = (0..nb)
            .map(|b| {
                let psi = orbitals.row(b);
                let im = psi.iter().map(|z| z.im * z.im).sum::<f64>().sqrt();
                im / vecops::norm(psi)
            })
            .fold(0.0f64, f64::max);
        let mut gram = 0.0f64;
        for i in 0..nb {
            for j in 0..nb {
                let d = vecops::dot(orbitals.row(i), orbitals.row(j));
                let identity = Complex64::from_real(if i == j { 1.0 } else { 0.0 });
                gram = gram.max((d - identity).abs());
            }
        }
        // The bands live on the wavefunction sphere, the lowest
        // `wave_sphere_len` bins by |G|²: the norm of each orbital's
        // plane waves outside it, relative to the whole.
        let plan = Fft3Plan::new(sys.grid());
        let outside_bins = &sorted_g_indices(&system_g2(&sys))[sys.wave_sphere_len()..];
        let outside = (0..nb)
            .map(|b| {
                let mut c = orbitals.row(b).to_vec();
                plan.forward(&mut c);
                let out = outside_bins.iter().map(|&g| c[g].norm_sqr()).sum::<f64>();
                (out / c.iter().map(|z| z.norm_sqr()).sum::<f64>()).sqrt()
            })
            .fold(0.0f64, f64::max);
        checks.push(Check {
            name: "SCF Si_16 ground state",
            pass: ascending
                && gs.energies_ev[0] < 0.0
                && gs.max_residual().is_finite()
                && imaginary <= 1e-12
                && gram <= 1e-10
                && outside <= 1e-12,
            detail: format!(
                "E₀ = {:.3} eV, max residual {:.2e}, ‖Im ψ‖/‖ψ‖ {imaginary:.1e}, Gram error {gram:.1e}, \
                 off-sphere {outside:.1e}",
                gs.energies_ev[0],
                gs.max_residual()
            ),
        });
    }

    // --- Oscillator strengths. ---
    {
        let sys = SiliconSystem::new(16).expect("Si_16");
        let spec = model_oscillator_spectrum(&sys).expect("spectrum");
        let nonneg = spec.strengths.iter().all(|f| *f >= 0.0 && f.is_finite());
        let total: f64 = spec.strengths.iter().sum();
        checks.push(Check {
            name: "Oscillator strengths Si_16",
            pass: nonneg && total > 0.0,
            detail: format!("Σf = {total:.3e}"),
        });
    }

    // --- Report. ---
    let mut failures = 0;
    for c in &checks {
        let status = if c.pass { "PASS" } else { "FAIL" };
        if !c.pass {
            failures += 1;
        }
        println!("[{status}] {:<38} {}", c.name, c.detail);
    }
    println!("\n{} checks, {} failures", checks.len(), failures);
    if failures > 0 {
        std::process::exit(1);
    }
}
