//! Ground state → excited states: the full physics chain.
//!
//! Solves the model Kohn–Sham problem for Si_16 with the plane-wave
//! Davidson solver (`ndft-dft::scf`), then feeds the converged orbitals
//! into the LR-TDDFT response pipeline and prints both spectra side by
//! side with the quick model-orbital path.
//!
//! Run with: `cargo run --release --example ground_state`

use ndft::dft::{lr_tddft_from_orbitals, run_lr_tddft, run_scf, ScfOptions, SiliconSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = SiliconSystem::new(16)?;
    println!("Solving the Kohn–Sham ground state of {sys} …");
    let nv = sys.valence_window();
    let nc = sys.conduction_window();
    let opts = ScfOptions {
        bands: nv + nc,
        max_iterations: 8,
        ..Default::default()
    };
    let gs = run_scf(&sys, &opts)?;
    println!(
        "Converged {} bands in {} iterations (max residual {:.2e})",
        gs.energies_ev.len(),
        gs.iterations,
        gs.max_residual()
    );
    println!("Band energies (eV):");
    for (b, e) in gs.energies_ev.iter().enumerate() {
        let tag = if b < nv { "valence " } else { "conduct." };
        println!("  band {b:>2} [{tag}]  {e:>9.4}");
    }

    // Split the solved bands into the LR-TDDFT windows. The grid-norm
    // orbitals must be rescaled to quadrature normalization (⟨ψ|ψ⟩dv = 1).
    let orbitals = gs.real_space_orbitals(&sys);
    let nr = sys.grid().len();
    let dv = sys.volume() / nr as f64;
    let s = 1.0 / dv.sqrt();
    let scale_rows = |rows: std::ops::Range<usize>| {
        let mut data = Vec::with_capacity(rows.len() * nr);
        for r in rows {
            data.extend(orbitals.row(r).iter().map(|z| z.scale(s)));
        }
        ndft::numerics::CMat::from_vec(data.len() / nr, nr, data)
    };
    let valence = scale_rows(0..nv);
    let conduction = scale_rows(nv..nv + nc);
    let eps_v = gs.energies_ev[..nv].to_vec();
    let eps_c = gs.energies_ev[nv..nv + nc].to_vec();

    println!("\nRunning LR-TDDFT on the SCF orbitals …");
    let scf_spectrum = lr_tddft_from_orbitals(&sys, &valence, &conduction, &eps_v, &eps_c)?;
    let model_spectrum = run_lr_tddft(&sys)?;
    println!(
        "{:<8} {:>14} {:>14}",
        "state", "SCF path (eV)", "model path (eV)"
    );
    for i in 0..6.min(scf_spectrum.energies_ev.len()) {
        println!(
            "{:<8} {:>14.4} {:>14.4}",
            format!("ω_{i}"),
            scf_spectrum.energies_ev[i],
            model_spectrum.energies_ev[i]
        );
    }
    println!(
        "\nOptical gaps: SCF {:.3} eV, model {:.3} eV (both positive and finite —",
        scf_spectrum.optical_gap(),
        model_spectrum.optical_gap()
    );
    println!("the timing study is insensitive to which orbital source is used).");
    for (path, gap) in [
        ("SCF", scf_spectrum.optical_gap()),
        ("model", model_spectrum.optical_gap()),
    ] {
        if !(gap.is_finite() && gap > 0.0) {
            return Err(format!("the {path} path's optical gap is {gap} eV").into());
        }
    }
    Ok(())
}
