//! Table I reproduction: pseudopotential memory footprints.
//!
//! Composes the sizing model of `ndft-dft::pseudo` with the process
//! topologies of the three platforms:
//!
//! * **CPU**: 8 processes (one per core of the Table III host CPU), full
//!   per-process replication.
//! * **NDP (baseline)**: one process per stack (16), full replication plus
//!   a staging/double-buffering overhead for marshalling blocks into
//!   unit-local DRAM.
//! * **NDFT**: the shared-block layout — one spatially-partitioned copy
//!   per stack (with halos) plus per-process index tables.
//!
//! The CPU cells are calibrated to Table I exactly (DESIGN.md §4.3); the
//! NDP and NDFT rows *follow* from the topology model, reproducing the
//! paper's +140 %/+156 % inflation and the −57.8 % NDFT reduction.

use ndft_dft::pseudo::{footprint_bytes, PseudoLayout};
use ndft_dft::SiliconSystem;
use serde::{Deserialize, Serialize};

/// Bytes per GiB.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// The platforms whose footprints Table I compares (plus NDFT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Platform {
    /// Standalone CPU execution (8 processes).
    Cpu,
    /// NDP execution with the traditional replicated layout.
    NdpReplicated,
    /// NDP execution with NDFT's shared-block layout.
    NdftSharedBlock,
}

impl Platform {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::Cpu => "CPU",
            Platform::NdpReplicated => "NDP",
            Platform::NdftSharedBlock => "NDFT",
        }
    }

    /// The pseudopotential layout this platform uses.
    pub fn layout(&self) -> PseudoLayout {
        match self {
            Platform::Cpu => PseudoLayout::Replicated {
                processes: 8,
                staging_overhead_ppm: 0,
            },
            Platform::NdpReplicated => {
                // One process per stack; blocks staged into unit-local DRAM
                // with ~38% double-buffering overhead.
                PseudoLayout::Replicated {
                    processes: 16,
                    staging_overhead_ppm: 380,
                }
            }
            Platform::NdftSharedBlock => PseudoLayout::SharedBlock {
                domains: 16,
                processes: 256,
                halo_angstrom: 4.9,
            },
        }
    }
}

/// One row of the Table I reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FootprintRow {
    /// Platform.
    pub platform: Platform,
    /// Physical system label (e.g. `Si_64`).
    pub system: String,
    /// Pseudopotential footprint in bytes.
    pub bytes: u64,
    /// Footprint as a fraction of the 64 GB system memory.
    pub fraction: f64,
}

impl FootprintRow {
    /// Footprint in GiB.
    pub fn gib(&self) -> f64 {
        self.bytes as f64 / GIB
    }
}

/// System memory capacity of both evaluation platforms (64 GB).
const SYSTEM_MEMORY_BYTES: u64 = 64 * 1024 * 1024 * 1024;

/// Computes one footprint row.
pub fn footprint_row(system: &SiliconSystem, platform: Platform) -> FootprintRow {
    let bytes = footprint_bytes(system, platform.layout());
    FootprintRow {
        platform,
        system: system.label(),
        bytes,
        fraction: bytes as f64 / SYSTEM_MEMORY_BYTES as f64,
    }
}

/// The full Table I reproduction (plus the NDFT rows discussed in §VI-A).
pub fn table1_rows() -> Vec<FootprintRow> {
    let small = SiliconSystem::small();
    let large = SiliconSystem::large();
    let mut rows = Vec::new();
    for sys in [&small, &large] {
        for p in [
            Platform::NdpReplicated,
            Platform::Cpu,
            Platform::NdftSharedBlock,
        ] {
            rows.push(footprint_row(sys, p));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(atoms: usize, p: Platform) -> FootprintRow {
        footprint_row(&SiliconSystem::new(atoms).unwrap(), p)
    }

    #[test]
    fn cpu_cells_match_table1() {
        // Table I: CPU small 1.84 GB (2.88 %), CPU large 13.8 GB (21.56 %).
        let small = row(64, Platform::Cpu);
        let large = row(1024, Platform::Cpu);
        assert!(
            (small.gib() - 1.84).abs() < 0.02,
            "CPU small {}",
            small.gib()
        );
        assert!(
            (large.gib() - 13.8).abs() < 0.1,
            "CPU large {}",
            large.gib()
        );
        assert!((small.fraction - 0.0288).abs() < 0.001);
        assert!((large.fraction - 0.2156).abs() < 0.005);
    }

    #[test]
    fn ndp_inflation_matches_paper_shape() {
        // Paper: NDP is +140.2 % (small) and +155.7 % (large) over CPU.
        let ratio_small = row(64, Platform::NdpReplicated).gib() / row(64, Platform::Cpu).gib();
        let ratio_large = row(1024, Platform::NdpReplicated).gib() / row(1024, Platform::Cpu).gib();
        assert!(
            ratio_small > 2.0 && ratio_small < 3.0,
            "small ratio {ratio_small}"
        );
        assert!(
            ratio_large > 2.2 && ratio_large < 3.1,
            "large ratio {ratio_large}"
        );
        assert!(
            ratio_large > ratio_small,
            "inflation grows with system size"
        );
    }

    #[test]
    fn ndp_large_system_risks_oom() {
        // Paper: 55.15 % of system memory for pseudopotentials alone.
        let r = row(1024, Platform::NdpReplicated);
        assert!(r.fraction > 0.5, "NDP large fraction {}", r.fraction);
        // Si_2048 under the replicated layout exceeds memory outright.
        let r2k = row(2048, Platform::NdpReplicated);
        assert!(
            r2k.fraction > 1.0,
            "Si_2048 replicated must OOM: {}",
            r2k.fraction
        );
    }

    #[test]
    fn ndft_reduction_matches_paper_shape() {
        // Paper §VI-A: NDFT reduces the large-system footprint by 57.8 %
        // versus NDP, landing at ≈1.08× the CPU footprint.
        let ndp = row(1024, Platform::NdpReplicated);
        let ndft = row(1024, Platform::NdftSharedBlock);
        let cpu = row(1024, Platform::Cpu);
        let reduction = 1.0 - ndft.gib() / ndp.gib();
        let vs_cpu = ndft.gib() / cpu.gib();
        assert!(reduction > 0.5 && reduction < 0.68, "reduction {reduction}");
        assert!(vs_cpu > 0.9 && vs_cpu < 1.25, "vs CPU {vs_cpu}");
    }

    #[test]
    fn ndft_solves_the_si2048_oom() {
        let r = row(2048, Platform::NdftSharedBlock);
        assert!(r.fraction < 1.0, "NDFT Si_2048 fits: {}", r.fraction);
    }

    #[test]
    fn table_has_six_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 6);
        assert!(rows
            .iter()
            .any(|r| r.system == "Si_64" && r.platform == Platform::Cpu));
        assert!(rows
            .iter()
            .any(|r| r.system == "Si_1024" && r.platform == Platform::NdftSharedBlock));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Platform::Cpu.label(), "CPU");
        assert_eq!(Platform::NdpReplicated.label(), "NDP");
        assert_eq!(Platform::NdftSharedBlock.label(), "NDFT");
    }
}
