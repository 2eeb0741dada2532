//! Process topology and communication volumes.
//!
//! LR-TDDFT alternates between orbital-major and pair-major data layouts;
//! each switch is an `MPI_Alltoall` (Fig. 1). This module computes, for a
//! given process topology, how much of that traffic stays inside a
//! sharing domain (an HBM stack) and how much must cross the mesh — the
//! quantity the paper's hierarchical communication scheme (§IV-C) is
//! designed to minimize.

use serde::{Deserialize, Serialize};

/// Where processes live: `domains` sharing domains (stacks) with
/// `processes_per_domain` processes each. The CPU baseline is one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessTopology {
    /// Sharing domains (HBM stacks, GPUs, or sockets).
    pub domains: usize,
    /// Processes per domain.
    pub processes_per_domain: usize,
}

impl ProcessTopology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero.
    pub fn new(domains: usize, processes_per_domain: usize) -> Self {
        assert!(
            domains > 0 && processes_per_domain > 0,
            "topology must be non-empty"
        );
        ProcessTopology {
            domains,
            processes_per_domain,
        }
    }

    /// Total process count.
    pub fn total(&self) -> usize {
        self.domains * self.processes_per_domain
    }
}

/// Decomposition of an all-to-all exchange.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommVolume {
    /// Total bytes exchanged (sum over all pairs of distinct processes).
    pub total: u64,
    /// Bytes moving between processes in the same domain.
    pub intra_domain: u64,
    /// Bytes crossing domain boundaries (mesh traffic).
    pub inter_domain: u64,
}

impl CommVolume {
    /// Fraction of traffic that crosses domains.
    pub fn remote_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.inter_domain as f64 / self.total as f64
        }
    }
}

/// Splits an all-to-all of `volume` total bytes over a topology.
///
/// In a balanced all-to-all each ordered process pair (p ≠ q) carries
/// `volume / (P·(P-1))`; pairs within a domain are intra-domain.
///
/// # Examples
///
/// ```
/// use ndft_dft::dist::{alltoall_volume, ProcessTopology};
///
/// let v = alltoall_volume(1_000_000, ProcessTopology::new(16, 16));
/// // 16 stacks: 15/16 of partners are remote ⇒ ~94% of traffic crosses.
/// assert!(v.remote_fraction() > 0.9);
/// ```
pub fn alltoall_volume(volume: u64, topo: ProcessTopology) -> CommVolume {
    let p = topo.total() as u64;
    if p <= 1 {
        return CommVolume {
            total: 0,
            intra_domain: 0,
            inter_domain: 0,
        };
    }
    let pairs_total = p * (p - 1);
    let intra_pairs = topo.domains as u64
        * (topo.processes_per_domain as u64)
        * (topo.processes_per_domain as u64 - 1);
    let intra = volume * intra_pairs / pairs_total;
    CommVolume {
        total: volume,
        intra_domain: intra,
        inter_domain: volume - intra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_has_no_comm() {
        let v = alltoall_volume(1 << 20, ProcessTopology::new(1, 1));
        assert_eq!(v.total, 0);
        assert_eq!(v.remote_fraction(), 0.0);
    }

    #[test]
    fn one_domain_is_all_intra() {
        let v = alltoall_volume(1 << 20, ProcessTopology::new(1, 8));
        assert_eq!(v.inter_domain, 0);
        assert_eq!(v.intra_domain, v.total);
    }

    #[test]
    fn per_process_domains_split_matches_pair_counting() {
        // 2 domains × 2 procs: 12 ordered pairs, 4 intra (2 per domain).
        let v = alltoall_volume(1200, ProcessTopology::new(2, 2));
        assert_eq!(v.intra_domain, 400);
        assert_eq!(v.inter_domain, 800);
    }

    #[test]
    fn paper_ndp_is_mostly_remote() {
        let v = alltoall_volume(1 << 30, ProcessTopology::new(16, 16));
        // intra pairs = 16·16·15 = 3840 of 256·255 = 65280 → ~5.9% intra.
        assert!((v.remote_fraction() - 0.9412).abs() < 1e-3);
    }

    #[test]
    fn volumes_add_up() {
        for (d, ppd) in [(2, 3), (4, 4), (16, 16)] {
            let v = alltoall_volume(999_983, ProcessTopology::new(d, ppd));
            assert_eq!(v.intra_domain + v.inter_domain, v.total);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_topology_panics() {
        let _ = ProcessTopology::new(0, 4);
    }
}
