//! Measurement engine: turns the structural models into *measured*
//! effective bandwidths and latencies.
//!
//! The NDFT timing study needs, for every (memory system × access pattern)
//! pair, the bandwidth a kernel actually sustains. Rather than hard-coding
//! efficiency factors, this module replays synthetic address streams
//! (generated by [`crate::pattern`]) through the DRAM model of each memory
//! system and records what it achieves. The resulting [`Calibration`] is
//! the contract between the simulator substrate and the machine models in
//! `ndft-core`.

use crate::config::{CpuBaselineConfig, SystemConfig};
use crate::dram::{DramModel, MemRequest};
use crate::noc::MeshNoc;
use crate::pattern::{coalesce_to_lines, generate, AccessPattern};
use serde::{Deserialize, Serialize};

/// Requests per measurement run (enough to saturate and amortize warmup).
const MEASURE_REQUESTS: usize = 32_768;
/// Useful payload per strided/random access: one `Complex64`.
const USEFUL_BYTES_PER_ACCESS: u64 = 16;

/// Effective bandwidths of one memory system under the three canonical
/// patterns, plus its unloaded latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthProfile {
    /// Sustained streaming bandwidth (bytes/s), full lines useful.
    pub stream_bw: f64,
    /// Effective bandwidth under large-stride walks (bytes of *useful*
    /// payload per second; each access drags a full burst).
    pub strided_bw: f64,
    /// Effective bandwidth under uniform random access.
    pub random_bw: f64,
    /// Unloaded single-request latency in seconds.
    pub idle_latency: f64,
}

/// The full measured calibration of the evaluation platforms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The standalone CPU baseline's DDR4 system (all channels).
    pub cpu_baseline: BandwidthProfile,
    /// One HBM2 stack as seen by its local NDP units.
    pub ndp_stack: BandwidthProfile,
    /// All stacks in aggregate (NDP units working on local partitions).
    pub ndp_aggregate: BandwidthProfile,
    /// The host CPU reaching the stacked memory over the off-chip link.
    pub host_to_stack: BandwidthProfile,
    /// One mesh link's sustained bandwidth (bytes/s).
    pub noc_link_bw: f64,
    /// Per-hop NoC latency in seconds.
    pub noc_hop_latency: f64,
}

impl Calibration {
    /// The paper's Table III calibration, recorded: bit for bit what
    /// [`Calibration::measure_paper_table3`] returns, i.e.
    /// [`Calibration::measure`] of [`SystemConfig::paper_table3`] and
    /// [`CpuBaselineConfig::paper_baseline`] with seed 7.
    ///
    /// Every engine process runs on this calibration, so it starts without
    /// replaying the ~98k DRAM requests that measure it. The test
    /// `engine::tests::paper_calibration_bits_are_pinned` re-measures it
    /// and fails, printing the new bits, when a change to the DRAM or NoC
    /// model moves any of them; such a change re-records them here.
    pub const PAPER_TABLE3: Calibration = Calibration::from_bits([
        // cpu_baseline
        0x4240fb5271d7fe93,
        0x41ff877595fc40cd,
        0x41f0973f12034a77,
        0x3e601b2b29a4692b,
        // ndp_stack
        0x4238e07406e2f0ed,
        0x41f10401ff9260a2,
        0x41ef5d8c7a2ec8df,
        0x3e601b2b29a4692b,
        // ndp_aggregate
        0x4278e07406e2f0ed,
        0x42310401ff9260a2,
        0x422f5d8c7a2ec8df,
        0x3e601b2b29a4692b,
        // host_to_stack
        0x422dcd6500000000,
        0x421dcd6500000000,
        0x421dcd6500000000,
        0x3e7d87247702c0d0,
        // noc_link_bw, noc_hop_latency
        0x421dcd5f697e1c38,
        0x3e19c511dc3a41df,
    ]);

    /// Measures the inputs [`Calibration::PAPER_TABLE3`] records: the
    /// paper's Table III system and CPU baseline, seed 7.
    pub fn measure_paper_table3() -> Calibration {
        Calibration::measure(
            &SystemConfig::paper_table3(),
            &CpuBaselineConfig::paper_baseline(),
            7,
        )
    }

    /// A calibration from raw `f64` bits: each profile in declaration
    /// order (stream, strided, random, idle latency), then the two NoC
    /// figures.
    const fn from_bits(b: [u64; 18]) -> Calibration {
        const fn profile(b: &[u64; 18], at: usize) -> BandwidthProfile {
            BandwidthProfile {
                stream_bw: f64::from_bits(b[at]),
                strided_bw: f64::from_bits(b[at + 1]),
                random_bw: f64::from_bits(b[at + 2]),
                idle_latency: f64::from_bits(b[at + 3]),
            }
        }
        Calibration {
            cpu_baseline: profile(&b, 0),
            ndp_stack: profile(&b, 4),
            ndp_aggregate: profile(&b, 8),
            host_to_stack: profile(&b, 12),
            noc_link_bw: f64::from_bits(b[16]),
            noc_hop_latency: f64::from_bits(b[17]),
        }
    }

    /// Runs all measurements for the given platform configurations.
    ///
    /// The CPU baseline's DDR system and one HBM2 stack are two
    /// independent DRAM models, each replaying its own stream, strided
    /// and random request streams. The other profiles are derived from
    /// the stack's, and the NoC figures come from the mesh model. Every
    /// number is measured in-process, and the result is bit-for-bit
    /// deterministic for a given `seed`. The paper's machine is already
    /// recorded as [`Calibration::PAPER_TABLE3`]; this is the API for
    /// every other configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use ndft_sim::{Calibration, CpuBaselineConfig, SystemConfig};
    ///
    /// // Table III with half the stacks: each stack measures the same,
    /// // the aggregate halves.
    /// let mut sys = SystemConfig::paper_table3();
    /// sys.ndp.stacks /= 2;
    /// let cal = Calibration::measure(&sys, &CpuBaselineConfig::paper_baseline(), 7);
    /// let paper = Calibration::PAPER_TABLE3;
    /// assert_eq!(cal.ndp_stack, paper.ndp_stack);
    /// assert_eq!(2.0 * cal.ndp_aggregate.stream_bw, paper.ndp_aggregate.stream_bw);
    /// // The entire premise of NDP: aggregate in-stack bandwidth dwarfs
    /// // both the DDR system and the host link.
    /// assert!(cal.ndp_aggregate.stream_bw > 5.0 * cal.cpu_baseline.stream_bw);
    /// assert!(cal.ndp_aggregate.stream_bw > 5.0 * cal.host_to_stack.stream_bw);
    /// ```
    pub fn measure(sys: &SystemConfig, base: &CpuBaselineConfig, seed: u64) -> Calibration {
        // --- CPU baseline: all DDR4 channels. ---
        let mut ddr = DramModel::new(
            base.timings,
            base.channels,
            base.banks_per_channel,
            base.row_bytes,
        );
        let cpu_baseline = measure_profile(&mut ddr, base.timings.clock_hz, seed);

        // --- One HBM2 stack. ---
        let mem = &sys.memory;
        let mut stack = DramModel::new(
            mem.timings,
            mem.channels_per_stack,
            mem.banks_per_channel,
            mem.row_bytes,
        );
        let ndp_stack = measure_profile(&mut stack, mem.timings.clock_hz, seed + 1);

        // --- Aggregate: stacks operate on disjoint local partitions, so
        // bandwidth scales with the stack count (latency does not).
        let stacks = sys.ndp.stacks as f64;
        let ndp_aggregate = BandwidthProfile {
            stream_bw: ndp_stack.stream_bw * stacks,
            strided_bw: ndp_stack.strided_bw * stacks,
            random_bw: ndp_stack.random_bw * stacks,
            idle_latency: ndp_stack.idle_latency,
        };

        // --- Host CPU through the off-chip link into the stacks: the link
        // clamps bandwidth and adds latency. For strided/random patterns
        // the link carries whole bursts of which only
        // `USEFUL_BYTES_PER_ACCESS` are payload, so the useful rate
        // through the link shrinks by that ratio.
        let link = sys.host_link;
        let useful = USEFUL_BYTES_PER_ACCESS as f64 / mem.timings.burst_bytes as f64;
        let host_to_stack = BandwidthProfile {
            stream_bw: ndp_aggregate.stream_bw.min(link.bandwidth),
            strided_bw: ndp_aggregate.strided_bw.min(link.bandwidth * useful),
            random_bw: ndp_aggregate.random_bw.min(link.bandwidth * useful),
            idle_latency: ndp_stack.idle_latency + 2.0 * link.latency,
        };

        // --- NoC link characteristics. ---
        let mut noc = MeshNoc::new(sys.mesh);
        let noc_link_bw = noc.effective_bandwidth(0, 1, 1 << 24);
        let noc_hop_latency = sys.mesh.hop_latency as f64 / sys.mesh.clock_hz;

        Calibration {
            cpu_baseline,
            ndp_stack,
            ndp_aggregate,
            host_to_stack,
            noc_link_bw,
            noc_hop_latency,
        }
    }
}

/// Measures one DRAM system's profile.
fn measure_profile(dram: &mut DramModel, clock_hz: f64, seed: u64) -> BandwidthProfile {
    let burst = dram.burst_bytes();
    // Stream: dense line-granularity requests; all bytes useful.
    let stream_addrs = generate(AccessPattern::Stream, MEASURE_REQUESTS, 0, burst, seed);
    let stream_bw = run(dram, &stream_addrs, clock_hz);

    // Strided: a grid transpose walk. Production plane-wave codes pad the
    // leading dimension so large strides do not alias onto one channel;
    // we model that with a non-power-of-two stride of 65 bursts. Each
    // access drags one burst but only `USEFUL_BYTES_PER_ACCESS` are
    // payload.
    let strided_raw = generate(
        AccessPattern::Strided {
            stride_bytes: 65 * burst,
        },
        MEASURE_REQUESTS / 4,
        0,
        burst,
        seed,
    );
    let strided_lines = coalesce_to_lines(&strided_raw, burst);
    let strided_raw_bw = run(dram, &strided_lines, clock_hz);
    let strided_bw = strided_raw_bw * USEFUL_BYTES_PER_ACCESS as f64 / burst as f64;

    // Random over 1 GiB.
    let random_raw = generate(
        AccessPattern::Random {
            range_bytes: 1 << 30,
        },
        MEASURE_REQUESTS / 4,
        0,
        burst,
        seed,
    );
    let random_raw_bw = run(dram, &random_raw, clock_hz);
    let random_bw = random_raw_bw * USEFUL_BYTES_PER_ACCESS as f64 / burst as f64;

    dram.reset();
    let idle = dram.idle_latency() as f64 / clock_hz;
    BandwidthProfile {
        stream_bw,
        strided_bw,
        random_bw,
        idle_latency: idle,
    }
}

fn run(dram: &mut DramModel, addrs: &[u64], clock_hz: f64) -> f64 {
    dram.reset();
    let stats = dram.service(addrs.iter().map(|&addr| MemRequest {
        addr,
        is_write: false,
        arrival: 0,
    }));
    stats.bandwidth(clock_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::measure(
            &SystemConfig::paper_table3(),
            &CpuBaselineConfig::paper_baseline(),
            42,
        )
    }

    #[test]
    fn stream_beats_strided_beats_random_everywhere() {
        let c = cal();
        for p in [&c.cpu_baseline, &c.ndp_stack, &c.ndp_aggregate] {
            assert!(p.stream_bw > p.strided_bw, "{p:?}");
            assert!(p.strided_bw >= p.random_bw * 0.5, "{p:?}");
            assert!(p.idle_latency > 0.0);
        }
    }

    #[test]
    fn ndp_aggregate_is_stack_times_single() {
        let c = cal();
        let ratio = c.ndp_aggregate.stream_bw / c.ndp_stack.stream_bw;
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn host_link_clamps_stream_bandwidth() {
        let c = cal();
        let link = SystemConfig::paper_table3().host_link.bandwidth;
        assert!(c.host_to_stack.stream_bw <= link * 1.001);
        assert!(c.host_to_stack.idle_latency > c.ndp_stack.idle_latency);
    }

    #[test]
    fn ndp_stream_bandwidth_is_hbm_class() {
        let c = cal();
        // One stack: 8 × 16 GB/s pin = 128 GB/s; expect > 100 GB/s sustained.
        assert!(
            c.ndp_stack.stream_bw > 100.0e9,
            "{:.3e}",
            c.ndp_stack.stream_bw
        );
        // Aggregate: > 1.6 TB/s.
        assert!(c.ndp_aggregate.stream_bw > 1.6e12);
    }

    #[test]
    fn cpu_baseline_is_ddr_class() {
        let c = cal();
        assert!(c.cpu_baseline.stream_bw > 80.0e9 && c.cpu_baseline.stream_bw < 160.0e9);
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = cal();
        let b = Calibration::measure(
            &SystemConfig::paper_table3(),
            &CpuBaselineConfig::paper_baseline(),
            42,
        );
        assert_eq!(a, b);
    }

    /// The inverse of `Calibration::from_bits`.
    fn bits(c: &Calibration) -> [u64; 18] {
        let mut out = [0u64; 18];
        let profiles = [
            c.cpu_baseline,
            c.ndp_stack,
            c.ndp_aggregate,
            c.host_to_stack,
        ];
        for (i, p) in profiles.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&[
                p.stream_bw.to_bits(),
                p.strided_bw.to_bits(),
                p.random_bw.to_bits(),
                p.idle_latency.to_bits(),
            ]);
        }
        out[16] = c.noc_link_bw.to_bits();
        out[17] = c.noc_hop_latency.to_bits();
        out
    }

    /// `bits` as the body of `Calibration::PAPER_TABLE3`'s
    /// `from_bits([...])`, ready to paste.
    fn paste_ready(b: &[u64; 18]) -> String {
        let groups = [
            "cpu_baseline",
            "ndp_stack",
            "ndp_aggregate",
            "host_to_stack",
            "noc_link_bw, noc_hop_latency",
        ];
        let mut out = String::from("[\n");
        for (i, v) in b.iter().enumerate() {
            if i % 4 == 0 {
                out += &format!("        // {}\n", groups[i / 4]);
            }
            out += &format!("        {v:#018x},\n");
        }
        out + "    ]"
    }

    /// Differential oracle for the recorded paper calibration that every
    /// engine process runs on (`calib::measured()` in `ndft-core`):
    /// re-measuring its inputs must give `Calibration::PAPER_TABLE3` bit
    /// for bit, so a change to the DRAM or NoC model that moves a
    /// modeled number cannot pass unseen. On a deliberate model change,
    /// paste the printed array into `PAPER_TABLE3`.
    #[test]
    fn paper_calibration_bits_are_pinned() {
        let measured = bits(&Calibration::measure_paper_table3());
        assert!(
            measured == bits(&Calibration::PAPER_TABLE3),
            "the measured paper calibration moved; if the model change is \
             deliberate, re-record Calibration::PAPER_TABLE3 as\n{}",
            paste_ready(&measured)
        );
    }
}
