//! DRAM timing model (the Ramulator-level substrate).
//!
//! Models each channel as a set of banks with open-row state plus a shared
//! data bus. The modeled controller is the paper's Table III one: FR-FCFS
//! scheduling (row hits first, then oldest) with an open-page row policy
//! (a row stays open until a conflict or a refresh closes it). Timing is
//! expressed in memory-clock cycles using the HBM2 and DDR4 presets in
//! [`crate::config::DramTimings`].
//!
//! The model tracks, per request: row-buffer outcome (hit / closed /
//! conflict), command latency, bus serialization, and `tRAS` row-cycle
//! constraints. It is an approximation at the same altitude as fast DRAM
//! simulators: good to a few percent on achieved bandwidth, which is what
//! the NDFT study consumes (relative stream vs strided vs random behaviour
//! of DDR4 and HBM2).

use crate::config::DramTimings;
use serde::{Deserialize, Serialize};

/// A single memory request presented to the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Physical byte address.
    pub addr: u64,
    /// True for writes (timing-symmetric in this model, tracked for stats).
    pub is_write: bool,
    /// Arrival time at the controller, in memory cycles.
    pub arrival: u64,
}

/// Row-buffer outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle; an activate was needed.
    Closed,
    /// Another row was open; precharge + activate were needed.
    Conflict,
}

/// Aggregate statistics from servicing a request batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Requests serviced.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Activates issued to idle banks.
    pub row_closed: u64,
    /// Precharge+activate pairs from conflicts.
    pub row_conflicts: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Cycle the last burst finished.
    pub makespan_cycles: u64,
    /// Sum of per-request latencies (completion − arrival), in cycles.
    pub total_latency_cycles: u64,
}

impl DramStats {
    /// Achieved bandwidth in bytes/second for a given memory clock.
    pub fn bandwidth(&self, clock_hz: f64) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.bytes as f64 / (self.makespan_cycles as f64 / clock_hz)
    }

    /// Fraction of requests that hit the row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.row_hits as f64 / self.requests as f64
    }
}

/// Physical address decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// The open row, named by its slot (see `AddressMap::locate`).
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next column command (tCCD
    /// pipelining: one CAS per burst slot, not one per CAS latency).
    cas_ready: u64,
    /// Cycle of the last activate (for tRAS).
    activated_at: u64,
}

/// FR-FCFS lookahead window: how many queued requests the controller
/// examines when hunting for a row hit (real controllers have 32-64 entry
/// queues).
const SCHED_WINDOW: usize = 32;

#[derive(Debug, Clone, Default)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: u64,
    /// Cycle of the next all-bank refresh.
    next_refresh: u64,
}

/// One request waiting in a channel's controller queue: 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Queued {
    arrival: u64,
    /// Bank and row as one slot (see `AddressMap::locate`).
    slot: u64,
}

/// The address map: channel-interleaved at burst granularity, then
/// column, bank, row (an open-page-friendly mapping).
#[derive(Debug, Clone, Copy)]
struct AddressMap {
    burst_bytes: u64,
    channels: u64,
    cols_per_row: u64,
    banks: u64,
    /// The same map as shifts and masks, when all four sizes are powers
    /// of two (every preset geometry).
    pow2: Option<Pow2Map>,
}

/// Base-2 logarithms of an [`AddressMap`]'s sizes.
#[derive(Debug, Clone, Copy)]
struct Pow2Map {
    burst_shift: u32,
    channel_bits: u32,
    col_bits: u32,
    bank_bits: u32,
}

impl AddressMap {
    fn new(burst_bytes: usize, channels: usize, cols_per_row: usize, banks: usize) -> Self {
        let log2 = |n: usize| n.is_power_of_two().then(|| n.trailing_zeros());
        let pow2 = match (
            log2(burst_bytes),
            log2(channels),
            log2(cols_per_row),
            log2(banks),
        ) {
            (Some(burst_shift), Some(channel_bits), Some(col_bits), Some(bank_bits)) => {
                Some(Pow2Map {
                    burst_shift,
                    channel_bits,
                    col_bits,
                    bank_bits,
                })
            }
            _ => None,
        };
        AddressMap {
            burst_bytes: burst_bytes as u64,
            channels: channels as u64,
            cols_per_row: cols_per_row as u64,
            banks: banks as u64,
            pow2,
        }
    }

    /// An address's channel and its slot `row × banks + bank`: the
    /// address with burst offset, channel and column stripped. Within a
    /// channel a slot names one row of one bank.
    fn locate(&self, addr: u64) -> (usize, u64) {
        match self.pow2 {
            Some(p) => {
                let block = addr >> p.burst_shift;
                let channel = block & ((1u64 << p.channel_bits) - 1);
                (channel as usize, (block >> p.channel_bits) >> p.col_bits)
            }
            None => {
                let block = addr / self.burst_bytes;
                let slot = block / self.channels / self.cols_per_row;
                ((block % self.channels) as usize, slot)
            }
        }
    }

    /// The bank a slot belongs to.
    fn bank_of(&self, slot: u64) -> usize {
        match self.pow2 {
            Some(p) => (slot & ((1u64 << p.bank_bits) - 1)) as usize,
            None => (slot % self.banks) as usize,
        }
    }

    /// The row a slot names within its bank.
    fn row_of(&self, slot: u64) -> u64 {
        match self.pow2 {
            Some(p) => slot >> p.bank_bits,
            None => slot / self.banks,
        }
    }

    /// The map by division alone, field by field: the reference the
    /// tests hold [`DramModel::decode`] and the replay to.
    #[cfg(test)]
    fn decode_div(&self, addr: u64) -> Decoded {
        let block = addr / self.burst_bytes;
        let channel = (block % self.channels) as usize;
        let rest = block / self.channels;
        let rest2 = rest / self.cols_per_row;
        let bank = (rest2 % self.banks) as usize;
        let row = rest2 / self.banks;
        Decoded { channel, bank, row }
    }
}

/// The DRAM device + controller model.
///
/// # Examples
///
/// ```
/// use ndft_sim::dram::{DramModel, MemRequest};
/// use ndft_sim::config::DramTimings;
///
/// let mut dram = DramModel::new(DramTimings::hbm2(), 8, 16, 2048);
/// let reqs: Vec<_> = (0..4096u64)
///     .map(|i| MemRequest { addr: i * 32, is_write: false, arrival: 0 })
///     .collect();
/// let stats = dram.service_batch(&reqs);
/// let bw = stats.bandwidth(DramTimings::hbm2().clock_hz);
/// assert!(bw > 0.5 * 128.0e9); // streaming sustains most of 8×16 GB/s
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    timings: DramTimings,
    n_channels: usize,
    map: AddressMap,
    channels: Vec<Channel>,
    /// Per-batch scratch, kept between calls so its capacity is reused:
    /// every request of the batch, decoded, grouped by channel.
    queued: Vec<Queued>,
    /// Per-batch scratch: where each channel's group in `queued` ends.
    ends: Vec<usize>,
}

impl DramModel {
    /// Creates a model with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero or `row_bytes` is not a
    /// multiple of the burst size.
    pub fn new(
        timings: DramTimings,
        n_channels: usize,
        banks_per_channel: usize,
        row_bytes: usize,
    ) -> Self {
        assert!(n_channels > 0 && banks_per_channel > 0 && row_bytes > 0);
        assert!(
            row_bytes.is_multiple_of(timings.burst_bytes),
            "row size must be a whole number of bursts"
        );
        let channels = (0..n_channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); banks_per_channel],
                bus_free_at: 0,
                next_refresh: timings.t_refi,
            })
            .collect();
        DramModel {
            timings,
            n_channels,
            map: AddressMap::new(
                timings.burst_bytes,
                n_channels,
                row_bytes / timings.burst_bytes,
                banks_per_channel,
            ),
            channels,
            queued: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.n_channels
    }

    /// Burst granularity in bytes.
    pub fn burst_bytes(&self) -> usize {
        self.timings.burst_bytes
    }

    /// Decodes an address: channel-interleaved at burst granularity, then
    /// column, bank, row (an open-page-friendly mapping). Shifts and masks
    /// when burst size, channel count, columns per row and bank count are
    /// all powers of two, division otherwise; both give the same result.
    pub fn decode(&self, addr: u64) -> Decoded {
        let (channel, slot) = self.map.locate(addr);
        Decoded {
            channel,
            bank: self.map.bank_of(slot),
            row: self.map.row_of(slot),
        }
    }

    /// Resets all bank and bus state (open rows, timestamps, refresh).
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            for b in &mut ch.banks {
                *b = Bank::default();
            }
            ch.bus_free_at = 0;
            ch.next_refresh = self.timings.t_refi;
        }
    }

    /// Services a batch of requests to completion and returns aggregate
    /// statistics. Each channel is scheduled independently, from cycle 0
    /// of the batch, on top of the bank, bus and refresh state that
    /// earlier batches left (see [`DramModel::reset`]).
    ///
    /// Each request is decoded once into a compact per-channel queue (a
    /// counting pass sizes the queues; the storage is reused across
    /// calls). A channel's queue holds its requests in arrival order, ties
    /// in input order; a batch whose arrivals never decrease is in that
    /// order already and is not sorted. The channel then issues one
    /// request at a time: the first arrived row hit among the first 32
    /// pending requests, else the oldest pending one.
    pub fn service_batch(&mut self, requests: &[MemRequest]) -> DramStats {
        self.service(requests.iter().copied())
    }

    /// [`DramModel::service_batch`] over requests that are generated
    /// rather than stored; the iterator is walked twice.
    pub(crate) fn service<I>(&mut self, requests: I) -> DramStats
    where
        I: Iterator<Item = MemRequest> + Clone,
    {
        let mut queued = std::mem::take(&mut self.queued);
        let mut ends = std::mem::take(&mut self.ends);
        // Count each channel's requests, turn the counts into each
        // queue's first index, then fill the queues in input order; each
        // `ends[c]` finishes one past the last entry of queue `c`.
        ends.clear();
        ends.resize(self.n_channels, 0);
        let mut ordered = true;
        let mut prev_arrival = 0;
        for req in requests.clone() {
            ends[self.map.locate(req.addr).0] += 1;
            ordered &= prev_arrival <= req.arrival;
            prev_arrival = req.arrival;
        }
        let mut total = 0;
        for e in &mut ends {
            let count = *e;
            *e = total;
            total += count;
        }
        queued.clear();
        queued.resize(total, Queued::default());
        for req in requests {
            let (channel, slot) = self.map.locate(req.addr);
            queued[ends[channel]] = Queued {
                arrival: req.arrival,
                slot,
            };
            ends[channel] += 1;
        }
        let mut stats = DramStats::default();
        let mut start = 0;
        for (ci, &end) in ends.iter().enumerate() {
            let queue = &mut queued[start..end];
            start = end;
            if !ordered {
                queue.sort_by_key(|q| q.arrival);
            }
            self.service_channel(ci, queue, &mut stats);
        }
        queued.clear();
        self.queued = queued;
        self.ends = ends;
        stats
    }

    /// Issues one channel's queued requests, in arrival order, to
    /// completion and adds their outcomes to `stats`.
    fn service_channel(&mut self, ci: usize, queue: &mut [Queued], stats: &mut DramStats) {
        let t = self.timings;
        let map = self.map;
        let ch = &mut self.channels[ci];
        let mut now: u64 = 0;
        for head in 0..queue.len() {
            // The requests still pending, oldest first.
            let pending = &mut queue[head..];
            // Advance to the head's arrival if the queue ran dry.
            now = now.max(pending[0].arrival);
            // All-bank refresh: blocks the channel for tRFC, closes every
            // row.
            if t.t_refi > 0 && now >= ch.next_refresh {
                let refresh_end = ch.next_refresh + t.t_rfc;
                for bank in &mut ch.banks {
                    bank.open_row = None;
                    bank.cas_ready = bank.cas_ready.max(refresh_end);
                }
                ch.bus_free_at = ch.bus_free_at.max(refresh_end);
                ch.next_refresh += t.t_refi;
                now = now.max(refresh_end);
            }
            // FR-FCFS: prefer the oldest *arrived* request that hits an
            // open row, searching a bounded controller window.
            let pick = pending[..pending.len().min(SCHED_WINDOW)]
                .iter()
                .position(|q| {
                    q.arrival <= now && ch.banks[map.bank_of(q.slot)].open_row == Some(q.slot)
                })
                .unwrap_or(0);
            let req = pending[pick];
            // The requests ahead of the pick move back one slot, so
            // `queue[head + 1..]` is what stays pending, still in order.
            pending.copy_within(..pick, 1);
            let bank = &mut ch.banks[map.bank_of(req.slot)];
            let at = now.max(req.arrival);
            let (outcome, cas_issue) = match bank.open_row {
                Some(r) if r == req.slot => (RowOutcome::Hit, at.max(bank.cas_ready)),
                Some(_) => {
                    // Precharge may not start before tRAS expires.
                    let pre_start = at.max(bank.activated_at + t.t_ras).max(bank.cas_ready);
                    let act_at = pre_start + t.t_rp;
                    bank.activated_at = act_at;
                    (RowOutcome::Conflict, act_at + t.t_rcd)
                }
                None => {
                    let act_at = at.max(bank.cas_ready);
                    bank.activated_at = act_at;
                    (RowOutcome::Closed, act_at + t.t_rcd)
                }
            };
            // Open page: the row stays open for later hits. Column
            // commands pipeline at burst (tCCD) granularity.
            bank.open_row = Some(req.slot);
            bank.cas_ready = cas_issue + t.t_burst;
            let data_ready = cas_issue + t.t_cas;
            let data_start = data_ready.max(ch.bus_free_at);
            let done = data_start + t.t_burst;
            ch.bus_free_at = done;
            now = now.max(cas_issue);
            stats.requests += 1;
            stats.bytes += t.burst_bytes as u64;
            stats.total_latency_cycles += done - req.arrival;
            stats.makespan_cycles = stats.makespan_cycles.max(done);
            match outcome {
                RowOutcome::Hit => stats.row_hits += 1,
                RowOutcome::Closed => stats.row_closed += 1,
                RowOutcome::Conflict => stats.row_conflicts += 1,
            }
        }
    }

    /// Latency in cycles of a single request issued to an idle device.
    pub fn idle_latency(&mut self) -> u64 {
        self.reset();
        let stats = self.service_batch(&[MemRequest {
            addr: 0,
            is_write: false,
            arrival: 0,
        }]);
        self.reset();
        stats.total_latency_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The replay as it was before requests were grouped into compact
    /// per-channel arrays: per-channel `Vec`s of `(seq, request, decoded)`
    /// sorted by `(arrival, seq)`, a `VecDeque` of pending requests, and
    /// the division address map. [`DramModel::service_batch`] must match
    /// it exactly.
    fn reference_service_batch(model: &mut DramModel, requests: &[MemRequest]) -> DramStats {
        let mut stats = DramStats::default();
        let mut per_channel: Vec<Vec<(u64, MemRequest, Decoded)>> =
            (0..model.n_channels).map(|_| Vec::new()).collect();
        for (seq, req) in requests.iter().enumerate() {
            let d = model.map.decode_div(req.addr);
            per_channel[d.channel].push((seq as u64, *req, d));
        }
        let t = model.timings;
        for (ci, mut reqs) in per_channel.into_iter().enumerate() {
            if reqs.is_empty() {
                continue;
            }
            reqs.sort_by_key(|(seq, r, _)| (r.arrival, *seq));
            let ch = &mut model.channels[ci];
            let mut pending: VecDeque<(u64, MemRequest, Decoded)> = reqs.into();
            let mut now: u64 = 0;
            while !pending.is_empty() {
                let head_arrival = pending.front().map(|(_, r, _)| r.arrival).unwrap();
                if now < head_arrival {
                    now = head_arrival;
                }
                if t.t_refi > 0 && now >= ch.next_refresh {
                    let refresh_end = ch.next_refresh + t.t_rfc;
                    for bank in &mut ch.banks {
                        bank.open_row = None;
                        bank.cas_ready = bank.cas_ready.max(refresh_end);
                    }
                    ch.bus_free_at = ch.bus_free_at.max(refresh_end);
                    ch.next_refresh += t.t_refi;
                    now = now.max(refresh_end);
                }
                let window = SCHED_WINDOW.min(pending.len());
                let pick = (0..window)
                    .find(|&i| {
                        let (_, r, d) = &pending[i];
                        r.arrival <= now && ch.banks[d.bank].open_row == Some(d.row)
                    })
                    .unwrap_or(0);
                let (_, req, d) = pending.remove(pick).expect("pick is in range");
                let bank = &mut ch.banks[d.bank];
                let at = now.max(req.arrival);
                let (outcome, cas_issue) = match bank.open_row {
                    Some(r) if r == d.row => (RowOutcome::Hit, at.max(bank.cas_ready)),
                    Some(_) => {
                        let pre_start = at.max(bank.activated_at + t.t_ras).max(bank.cas_ready);
                        let act_at = pre_start + t.t_rp;
                        bank.activated_at = act_at;
                        (RowOutcome::Conflict, act_at + t.t_rcd)
                    }
                    None => {
                        let act_at = at.max(bank.cas_ready);
                        bank.activated_at = act_at;
                        (RowOutcome::Closed, act_at + t.t_rcd)
                    }
                };
                bank.open_row = Some(d.row);
                bank.cas_ready = cas_issue + t.t_burst;
                let data_ready = cas_issue + t.t_cas;
                let data_start = data_ready.max(ch.bus_free_at);
                let done = data_start + t.t_burst;
                ch.bus_free_at = done;
                now = now.max(cas_issue);
                stats.requests += 1;
                stats.bytes += t.burst_bytes as u64;
                stats.total_latency_cycles += done - req.arrival;
                stats.makespan_cycles = stats.makespan_cycles.max(done);
                match outcome {
                    RowOutcome::Hit => stats.row_hits += 1,
                    RowOutcome::Closed => stats.row_closed += 1,
                    RowOutcome::Conflict => stats.row_conflicts += 1,
                }
            }
        }
        stats
    }

    /// Deterministic 64-bit generator for the differential batches.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// How a differential batch's arrivals are laid out.
    #[derive(Debug, Clone, Copy)]
    enum Arrivals {
        /// All at cycle 0 (calibration's open-loop streams).
        Zero,
        /// Non-decreasing, as a timed request stream arrives.
        Rising,
        /// Arbitrary order, so each channel's group needs sorting.
        Shuffled,
    }

    /// A batch mixing short sequential runs (row hits), a few hot rows
    /// (conflicts) and scattered addresses, with the given arrivals.
    fn mixed_batch(rng: &mut Lcg, n: usize, arrivals: Arrivals) -> Vec<MemRequest> {
        let mut addr = 0;
        let mut clock = 0;
        (0..n)
            .map(|_| {
                addr = match rng.next() % 4 {
                    0 | 1 => addr + 32,
                    2 => (rng.next() % 8) * 65_536 + (rng.next() % 64) * 32,
                    _ => rng.next() % (1 << 30),
                };
                let arrival = match arrivals {
                    Arrivals::Zero => 0,
                    Arrivals::Rising => {
                        clock += rng.next() % 6;
                        clock
                    }
                    Arrivals::Shuffled => rng.next() % 20_000,
                };
                MemRequest {
                    addr,
                    is_write: rng.next().is_multiple_of(3),
                    arrival,
                }
            })
            .collect()
    }

    /// Runs the same batches through the replay and the reference on two
    /// copies of one model, back to back without a reset, and asserts
    /// equal statistics after every batch.
    fn assert_matches_reference(model: DramModel, seed: u64) {
        let mut fast = model.clone();
        let mut slow = model;
        let mut rng = Lcg(seed);
        let batches = [
            (Arrivals::Zero, 3000),
            (Arrivals::Rising, 2000),
            (Arrivals::Shuffled, 2000),
            (Arrivals::Zero, 0),
            (Arrivals::Shuffled, 1),
            (Arrivals::Rising, 700),
        ];
        for (arrivals, n) in batches {
            let batch = mixed_batch(&mut rng, n, arrivals);
            let got = fast.service_batch(&batch);
            let want = reference_service_batch(&mut slow, &batch);
            assert_eq!(got, want, "{arrivals:?} batch of {n}");
            assert_eq!(got.requests, n as u64);
        }
    }

    #[test]
    fn replay_matches_reference_on_every_geometry() {
        let mut no_refresh = DramTimings::hbm2();
        no_refresh.t_refi = 0;
        let geometries = [
            (DramTimings::hbm2(), 8, 16, 2048),
            (DramTimings::ddr4(), 8, 16, 8192),
            (no_refresh, 8, 16, 2048),
            // Nothing a power of two but the burst: the division map.
            (DramTimings::hbm2(), 3, 5, 96),
            (DramTimings::ddr4(), 6, 12, 64 * 24),
        ];
        for (seed, (t, channels, banks, row_bytes)) in (1..).zip(geometries) {
            let model = DramModel::new(t, channels, banks, row_bytes);
            assert_eq!(
                model.map.pow2.is_some(),
                channels == 8,
                "{channels}×{banks}×{row_bytes}"
            );
            assert_matches_reference(model, seed);
        }
    }

    #[test]
    fn shift_decode_equals_division_decode() {
        let presets = [
            DramModel::new(DramTimings::hbm2(), 8, 16, 2048),
            DramModel::new(DramTimings::ddr4(), 8, 16, 8192),
        ];
        let mut rng = Lcg(99);
        for d in presets {
            assert!(d.map.pow2.is_some());
            for _ in 0..10_000 {
                let addr = rng.next() << (rng.next() % 12);
                assert_eq!(d.decode(addr), d.map.decode_div(addr), "{addr:#x}");
            }
            assert_eq!(d.decode(u64::MAX), d.map.decode_div(u64::MAX));
        }
    }

    fn hbm() -> DramModel {
        DramModel::new(DramTimings::hbm2(), 8, 16, 2048)
    }

    fn stream_requests(n: usize, step: u64) -> Vec<MemRequest> {
        (0..n as u64)
            .map(|i| MemRequest {
                addr: i * step,
                is_write: false,
                arrival: 0,
            })
            .collect()
    }

    #[test]
    fn decode_interleaves_channels() {
        let d = hbm();
        let a = d.decode(0);
        let b = d.decode(32);
        let c = d.decode(64);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(c.channel, 2);
    }

    #[test]
    fn decode_same_row_for_consecutive_blocks_in_channel() {
        let d = hbm();
        // Blocks 0 and 8 are in channel 0; row bytes 2048 / 32 B = 64 cols.
        let a = d.decode(0);
        let b = d.decode(8 * 32);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn streaming_achieves_high_bandwidth() {
        let mut d = hbm();
        let stats = d.service_batch(&stream_requests(16384, 32));
        let bw = stats.bandwidth(DramTimings::hbm2().clock_hz);
        let peak = 8.0 * DramTimings::hbm2().channel_peak_bw();
        assert!(bw > 0.8 * peak, "stream bw {bw:.3e} vs peak {peak:.3e}");
        assert!(stats.row_hit_rate() > 0.9);
    }

    #[test]
    fn random_is_much_slower_than_stream() {
        let mut d = hbm();
        let stream = d.service_batch(&stream_requests(8192, 32));
        d.reset();
        // LCG-scrambled addresses spread over 1 GiB.
        let mut x = 0x12345678u64;
        let random: Vec<MemRequest> = (0..8192)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                MemRequest {
                    addr: (x >> 10) % (1 << 30),
                    is_write: false,
                    arrival: 0,
                }
            })
            .collect();
        let rand_stats = d.service_batch(&random);
        let clock = DramTimings::hbm2().clock_hz;
        assert!(
            stream.bandwidth(clock) > 2.0 * rand_stats.bandwidth(clock),
            "stream {:.3e} vs random {:.3e}",
            stream.bandwidth(clock),
            rand_stats.bandwidth(clock)
        );
        assert!(rand_stats.row_hit_rate() < 0.5);
    }

    #[test]
    fn single_request_latency_is_rcd_plus_cas_plus_burst() {
        let mut d = hbm();
        let t = DramTimings::hbm2();
        assert_eq!(d.idle_latency(), t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn bank_conflict_pays_precharge() {
        let t = DramTimings::hbm2();
        let mut d = DramModel::new(t, 1, 1, 2048);
        // Two different rows in the same (only) bank.
        let reqs = [
            MemRequest {
                addr: 0,
                is_write: false,
                arrival: 0,
            },
            MemRequest {
                addr: 4096,
                is_write: false,
                arrival: 0,
            },
        ];
        let stats = d.service_batch(&reqs);
        assert_eq!(stats.row_conflicts, 1);
        // Second request must wait for tRAS + tRP + tRCD + tCAS.
        let min_completion = t.t_ras + t.t_rp + t.t_rcd + t.t_cas + t.t_burst;
        assert!(stats.makespan_cycles >= min_completion);
    }

    #[test]
    fn ddr4_stream_bandwidth_matches_pin_rate() {
        let t = DramTimings::ddr4();
        let mut d = DramModel::new(t, 8, 16, 8192);
        let reqs: Vec<MemRequest> = (0..16384u64)
            .map(|i| MemRequest {
                addr: i * 64,
                is_write: false,
                arrival: 0,
            })
            .collect();
        let stats = d.service_batch(&reqs);
        let bw = stats.bandwidth(t.clock_hz);
        let peak = 8.0 * t.channel_peak_bw();
        assert!(
            bw > 0.8 * peak && bw <= peak * 1.001,
            "bw {bw:.3e} peak {peak:.3e}"
        );
    }

    #[test]
    fn stats_bandwidth_zero_for_empty_batch() {
        let mut d = hbm();
        let stats = d.service_batch(&[]);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.bandwidth(1.0e9), 0.0);
    }

    #[test]
    fn reset_clears_row_state() {
        let mut d = hbm();
        let _ = d.service_batch(&stream_requests(64, 32));
        d.reset();
        let stats = d.service_batch(&[MemRequest {
            addr: 0,
            is_write: false,
            arrival: 0,
        }]);
        assert_eq!(stats.row_closed, 1);
    }

    #[test]
    fn refresh_costs_a_few_percent_of_stream_bandwidth() {
        let with = DramTimings::hbm2();
        let mut without = with;
        without.t_refi = 0;
        let reqs = stream_requests(65_536, 32);
        let mut d_with = DramModel::new(with, 8, 16, 2048);
        let mut d_without = DramModel::new(without, 8, 16, 2048);
        let bw_with = d_with.service_batch(&reqs).bandwidth(with.clock_hz);
        let bw_without = d_without.service_batch(&reqs).bandwidth(with.clock_hz);
        assert!(bw_with < bw_without, "refresh must cost something");
        let loss = 1.0 - bw_with / bw_without;
        // tRFC/tREFI = 260/3900 ≈ 6.7 % upper bound; the scheduler's lag
        // behind the data bus under-triggers slightly, so accept 1.5–15 %.
        assert!(loss > 0.015 && loss < 0.15, "refresh loss {loss}");
    }

    #[test]
    fn single_early_request_unaffected_by_refresh() {
        // The first request completes long before the first tREFI expires.
        let mut d = hbm();
        let t = DramTimings::hbm2();
        assert_eq!(d.idle_latency(), t.t_rcd + t.t_cas + t.t_burst);
    }

    /// Two interleaved row streams in one bank, alternating request by
    /// request.
    fn interleaved_rows(n: usize) -> Vec<MemRequest> {
        (0..n as u64)
            .map(|i| {
                let row = i % 2;
                let col = i / 2;
                MemRequest {
                    addr: row * 4096 + col * 32,
                    is_write: false,
                    arrival: 0,
                }
            })
            .collect()
    }

    /// FR-FCFS reorders the ping-pong into row-hit runs: it keeps picking
    /// hits to the open row until the other row's skipped requests fill
    /// its 32-entry window, so the 512 requests need 16 activates (one to
    /// the idle bank, 15 conflicts) where oldest-first issue would need
    /// one per request. The counts and the makespan are the controller's
    /// exact output.
    #[test]
    fn frfcfs_batches_row_hits_on_interleaved_rows() {
        let mut d = DramModel::new(DramTimings::hbm2(), 1, 1, 2048);
        let stats = d.service_batch(&interleaved_rows(512));
        assert_eq!(
            stats,
            DramStats {
                requests: 512,
                row_hits: 496,
                row_closed: 1,
                row_conflicts: 15,
                bytes: 512 * 32,
                makespan_cycles: 1523,
                total_latency_cycles: 390_624,
            }
        );
    }
}
