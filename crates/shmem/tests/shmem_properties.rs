//! Property-based tests of the shared-memory runtime invariants.

use ndft_shmem::{CommScheme, NdftRuntime, SharedBlockStore, UnitId};
use ndft_sim::SystemConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_accounting_balances(
        sizes in prop::collection::vec(1u64..(1 << 20), 1..64),
        stacks in prop::collection::vec(0usize..16, 1..64),
    ) {
        let mut store = SharedBlockStore::new(&SystemConfig::paper_table3());
        let mut live = Vec::new();
        let mut per_stack = [0u64; 16];
        for (len, stack) in sizes.iter().zip(stacks.iter().cycle()) {
            if let Ok(bl) = store.alloc(*len, *stack) {
                live.push((bl, *len, *stack));
                per_stack[*stack] += *len;
            }
        }
        for (s, &expect) in per_stack.iter().enumerate() {
            prop_assert_eq!(store.stack_bytes(s), expect, "stack {}", s);
        }
        // Free everything; all stacks drain to zero.
        for (bl, _, _) in live {
            store.free(bl).unwrap();
        }
        for s in 0..16 {
            prop_assert_eq!(store.stack_bytes(s), 0u64);
        }
        prop_assert_eq!(store.live_blocks(), 0);
    }

    #[test]
    fn hierarchical_remote_ops_bounded_by_blocks_times_stacks(
        n_blocks in 1usize..24,
        readers in prop::collection::vec((0usize..16, 0usize..8), 1..128),
    ) {
        let cfg = SystemConfig::paper_table3();
        let mut rt = NdftRuntime::new(&cfg, CommScheme::Hierarchical);
        let blocks: Vec<_> = (0..n_blocks)
            .map(|i| rt.alloc_shared(4096, i % 16).unwrap())
            .collect();
        for &(stack, unit) in &readers {
            for &bl in &blocks {
                rt.read(UnitId { stack, unit }, bl, 4096).unwrap();
            }
        }
        // The arbiter caches: at most one mesh fetch per (block, stack).
        let stats = rt.stats();
        prop_assert!(stats.remote_ops <= (n_blocks * 15) as u64);
        prop_assert_eq!(
            stats.local_ops + stats.remote_ops + stats.filtered_ops,
            (readers.len() * n_blocks) as u64
        );
    }

    #[test]
    fn flat_scheme_always_pays_per_reader(
        readers in prop::collection::vec(1usize..16, 1..32),
    ) {
        let cfg = SystemConfig::paper_table3();
        let mut rt = NdftRuntime::new(&cfg, CommScheme::Flat);
        let bl = rt.alloc_shared(1024, 0).unwrap();
        let mut remote = 0u64;
        for &stack in &readers {
            let r = rt.read(UnitId { stack, unit: 0 }, bl, 1024).unwrap();
            prop_assert!(r.remote);
            remote += 1;
        }
        prop_assert_eq!(rt.stats().remote_ops, remote);
        prop_assert_eq!(rt.stats().filtered_ops, 0);
    }

    #[test]
    fn latencies_are_positive_and_monotone_in_size(
        len_small in 64u64..4096,
        factor in 2u64..16,
    ) {
        let cfg = SystemConfig::paper_table3();
        let mut rt = NdftRuntime::new(&cfg, CommScheme::Hierarchical);
        let a = rt.alloc_shared(len_small * factor, 0).unwrap();
        let small = rt.read(UnitId { stack: 0, unit: 0 }, a, len_small).unwrap();
        let large = rt.read(UnitId { stack: 0, unit: 0 }, a, len_small * factor).unwrap();
        prop_assert!(small.latency > 0.0);
        prop_assert!(large.latency >= small.latency);
    }
}
