//! Set-associative cache model with LRU replacement.
//!
//! Write-back, write-allocate, inclusive-enough for bandwidth studies.
//! [`crate::timing::CoreModel`] walks its own stack of these caches.

use crate::config::CacheConfig;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; optionally a dirty victim was evicted.
    Miss {
        /// Address of the evicted dirty line, if any (needs a writeback).
        writeback: Option<u64>,
    },
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses presented to this level.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; zero when unused.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp (bigger = more recent).
    lru: u64,
}

/// One set-associative, write-back, write-allocate cache.
///
/// # Examples
///
/// ```
/// use ndft_sim::cache::{Cache, CacheOutcome};
/// use ndft_sim::config::CacheConfig;
///
/// let cfg = CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64, hit_latency: 4 };
/// let mut c = Cache::new(cfg);
/// assert!(matches!(c.access(0x40, false), CacheOutcome::Miss { .. }));
/// assert!(matches!(c.access(0x40, false), CacheOutcome::Hit));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly (see
    /// [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            lines: vec![Line::default(); sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr / self.cfg.line_bytes as u64;
        (
            (line_addr % self.sets as u64) as usize,
            line_addr / self.sets as u64,
        )
    }

    /// Installs a line without counting it as a demand access (the path a
    /// prefetch fill takes). Returns the dirty victim's address, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.clock;
            line.dirty |= dirty;
            return None;
        }
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("cache has at least one way");
        let line = &mut ways[victim];
        let writeback = if line.valid && line.dirty {
            let victim_line_addr = line.tag * self.sets as u64 + set as u64;
            Some(victim_line_addr * self.cfg.line_bytes as u64)
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty,
            lru: self.clock,
        };
        writeback
    }

    /// Presents one access; allocates on miss; returns the outcome.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];
        // Hit?
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        // Miss: pick victim (invalid first, else LRU).
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("cache has at least one way");
        let line = &mut ways[victim];
        let writeback = if line.valid && line.dirty {
            let victim_line_addr = line.tag * self.sets as u64 + set as u64;
            self.stats.writebacks += 1;
            Some(victim_line_addr * self.cfg.line_bytes as u64)
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.clock,
        };
        CacheOutcome::Miss { writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KIB;

    fn small() -> CacheConfig {
        CacheConfig {
            size_bytes: KIB,
            ways: 2,
            line_bytes: 64,
            hit_latency: 4,
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(small());
        assert!(matches!(c.access(128, false), CacheOutcome::Miss { .. }));
        for _ in 0..10 {
            assert_eq!(c.access(128, false), CacheOutcome::Hit);
        }
        assert_eq!(c.stats().hits, 10);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut c = Cache::new(small());
        let _ = c.access(256, false);
        assert_eq!(c.access(256 + 63, false), CacheOutcome::Hit);
        assert!(matches!(
            c.access(256 + 64, false),
            CacheOutcome::Miss { .. }
        ));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set: fill both ways, touch the first, insert a third.
        let mut c = Cache::new(small());
        let sets = small().sets() as u64; // 8 sets
        let line = 64u64;
        let a = 0u64;
        let b = a + sets * line; // same set, different tag
        let d = b + sets * line; // same set, third tag
        let _ = c.access(a, false);
        let _ = c.access(b, false);
        let _ = c.access(a, false); // a is now MRU
        let _ = c.access(d, false); // evicts b
        assert_eq!(c.access(a, false), CacheOutcome::Hit);
        assert!(matches!(c.access(b, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = Cache::new(small());
        let sets = small().sets() as u64;
        let line = 64u64;
        let a = 5 * line; // set 5
        let b = a + sets * line;
        let d = b + sets * line;
        let _ = c.access(a, true); // dirty
        let _ = c.access(b, false);
        match c.access(d, false) {
            CacheOutcome::Miss {
                writeback: Some(wb),
            } => assert_eq!(wb, a),
            other => panic!("expected dirty eviction of {a}, got {other:?}"),
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(small()); // 1 KiB = 16 lines
        let lines = 64u64;
        for rep in 0..4 {
            for i in 0..lines {
                let outcome = c.access(i * 64, false);
                if rep > 0 {
                    // Every access must miss: working set is 4× capacity.
                    assert!(
                        matches!(outcome, CacheOutcome::Miss { .. }),
                        "iter {rep} line {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut c = Cache::new(small());
        let _ = c.access(0, false);
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        c.reset();
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.stats().accesses, 1);
    }
}
