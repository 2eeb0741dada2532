//! Content addressing for jobs and results.
//!
//! A [`Fingerprint`] is a 128-bit digest of a job's canonical parameter
//! encoding — literally the bytes the write-ahead log stores for the job
//! (`PersistValue for DftJob` in [`crate::persist`]: one little-endian
//! `u64` word per variant tag and parameter) — computed with two
//! independently-keyed FNV-1a streams. Equal jobs always collide (that
//! is the point); unequal jobs collide with probability ~2⁻¹²⁸,
//! negligible at any service scale.

use serde::{Deserialize, Serialize};
use std::fmt;

/// 128-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Stable on-disk encoding: the digest as 16 little-endian bytes.
    ///
    /// This is the byte layout the persistent cache tier
    /// ([`crate::persist`]) keys its write-ahead records with, so it is
    /// a compatibility surface: the mapping is fixed little-endian
    /// (independent of host endianness) and must never change without
    /// bumping the WAL format version.
    pub fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Inverse of [`Fingerprint::to_le_bytes`] — bit-exact for every
    /// input.
    pub fn from_le_bytes(bytes: [u8; 16]) -> Self {
        Fingerprint(u128::from_le_bytes(bytes))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental fingerprint builder.
#[derive(Debug, Clone)]
pub(crate) struct Hasher {
    lo: u64,
    hi: u64,
}

impl Hasher {
    /// Fresh hasher with the two lanes offset differently.
    pub(crate) fn new() -> Self {
        Hasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Feeds one 64-bit word, little-endian, into both lanes.
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds raw bytes.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ b as u64).wrapping_mul(FNV_PRIME);
            // The hi lane sees bytes bit-rotated so the lanes decorrelate.
            self.hi = (self.hi ^ (b.rotate_left(3)) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Final digest.
    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint(((self.hi as u128) << 64) | self.lo as u128)
    }
}

/// Digest of one byte string.
pub(crate) fn digest(bytes: &[u8]) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Hasher::new();
        let mut b = Hasher::new();
        for v in [1u64, 99, 1 << 40] {
            a.write_u64(v);
            b.write_u64(v);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitive() {
        let mut a = Hasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Hasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn lanes_decorrelate() {
        // If both lanes were identical the digest would be symmetric.
        let mut h = Hasher::new();
        h.write_u64(0xDEAD_BEEF);
        let Fingerprint(d) = h.finish();
        assert_ne!((d >> 64) as u64, d as u64);
    }

    #[test]
    fn le_bytes_roundtrip_bit_exactly() {
        for fp in [
            Fingerprint(0),
            Fingerprint(u128::MAX),
            Fingerprint(0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210),
        ] {
            assert_eq!(Fingerprint::from_le_bytes(fp.to_le_bytes()), fp);
        }
        // The layout is little-endian regardless of host order.
        assert_eq!(Fingerprint(1).to_le_bytes()[0], 1);
        assert_eq!(Fingerprint(1 << 120).to_le_bytes()[15], 1);
    }

    #[test]
    fn no_collisions_over_small_domain() {
        let mut seen = std::collections::HashSet::new();
        for a in 0u64..64 {
            for b in 0u64..64 {
                let mut h = Hasher::new();
                h.write_u64(a);
                h.write_u64(b);
                assert!(seen.insert(h.finish()), "collision at ({a},{b})");
            }
        }
    }
}
