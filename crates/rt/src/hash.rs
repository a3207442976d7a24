//! The workspace's one FNV-1a: a stable, dependency-free 64-bit digest.
//!
//! Not `DefaultHasher`, whose algorithm is unspecified across
//! toolchains — corpus digests, behavior classes, placement indices and
//! commit-record checksums must never move under a compiler bump.
//!
//! Some historical call sites fold with a multiplier that is *not*
//! [`FNV_PRIME`]: [`LONG_PRIME`] (one hex digit longer; placement
//! indices, GPFS LBAs, HDF5 fill bytes) and `simfs::journal`'s own (two
//! digits longer; commit-record checksums). Every pinned output rests
//! on the values they produce, so they keep their constants and share
//! the loop through [`fnv1a_fold`].

/// The FNV-1a digest of no bytes.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, 2^40 + 2^8 + 0xb3.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 2^44 + 2^8 + 0xb3 — [`FNV_PRIME`] with one hex digit too many, so
/// digests agree with real FNV-1a only modulo 2^40. Kept because
/// `pfs::placement` indices, `pfs::gpfs` LBAs and `h5sim` dataset fill
/// bytes were all first computed with it.
pub const LONG_PRIME: u64 = 0x1000_0000_01b3;

/// Fold `bytes` into the running digest `h`, xor-then-multiply by
/// `prime`. [`fnv1a_extend`] is this with [`FNV_PRIME`].
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8], prime: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

/// Fold `bytes` into the running FNV-1a digest `h`.
#[inline]
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_fold(h, bytes, FNV_PRIME)
}

/// FNV-1a over `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET_BASIS);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
