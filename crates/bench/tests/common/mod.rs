//! Shared by the golden-fingerprint tests of this crate.

/// FNV-1a over the output bytes: the golden-hash fingerprint used to pin
/// exact CSV/JSON/table output across behaviour-preserving changes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
