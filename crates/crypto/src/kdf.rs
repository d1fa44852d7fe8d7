//! Minimal HKDF-style key derivation (extract-and-expand over HMAC-SHA-256).

// Labels are caller input: a bad one is never a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use crate::hmac::HmacKey;

/// Derives a 32-byte subkey from `master` and a context `label`.
///
/// Distinct labels give computationally independent keys; the same
/// `(master, label)` always gives the same key, so the encrypted-database
/// layers can re-derive column keys instead of storing them.
pub fn derive_key(master: &[u8; 32], label: &[u8]) -> [u8; 32] {
    HmacKey::new(master).mac(&[b"edb-kdf-v1", label])
}

/// Expands a key into `n` bytes of pseudorandom output.
pub fn expand(key: &[u8; 32], label: &[u8], n: usize) -> Vec<u8> {
    let key = HmacKey::new(key);
    let mut out = Vec::with_capacity(n);
    let mut counter: u64 = 0;
    while out.len() < n {
        let blockbytes = key.mac(&[b"edb-kdf-expand", label, &counter.to_le_bytes()]);
        let take = n - out.len();
        out.extend(blockbytes.iter().take(take));
        counter += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_label_separated() {
        let m = [1u8; 32];
        assert_eq!(derive_key(&m, b"a"), derive_key(&m, b"a"));
        assert_ne!(derive_key(&m, b"a"), derive_key(&m, b"b"));
        assert_ne!(derive_key(&m, b"a"), derive_key(&[2u8; 32], b"a"));
    }

    #[test]
    fn expand_lengths() {
        let k = [5u8; 32];
        for n in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(expand(&k, b"ctx", n).len(), n);
        }
        // Prefix property: expanding to a longer length extends the shorter.
        let short = expand(&k, b"ctx", 40);
        let long = expand(&k, b"ctx", 80);
        assert_eq!(&long[..40], &short[..]);
    }

    #[test]
    fn derivation_is_the_per_call_hmac() {
        let m = [3u8; 32];
        let reference = crate::hmac::reference::hmac_parts;
        assert_eq!(derive_key(&m, b"l"), reference(&m, &[b"edb-kdf-v1", b"l"]));
        let want: Vec<u8> = (0u64..3)
            .flat_map(|c| reference(&m, &[b"edb-kdf-expand", b"l", &c.to_le_bytes()]))
            .take(70)
            .collect();
        assert_eq!(expand(&m, b"l", 70), want);
    }
}
