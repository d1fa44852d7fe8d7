//! HMAC-SHA-256 (RFC 2104), the PRF used by every scheme in this crate.
//!
//! [`HmacKey`] absorbs a key's two pad blocks once; every MAC under that
//! key then starts from copies of those two hash states. [`hmac_parts`],
//! [`crate::kdf`] and [`Prf`] are all built on it, so this is the one
//! place the pads are computed.

// Keys and messages here are caller bytes, some of them read off disk
// or the wire: a bad length is never a panic.
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

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes HMAC over several length-framed segments.
///
/// Framing makes `(["ab","c"])` and `(["a","bc"])` produce different tags,
/// which the schemes rely on when building tweaked PRFs like
/// `F(k, (block_index, prefix, value))`. A caller that MACs many
/// messages under one key should hold an [`HmacKey`] instead: this
/// derives the pad states afresh on every call.
pub fn hmac_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(parts)
}

/// An HMAC-SHA-256 key with its pads already absorbed: the inner and
/// outer hash states after the `ipad` and `opad` blocks. A MAC clones
/// the two states instead of hashing the pads again, which saves two of
/// the four compressions a short message costs.
///
/// The states are key material: `Debug` prints neither.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key`'s pad blocks. A key longer than one block is
    /// hashed first, as RFC 2104 says.
    pub fn new(key: &[u8]) -> Self {
        let digest;
        let key = if key.len() > BLOCK_LEN {
            digest = crate::sha256::digest(key);
            digest.as_slice()
        } else {
            key
        };
        let mut k_block = [0u8; BLOCK_LEN];
        for (b, k) in k_block.iter_mut().zip(key) {
            *b = *k;
        }
        let mut inner = Sha256::new();
        inner.update(&k_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k_block.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// The MAC of `parts`, each framed by its length as
    /// [`hmac_parts`] frames it.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        for p in parts {
            inner.update(&(p.len() as u64).to_le_bytes());
            inner.update(p);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

/// A PRF with convenient output shapes, wrapping HMAC-SHA-256.
///
/// # Examples
///
/// ```
/// use edb_crypto::hmac::Prf;
///
/// let prf = Prf::new(&[1u8; 32]);
/// let a = prf.eval_u64(&[b"tweak", b"input"]);
/// let b = prf.eval_u64(&[b"tweak", b"input"]);
/// assert_eq!(a, b);
/// ```
#[derive(Clone)]
pub struct Prf {
    key: HmacKey,
}

impl Prf {
    /// Creates a PRF keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        Prf {
            key: HmacKey::new(key),
        }
    }

    /// Full 32-byte PRF output.
    pub fn eval(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        self.key.mac(parts)
    }

    /// PRF output truncated to a `u64`.
    pub fn eval_u64(&self, parts: &[&[u8]]) -> u64 {
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = self.eval(parts);
        u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
    }
}

/// Constant-time equality for MAC verification.
///
/// Returns `true` iff `a == b`, inspecting every byte regardless of where
/// the first mismatch occurs.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// The per-call HMAC this module computed before [`HmacKey`] kept the
/// pad states: the oracle the cached paths are checked against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

    /// `hmac_parts`, pads derived afresh on every call.
    pub(crate) fn hmac_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut k_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::digest(key);
            k_block[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= k_block[i];
            opad[i] ^= k_block[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        for p in parts {
            inner.update(&(p.len() as u64).to_le_bytes());
            inner.update(p);
        }
        let inner_digest = inner.finalize();

        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The unframed HMAC the RFC vectors are stated for, from the
    /// same pad states [`HmacKey::mac`] starts from.
    fn raw_hmac(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
        let HmacKey {
            mut inner,
            mut outer,
        } = HmacKey::new(key);
        inner.update(msg);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = raw_hmac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = raw_hmac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = raw_hmac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn framing_distinguishes_part_boundaries() {
        let k = [9u8; 32];
        assert_ne!(
            hmac_parts(&k, &[b"ab", b"c"]),
            hmac_parts(&k, &[b"a", b"bc"])
        );
        assert_ne!(hmac_parts(&k, &[b"abc"]), hmac_parts(&k, &[b"abc", b""]));
    }

    #[test]
    fn cached_pads_mac_as_the_per_call_reference() {
        let msg: Vec<u8> = (0..150u32).map(|i| (i * 31 + 7) as u8).collect();
        for key_len in [0usize, 32, 64, 65, 100] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 1) as u8).collect();
            let cached = HmacKey::new(&key);
            // One key serves many MACs: the same states, every split.
            for cuts in [
                &[][..],
                &[0],
                &[1],
                &[55],
                &[64, 64],
                &[10, 63, 120],
                &[150],
            ] {
                let mut parts = Vec::new();
                let mut from = 0;
                for &cut in cuts {
                    parts.push(&msg[from..cut.max(from)]);
                    from = cut.max(from);
                }
                parts.push(&msg[from..]);
                let want = reference::hmac_parts(&key, &parts);
                assert_eq!(cached.mac(&parts), want, "key {key_len} B, cuts {cuts:?}");
                assert_eq!(hmac_parts(&key, &parts), want);
            }
            assert_eq!(cached.mac(&[]), reference::hmac_parts(&key, &[]));
        }
    }

    #[test]
    fn debug_never_prints_pad_states() {
        let s = format!("{:?}", HmacKey::new(&[0xAB; 32]));
        assert_eq!(s, "HmacKey(<redacted>)");
    }

    #[test]
    fn ct_eq_behaves() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sama"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}
