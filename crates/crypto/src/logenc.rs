//! BigFoot-style authenticated encryption for write-ahead-log records
//! (Pei & Shmatikov, PAPERS.md).
//!
//! The paper's §3 attacks (E2/E3/E14) work because redo, undo, binlog,
//! and relay-log records hit disk in plaintext. This module seals each
//! log record with ChaCha20 + HMAC-SHA-256 (encrypt-then-MAC, the same
//! composition as [`crate::rnd`]) under a **deterministic nonce derived
//! from the record's log position**: the stream id plus the record's
//! sequence number (the LSN for redo/undo, the GTID-style event
//! sequence for the binlog).
//!
//! Log positions are unique only *per server*, and a replicated fleet
//! shares one log key — the primary and a replica both seal their own
//! redo/undo/binlog at `(stream, seq) = (REDO, 1), (REDO, 2), …` with
//! different plaintexts. Sealing under the master key alone would reuse
//! the ChaCha20 keystream across nodes, letting a keyless attacker who
//! images both machines XOR ciphertexts into plaintext XORs. So every
//! record is sealed under a **per-origin subkey**, derived from the
//! shared key and the sealing node's server id (the `origin`): position
//! uniqueness then only has to hold per origin, which the per-server
//! monotonicity of LSNs and event sequences guarantees. No stored
//! random nonce is needed, keeping the overhead to the 17-byte header
//! plus the 16-byte tag.
//!
//! The header (`stream || origin || seq`) is authenticated but not
//! encrypted: crash recovery must know a record's position *before* it
//! can check the tag, and position is exactly what the attacker already
//! gets from the record's offset in the file. Carrying the origin in
//! the header also lets any key holder open any node's records —
//! shipped binlog frames stay under the primary's sealing end-to-end.
//! **Leakage profile:** per-record lengths, stream ids, origin ids, and
//! sequence numbers — no row images, no statement text, no timestamps.
//!
//! Deriving an origin's subkeys costs eight SHA-256 compressions, more
//! than sealing a short record itself. [`OriginKeys`] holds one origin's
//! derived state, the encryption subkey and the MAC key's pad states, so
//! a sealer derives it once; the free [`seal`] and [`open`] derive it
//! per call and run the same code.

// Sealed records are read off disk and the wire: a short or damaged
// one is a typed error, never a panic.
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

use crate::chacha20;
use crate::hmac::{ct_eq, HmacKey};
use crate::kdf;
use crate::sha256::DIGEST_LEN;
use crate::CryptoError;
use crate::Key;

/// Stream id of redo-log records (nonce domain separation).
pub const STREAM_REDO: u8 = 1;
/// Stream id of undo-log records.
pub const STREAM_UNDO: u8 = 2;
/// Stream id of binlog (and therefore relay-log) events.
pub const STREAM_BINLOG: u8 = 3;

/// Sealed-record header: `stream (1) || origin (8, LE) || seq (8, LE)`.
pub const HEADER_LEN: usize = 17;

/// Length of the MAC tag appended to sealed records.
pub const TAG_LEN: usize = 16;

/// Total size overhead of sealing: header plus tag.
pub const OVERHEAD: usize = HEADER_LEN + TAG_LEN;

/// The 96-bit ChaCha20 nonce for a `(stream, seq)` log position. Unique
/// per origin subkey: positions are monotonic for the life of a server.
fn nonce_for(stream: u8, seq: u64) -> [u8; chacha20::NONCE_LEN] {
    let [s0, s1, s2, s3, s4, s5, s6, s7] = seq.to_le_bytes();
    [stream, 0, 0, 0, s0, s1, s2, s3, s4, s5, s6, s7]
}

/// The stored tag: the MAC's first [`TAG_LEN`] bytes.
fn truncated(mac: &[u8; DIGEST_LEN]) -> &[u8] {
    const { assert!(TAG_LEN <= DIGEST_LEN) };
    mac.split_at(TAG_LEN).0
}

/// One origin's sealing state under a shared key: the per-origin
/// `(enc, mac)` subkeys, the MAC key with its pads absorbed. Distinct
/// origins give computationally independent keystreams under one
/// shared fleet key. `Debug` prints the origin, never the keys.
pub struct OriginKeys {
    origin: u64,
    enc: [u8; 32],
    mac: HmacKey,
}

impl OriginKeys {
    /// Derives node `origin`'s subkeys from the shared `key`.
    pub fn derive(key: &Key, origin: u64) -> Self {
        let subkey = |name: &[u8]| kdf::derive_key(&key.0, &[name, &origin.to_le_bytes()].concat());
        OriginKeys {
            origin,
            enc: subkey(b"logenc-enc"),
            mac: HmacKey::new(&subkey(b"logenc-mac")),
        }
    }

    /// The origin these keys seal for.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Seals one record this origin logged at `(stream, seq)`:
    /// `stream || origin || seq || ciphertext || tag`.
    ///
    /// The tag covers the header and the ciphertext, so a record spliced
    /// to a different log position or node (or a bit-flipped body) fails
    /// to open.
    pub fn seal(&self, stream: u8, seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
        out.push(stream);
        out.extend_from_slice(&self.origin.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(plaintext);
        // `out` holds the whole header already.
        let (header, body) = out.split_at_mut(HEADER_LEN);
        chacha20::xor_stream(&self.enc, &nonce_for(stream, seq), 1, body);
        let tag = self.mac.mac(&[header, body]);
        out.extend_from_slice(truncated(&tag));
        out
    }

    /// Authenticates and decrypts `record`, which must carry this
    /// origin; a record of another origin fails authentication.
    pub fn open(&self, record: &SealedRecord<'_>) -> Result<Vec<u8>, CryptoError> {
        let expect = self.mac.mac(&[record.header, record.body]);
        if record.origin != self.origin || !ct_eq(truncated(&expect), record.tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut plain = record.body.to_vec();
        chacha20::xor_stream(
            &self.enc,
            &nonce_for(record.stream, record.seq),
            1,
            &mut plain,
        );
        Ok(plain)
    }
}

impl core::fmt::Debug for OriginKeys {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "OriginKeys {{ origin: {}, keys: <redacted> }}",
            self.origin
        )
    }
}

/// A sealed record split at its header, not yet authenticated: the
/// header says which origin's keys open it and at which nonce.
#[derive(Debug)]
pub struct SealedRecord<'a> {
    /// Server id of the node that sealed the record.
    pub origin: u64,
    /// The record's log stream ([`STREAM_REDO`], ...).
    pub stream: u8,
    /// The record's sequence number in its stream.
    pub seq: u64,
    header: &'a [u8],
    body: &'a [u8],
    tag: &'a [u8],
}

impl<'a> SealedRecord<'a> {
    /// Splits `sealed` into header fields, ciphertext and tag.
    pub fn parse(sealed: &'a [u8]) -> Result<Self, CryptoError> {
        Self::split(sealed).ok_or(CryptoError::Malformed(
            "sealed record shorter than overhead",
        ))
    }

    fn split(sealed: &'a [u8]) -> Option<Self> {
        let (header, rest) = sealed.split_at_checked(HEADER_LEN)?;
        let (body, tag) = rest.split_at_checked(rest.len().checked_sub(TAG_LEN)?)?;
        let (&stream, position) = header.split_first()?;
        let (origin, seq) = position.split_first_chunk::<8>()?;
        Some(SealedRecord {
            origin: u64::from_le_bytes(*origin),
            stream,
            seq: u64::from_le_bytes(*seq.first_chunk::<8>()?),
            header,
            body,
            tag,
        })
    }
}

/// Seals one log record originated by node `origin` (its server id),
/// deriving the origin's keys for this one call: see
/// [`OriginKeys::seal`], which a node sealing many records should hold.
pub fn seal(key: &Key, origin: u64, stream: u8, seq: u64, plaintext: &[u8]) -> Vec<u8> {
    OriginKeys::derive(key, origin).seal(stream, seq, plaintext)
}

/// Opens a sealed record, returning `(origin, stream, seq, plaintext)`.
///
/// Self-describing: the header carries the subkey and nonce inputs, so
/// any holder of the shared key — a recovering server, a replica
/// applying a frame the *primary* sealed, a carver that resynchronized
/// mid-file — can open it without external position bookkeeping. The
/// origin's keys are derived for this one call.
pub fn open(key: &Key, sealed: &[u8]) -> Result<(u64, u8, u64, Vec<u8>), CryptoError> {
    let record = SealedRecord::parse(sealed)?;
    let plain = OriginKeys::derive(key, record.origin).open(&record)?;
    Ok((record.origin, record.stream, record.seq, plain))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key([0x17; 32])
    }

    #[test]
    fn round_trip_all_streams() {
        for stream in [STREAM_REDO, STREAM_UNDO, STREAM_BINLOG] {
            for len in [0usize, 1, 16, 64, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let sealed = seal(&key(), 1, stream, 42, &pt);
                assert_eq!(sealed.len(), len + OVERHEAD);
                assert_eq!(open(&key(), &sealed).unwrap(), (1, stream, 42, pt));
            }
        }
    }

    #[test]
    fn nonce_is_position_deterministic_but_stream_separated() {
        // Same origin and position, same bytes: sealing is deterministic
        // by design (the position *is* the nonce).
        let a = seal(&key(), 1, STREAM_REDO, 9, b"payload");
        let b = seal(&key(), 1, STREAM_REDO, 9, b"payload");
        assert_eq!(a, b);
        // Redo and undo records share LSN values; the stream id keeps
        // their keystreams disjoint.
        let c = seal(&key(), 1, STREAM_UNDO, 9, b"payload");
        assert_ne!(&a[HEADER_LEN..], &c[HEADER_LEN..]);
        // Different positions never share a keystream.
        let d = seal(&key(), 1, STREAM_REDO, 10, b"payload");
        assert_ne!(&a[HEADER_LEN..], &d[HEADER_LEN..]);
    }

    #[test]
    fn fleet_nodes_never_share_a_keystream() {
        // A primary and a replica share one fleet key and both seal
        // their own logs at the same (stream, seq) positions with
        // *different* plaintexts — the E20 fleet shape. Per-origin
        // subkeys must keep the keystreams disjoint, or XORing the two
        // cold images would hand a keyless attacker the plaintext XOR.
        let pt_a = b"primary-row-AAAAAAAA";
        let pt_b = b"replica-row-BBBBBBBB";
        let a = seal(&key(), 1, STREAM_BINLOG, 0, pt_a);
        let b = seal(&key(), 2, STREAM_BINLOG, 0, pt_b);
        let body_a = &a[HEADER_LEN..a.len() - TAG_LEN];
        let body_b = &b[HEADER_LEN..b.len() - TAG_LEN];
        let ct_xor: Vec<u8> = body_a.iter().zip(body_b).map(|(x, y)| x ^ y).collect();
        let pt_xor: Vec<u8> = pt_a.iter().zip(pt_b).map(|(x, y)| x ^ y).collect();
        assert_ne!(ct_xor, pt_xor, "cross-node keystream reuse");
        // Same plaintext, different origins: still distinct ciphertext.
        let c = seal(&key(), 2, STREAM_BINLOG, 0, pt_a);
        assert_ne!(&a[HEADER_LEN..], &c[HEADER_LEN..]);
        // And both still open for any holder of the shared key.
        assert_eq!(open(&key(), &a).unwrap().0, 1);
        assert_eq!(open(&key(), &b).unwrap().0, 2);
        // Keys derived once per origin and held seal the same bytes, and
        // one origin's keys open none of the other's records.
        let (keys_a, keys_b) = (OriginKeys::derive(&key(), 1), OriginKeys::derive(&key(), 2));
        assert_eq!(keys_a.seal(STREAM_BINLOG, 0, pt_a), a);
        assert_eq!(keys_b.seal(STREAM_BINLOG, 0, pt_b), b);
        let (ra, rb) = (
            SealedRecord::parse(&a).unwrap(),
            SealedRecord::parse(&b).unwrap(),
        );
        assert_eq!(keys_a.open(&ra).unwrap(), pt_a);
        assert_eq!(keys_a.open(&rb), Err(CryptoError::AuthenticationFailed));
        assert_eq!(keys_b.open(&ra), Err(CryptoError::AuthenticationFailed));
    }

    /// [`seal`] as this module computed it before [`OriginKeys`]: both
    /// subkeys and both HMAC pads derived afresh for every record.
    fn reference_seal(key: &Key, origin: u64, stream: u8, seq: u64, pt: &[u8]) -> Vec<u8> {
        use crate::hmac::reference::hmac_parts;
        let subkey = |name: &[u8]| {
            hmac_parts(
                &key.0,
                &[b"edb-kdf-v1", &[name, &origin.to_le_bytes()].concat()],
            )
        };
        let (enc_key, mac_key) = (subkey(b"logenc-enc"), subkey(b"logenc-mac"));
        let mut nonce = [0u8; chacha20::NONCE_LEN];
        nonce[0] = stream;
        nonce[4..12].copy_from_slice(&seq.to_le_bytes());

        let mut out = Vec::with_capacity(pt.len() + OVERHEAD);
        out.push(stream);
        out.extend_from_slice(&origin.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(pt);
        chacha20::xor_stream(&enc_key, &nonce, 1, &mut out[HEADER_LEN..]);
        let tag = hmac_parts(&mac_key, &[&out[..HEADER_LEN], &out[HEADER_LEN..]]);
        out.extend_from_slice(&tag[..TAG_LEN]);
        out
    }

    #[test]
    fn held_keys_seal_and_open_as_the_per_call_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EA1);
        for case in 0..120 {
            let key = Key::random(&mut rng);
            let origin = if case % 2 == 0 {
                rng.gen_range(0..4u64)
            } else {
                rng.gen()
            };
            let stream = [STREAM_REDO, STREAM_UNDO, STREAM_BINLOG, rng.gen()][case % 4];
            let len = [0usize, 1, 63, 64, 65, 6500][case % 6];
            let pt: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // One derivation serves every record of the origin.
            let keys = OriginKeys::derive(&key, origin);
            for _ in 0..3 {
                let seq = rng.gen();
                let want = reference_seal(&key, origin, stream, seq, &pt);
                assert_eq!(keys.seal(stream, seq, &pt), want, "case {case}");
                assert_eq!(seal(&key, origin, stream, seq, &pt), want, "case {case}");
                let record = SealedRecord::parse(&want).unwrap();
                assert_eq!(
                    (record.origin, record.stream, record.seq),
                    (origin, stream, seq)
                );
                assert_eq!(keys.open(&record).unwrap(), pt);
                assert_eq!(
                    open(&key, &want).unwrap(),
                    (origin, stream, seq, pt.clone())
                );
                // Another origin's keys, another key, or one flipped bit:
                // nothing opens.
                let other = OriginKeys::derive(&key, origin ^ 1);
                assert_eq!(other.open(&record), Err(CryptoError::AuthenticationFailed));
                assert_eq!(
                    open(&Key::random(&mut rng), &want),
                    Err(CryptoError::AuthenticationFailed)
                );
                let mut bad = want.clone();
                bad[rng.gen_range(0..want.len())] ^= 1 << rng.gen_range(0..8);
                assert_eq!(open(&key, &bad), Err(CryptoError::AuthenticationFailed));
                if let Ok(record) = SealedRecord::parse(&bad) {
                    assert!(keys.open(&record).is_err());
                }
            }
        }
    }

    #[test]
    fn debug_never_prints_key_material() {
        let keys = OriginKeys::derive(&Key([0xAB; 32]), 7);
        assert_eq!(
            format!("{keys:?}"),
            "OriginKeys { origin: 7, keys: <redacted> }"
        );
    }

    #[test]
    fn tamper_and_splice_detected() {
        let mut sealed = seal(&key(), 3, STREAM_BINLOG, 3, b"INSERT INTO t VALUES (1)");
        for i in 0..sealed.len() {
            sealed[i] ^= 1;
            assert_eq!(
                open(&key(), &sealed),
                Err(CryptoError::AuthenticationFailed)
            );
            sealed[i] ^= 1;
        }
        assert!(open(&key(), &sealed).is_ok());
    }

    #[test]
    fn wrong_key_and_truncation_rejected() {
        let sealed = seal(&key(), 1, STREAM_REDO, 1, b"row bytes");
        assert_eq!(
            open(&Key([0x18; 32]), &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
        assert!(matches!(
            open(&key(), &sealed[..OVERHEAD - 1]),
            Err(CryptoError::Malformed(_))
        ));
    }

    #[test]
    fn ciphertext_hides_plaintext_bytes() {
        let pt = b"SECRET-MARKER-0123456789";
        let sealed = seal(&key(), 1, STREAM_BINLOG, 7, pt);
        let window = &sealed[HEADER_LEN..sealed.len() - TAG_LEN];
        assert!(!window.windows(6).any(|w| pt.windows(6).any(|p| p == w)));
    }
}
