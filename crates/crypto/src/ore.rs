//! Lewi–Wu order-revealing encryption (CCS 2016), the left/right
//! construction with configurable block size.
//!
//! Plaintexts are `width`-bit unsigned integers processed in blocks of
//! `block_bits` bits, most significant block first. A **right ciphertext**
//! (stored in the database) contains, for every block index and every
//! candidate block value, a blinded comparison result; a **left ciphertext**
//! (the *query token*) contains, per block, a PRF key and a permuted slot
//! index that unlock exactly one of those comparison results.
//!
//! **Leakage profile:**
//!
//! * right ciphertexts alone — nothing: every entry is blinded by
//!   `H(F(k₁, ·), nonce)` with a per-ciphertext nonce, so the encryption is
//!   semantically secure *at rest*. This is the basis for Lewi–Wu-style
//!   "snapshot security" claims.
//! * a left ciphertext applied to a right ciphertext — the order of the two
//!   plaintexts **and the index of the most significant differing block**
//!   ([`compare_leak`]). With 1-bit blocks that index pins down one
//!   plaintext bit of each operand and the pairwise equality of all more
//!   significant bits — the leakage the paper's §6 simulation accumulates
//!   into 12–25% of all database bits.

use core::cmp::Ordering;

use crate::feistel::SmallPrp;
use crate::hmac::{hmac_parts, HmacKey, Prf};
use crate::kdf;
use crate::CryptoError;
use crate::Key;

/// Comparison encodings inside right-ciphertext slots (values mod 3).
const CMP_EQ: u8 = 0;
const CMP_LT: u8 = 1;
const CMP_GT: u8 = 2;

/// Parameters of the ORE scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OreParams {
    /// Plaintext width in bits (≤ 64).
    pub width: u32,
    /// Block size in bits; the paper's simulation uses 1.
    pub block_bits: u32,
}

impl OreParams {
    /// The configuration used by the paper's §6 simulation: 32-bit values,
    /// 1-bit blocks.
    pub const PAPER: OreParams = OreParams {
        width: 32,
        block_bits: 1,
    };

    /// Number of blocks per plaintext.
    pub fn num_blocks(&self) -> u32 {
        self.width / self.block_bits
    }

    /// Number of possible values per block.
    pub fn block_space(&self) -> u64 {
        1u64 << self.block_bits
    }

    fn validate(&self) -> Result<(), CryptoError> {
        if self.width == 0 || self.width > 64 {
            return Err(CryptoError::DomainViolation("width must be in 1..=64"));
        }
        if self.block_bits == 0 || !self.width.is_multiple_of(self.block_bits) {
            return Err(CryptoError::DomainViolation("block_bits must divide width"));
        }
        if self.block_bits > 8 {
            return Err(CryptoError::DomainViolation(
                "block_bits > 8 makes right ciphertexts impractically large",
            ));
        }
        Ok(())
    }
}

/// Secret key for the Lewi–Wu scheme.
#[derive(Clone)]
pub struct OreKey {
    params: OreParams,
    /// PRF used for slot-unblinding keys (k₁ in the paper).
    prf1: Prf,
    /// PRF used to key the per-prefix slot permutations (k₂ in the paper).
    prf2: HmacKey,
}

/// A left ciphertext — the query token delegated to the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeftCiphertext {
    /// Per block: (unblinding key, permuted slot index).
    pub blocks: Vec<([u8; 32], u16)>,
}

/// A right ciphertext — the form stored in the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RightCiphertext {
    /// Per-ciphertext nonce feeding the blinding hash.
    pub nonce: [u8; 16],
    /// `blocks[i][slot]` is a blinded comparison value in `0..3`.
    pub blocks: Vec<Vec<u8>>,
}

/// Result of a comparison together with the structural leakage it incurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompareLeak {
    /// The revealed order relation.
    pub ordering: Ordering,
    /// Index (0 = most significant) of the first differing block, or `None`
    /// when the plaintexts are equal.
    pub msdb: Option<u32>,
}

fn prefix_bytes(x: u64, block_idx: u32, params: &OreParams) -> [u8; 8] {
    // The value of the blocks strictly above `block_idx`, right-aligned.
    let consumed = block_idx * params.block_bits;
    let prefix = if consumed == 0 {
        0
    } else {
        x >> (params.width - consumed)
    };
    prefix.to_le_bytes()
}

fn block_value(x: u64, block_idx: u32, params: &OreParams) -> u64 {
    let shift = params.width - (block_idx + 1) * params.block_bits;
    (x >> shift) & (params.block_space() - 1)
}

/// `H(key, nonce) mod 3`: the blinding hash.
fn blind(key: &[u8; 32], nonce: &[u8; 16]) -> u8 {
    let d = hmac_parts(key, &[b"ore-blind", nonce]);
    (u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]) % 3) as u8
}

impl OreKey {
    /// Creates an ORE key for the given parameters.
    pub fn new(master: &Key, params: OreParams) -> Result<Self, CryptoError> {
        params.validate()?;
        Ok(OreKey {
            params,
            prf1: Prf::new(&kdf::derive_key(&master.0, b"ore-k1")),
            prf2: HmacKey::new(&kdf::derive_key(&master.0, b"ore-k2")),
        })
    }

    /// Scheme parameters.
    pub fn params(&self) -> OreParams {
        self.params
    }

    fn check_domain(&self, x: u64) -> Result<(), CryptoError> {
        if self.params.width < 64 && x >> self.params.width != 0 {
            return Err(CryptoError::DomainViolation("plaintext exceeds width"));
        }
        Ok(())
    }

    /// Permutation over block values for `(block_idx, prefix)`.
    fn slot_prp(&self, block_idx: u32, prefix: &[u8; 8]) -> SmallPrp {
        let k = self
            .prf2
            .mac(&[b"ore-perm", &block_idx.to_le_bytes(), prefix]);
        SmallPrp::new(&k, self.params.block_space())
    }

    /// Unblinding key for `(block_idx, prefix, block_value)`.
    fn slot_key(&self, block_idx: u32, prefix: &[u8; 8], b: u64) -> [u8; 32] {
        self.prf1.eval(&[
            b"ore-slot",
            &block_idx.to_le_bytes(),
            prefix,
            &b.to_le_bytes(),
        ])
    }

    /// Encrypts `x` as a left ciphertext (query token).
    pub fn encrypt_left(&self, x: u64) -> Result<LeftCiphertext, CryptoError> {
        self.check_domain(x)?;
        let mut blocks = Vec::with_capacity(self.params.num_blocks() as usize);
        for i in 0..self.params.num_blocks() {
            let prefix = prefix_bytes(x, i, &self.params);
            let xi = block_value(x, i, &self.params);
            let key = self.slot_key(i, &prefix, xi);
            let pos = self.slot_prp(i, &prefix).permute(xi) as u16;
            blocks.push((key, pos));
        }
        Ok(LeftCiphertext { blocks })
    }

    /// Encrypts `y` as a right ciphertext using randomness from `rng`.
    pub fn encrypt_right<R: rand::Rng + ?Sized>(
        &self,
        y: u64,
        rng: &mut R,
    ) -> Result<RightCiphertext, CryptoError> {
        self.check_domain(y)?;
        let mut nonce = [0u8; 16];
        rng.fill(&mut nonce);
        let space = self.params.block_space();
        let mut blocks = Vec::with_capacity(self.params.num_blocks() as usize);
        for i in 0..self.params.num_blocks() {
            let prefix = prefix_bytes(y, i, &self.params);
            let yi = block_value(y, i, &self.params);
            let prp = self.slot_prp(i, &prefix);
            let mut slots = vec![0u8; space as usize];
            for b in 0..space {
                let cmp = match b.cmp(&yi) {
                    Ordering::Equal => CMP_EQ,
                    Ordering::Less => CMP_LT,
                    Ordering::Greater => CMP_GT,
                };
                let k = self.slot_key(i, &prefix, b);
                let slot = prp.permute(b) as usize;
                slots[slot] = (cmp + blind(&k, &nonce)) % 3;
            }
            blocks.push(slots);
        }
        Ok(RightCiphertext { nonce, blocks })
    }
}

impl LeftCiphertext {
    /// Serializes the token (as it would travel inside a SQL statement).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.blocks.len() * 34);
        out.extend_from_slice(&(self.blocks.len() as u16).to_le_bytes());
        for (key, pos) in &self.blocks {
            out.extend_from_slice(key);
            out.extend_from_slice(&pos.to_le_bytes());
        }
        out
    }

    /// Parses a token from bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<LeftCiphertext, CryptoError> {
        if buf.len() < 2 {
            return Err(CryptoError::Malformed("short left ciphertext"));
        }
        let n = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        if buf.len() != 2 + n * 34 {
            return Err(CryptoError::Malformed("left ciphertext length"));
        }
        let mut blocks = Vec::with_capacity(n);
        for i in 0..n {
            let off = 2 + i * 34;
            let mut key = [0u8; 32];
            key.copy_from_slice(&buf[off..off + 32]);
            let pos = u16::from_le_bytes([buf[off + 32], buf[off + 33]]);
            blocks.push((key, pos));
        }
        Ok(LeftCiphertext { blocks })
    }
}

impl RightCiphertext {
    /// Serializes the stored ciphertext.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&(self.blocks.len() as u16).to_le_bytes());
        for slots in &self.blocks {
            out.extend_from_slice(&(slots.len() as u16).to_le_bytes());
            out.extend_from_slice(slots);
        }
        out
    }

    /// Parses a stored ciphertext from bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<RightCiphertext, CryptoError> {
        if buf.len() < 18 {
            return Err(CryptoError::Malformed("short right ciphertext"));
        }
        let mut nonce = [0u8; 16];
        nonce.copy_from_slice(&buf[..16]);
        let n = u16::from_le_bytes([buf[16], buf[17]]) as usize;
        let mut pos = 18;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let Some(len_bytes) = buf.get(pos..pos + 2) else {
                return Err(CryptoError::Malformed("truncated right ciphertext"));
            };
            let len = u16::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            pos += 2;
            let Some(slots) = buf.get(pos..pos + len) else {
                return Err(CryptoError::Malformed("truncated right ciphertext"));
            };
            pos += len;
            blocks.push(slots.to_vec());
        }
        if pos != buf.len() {
            return Err(CryptoError::Malformed("trailing right-ciphertext bytes"));
        }
        Ok(RightCiphertext { nonce, blocks })
    }
}

/// Compares a query token against a stored ciphertext, additionally
/// reporting the leaked most-significant-differing-block index.
///
/// This is a keyless operation: anyone holding the two ciphertexts — e.g. a
/// snapshot attacker who carved the token out of a log — can run it. That
/// asymmetry is the crux of the paper's §6 analysis.
pub fn compare_leak(
    left: &LeftCiphertext,
    right: &RightCiphertext,
) -> Result<CompareLeak, CryptoError> {
    if left.blocks.len() != right.blocks.len() {
        return Err(CryptoError::Malformed("block count mismatch"));
    }
    for (i, ((key, pos), slots)) in left.blocks.iter().zip(right.blocks.iter()).enumerate() {
        let slot = *pos as usize;
        if slot >= slots.len() {
            return Err(CryptoError::Malformed("slot index out of range"));
        }
        let res = (slots[slot] + 3 - blind(key, &right.nonce)) % 3;
        match res {
            CMP_EQ => continue,
            CMP_LT => {
                return Ok(CompareLeak {
                    ordering: Ordering::Less,
                    msdb: Some(i as u32),
                })
            }
            _ => {
                return Ok(CompareLeak {
                    ordering: Ordering::Greater,
                    msdb: Some(i as u32),
                })
            }
        }
    }
    Ok(CompareLeak {
        ordering: Ordering::Equal,
        msdb: None,
    })
}

/// Compares a token against a stored ciphertext, returning only the order.
pub fn compare(left: &LeftCiphertext, right: &RightCiphertext) -> Result<Ordering, CryptoError> {
    compare_leak(left, right).map(|l| l.ordering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(params: OreParams) -> OreKey {
        OreKey::new(&Key([0x33; 32]), params).unwrap()
    }

    #[test]
    fn correctness_one_bit_blocks() {
        let k = key(OreParams::PAPER);
        let mut rng = StdRng::seed_from_u64(7);
        let values = [0u64, 1, 2, 3, 100, 1 << 16, u32::MAX as u64, 0xDEAD_BEEF];
        for &x in &values {
            let left = k.encrypt_left(x).unwrap();
            for &y in &values {
                let right = k.encrypt_right(y, &mut rng).unwrap();
                assert_eq!(compare(&left, &right).unwrap(), x.cmp(&y), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn correctness_multi_bit_blocks() {
        let params = OreParams {
            width: 16,
            block_bits: 4,
        };
        let k = key(params);
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..200u64 {
            let x = Prf::new(&[1; 32]).eval_u64(&[&trial.to_le_bytes()]) & 0xFFFF;
            let y = Prf::new(&[2; 32]).eval_u64(&[&trial.to_le_bytes()]) & 0xFFFF;
            let left = k.encrypt_left(x).unwrap();
            let right = k.encrypt_right(y, &mut rng).unwrap();
            assert_eq!(compare(&left, &right).unwrap(), x.cmp(&y), "{x} vs {y}");
        }
    }

    #[test]
    fn msdb_leak_matches_plaintext_structure() {
        let k = key(OreParams::PAPER);
        let mut rng = StdRng::seed_from_u64(9);
        let cases = [
            (0b1000u64 << 28, 0b1001u64 << 28, 3u32),
            (0u64, 1u64, 31),
            (u32::MAX as u64, 0u64, 0),
        ];
        for &(x, y, expect_msdb) in &cases {
            let left = k.encrypt_left(x).unwrap();
            let right = k.encrypt_right(y, &mut rng).unwrap();
            let leak = compare_leak(&left, &right).unwrap();
            assert_eq!(leak.msdb, Some(expect_msdb), "{x:#x} vs {y:#x}");
        }
        // Equal values leak no msdb.
        let left = k.encrypt_left(42).unwrap();
        let right = k.encrypt_right(42, &mut rng).unwrap();
        let leak = compare_leak(&left, &right).unwrap();
        assert_eq!(leak.ordering, Ordering::Equal);
        assert_eq!(leak.msdb, None);
    }

    /// The left and right ciphertexts of `x` under `master`, with every
    /// key derived and every pad hashed afresh per MAC (the reference
    /// HMAC), the right one under `nonce`.
    fn reference_encrypt(
        master: &Key,
        params: OreParams,
        x: u64,
        nonce: &[u8; 16],
    ) -> (LeftCiphertext, RightCiphertext) {
        let mac = crate::hmac::reference::hmac_parts;
        let k1 = mac(&master.0, &[b"edb-kdf-v1", b"ore-k1"]);
        let k2 = mac(&master.0, &[b"edb-kdf-v1", b"ore-k2"]);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for i in 0..params.num_blocks() {
            let prefix = prefix_bytes(x, i, &params);
            let xi = block_value(x, i, &params);
            let slot_key = |b: u64| {
                mac(
                    &k1,
                    &[b"ore-slot", &i.to_le_bytes(), &prefix, &b.to_le_bytes()],
                )
            };
            let perm = mac(&k2, &[b"ore-perm", &i.to_le_bytes(), &prefix]);
            let prp = SmallPrp::new(&perm, params.block_space());
            left.push((slot_key(xi), prp.permute(xi) as u16));
            let mut slots = vec![0u8; params.block_space() as usize];
            for b in 0..params.block_space() {
                let cmp = match b.cmp(&xi) {
                    Ordering::Equal => CMP_EQ,
                    Ordering::Less => CMP_LT,
                    Ordering::Greater => CMP_GT,
                };
                let d = mac(&slot_key(b), &[b"ore-blind", nonce]);
                let blind = u64::from_le_bytes(d[..8].try_into().unwrap()) % 3;
                slots[prp.permute(b) as usize] = (cmp + blind as u8) % 3;
            }
            right.push(slots);
        }
        let right = RightCiphertext {
            nonce: *nonce,
            blocks: right,
        };
        (LeftCiphertext { blocks: left }, right)
    }

    #[test]
    fn held_keys_encrypt_as_the_per_call_reference() {
        let master = Key([0x33; 32]);
        let mut rng = StdRng::seed_from_u64(11);
        let params = [
            OreParams::PAPER,
            OreParams {
                width: 16,
                block_bits: 4,
            },
        ];
        for params in params {
            let k = OreKey::new(&master, params).unwrap();
            for x in [0u64, 1, 0x1234, 0xFFFF, 0xBEEF] {
                let left = k.encrypt_left(x).unwrap();
                let right = k.encrypt_right(x, &mut rng).unwrap();
                let want = reference_encrypt(&master, params, x, &right.nonce);
                assert_eq!((left, right), want, "{params:?}, x = {x:#x}");
            }
        }
    }

    #[test]
    fn right_ciphertexts_are_randomized() {
        let k = key(OreParams::PAPER);
        let mut rng = StdRng::seed_from_u64(10);
        let a = k.encrypt_right(1234, &mut rng).unwrap();
        let b = k.encrypt_right(1234, &mut rng).unwrap();
        assert_ne!(a, b, "right encryptions of equal values must differ");
    }

    #[test]
    fn domain_enforced() {
        let params = OreParams {
            width: 8,
            block_bits: 1,
        };
        let k = key(params);
        assert!(k.encrypt_left(255).is_ok());
        assert!(matches!(
            k.encrypt_left(256),
            Err(CryptoError::DomainViolation(_))
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let m = Key([0; 32]);
        for p in [
            OreParams {
                width: 0,
                block_bits: 1,
            },
            OreParams {
                width: 65,
                block_bits: 1,
            },
            OreParams {
                width: 32,
                block_bits: 5,
            },
            OreParams {
                width: 32,
                block_bits: 0,
            },
            OreParams {
                width: 32,
                block_bits: 16,
            },
        ] {
            assert!(OreKey::new(&m, p).is_err(), "{p:?}");
        }
    }

    #[test]
    fn serialization_round_trips() {
        let k = key(OreParams::PAPER);
        let mut rng = StdRng::seed_from_u64(12);
        let left = k.encrypt_left(0xCAFE).unwrap();
        let right = k.encrypt_right(0xBEEF, &mut rng).unwrap();
        let left2 = LeftCiphertext::from_bytes(&left.to_bytes()).unwrap();
        let right2 = RightCiphertext::from_bytes(&right.to_bytes()).unwrap();
        assert_eq!(left2, left);
        assert_eq!(right2, right);
        assert_eq!(compare(&left2, &right2).unwrap(), 0xCAFEu64.cmp(&0xBEEF));
        assert!(LeftCiphertext::from_bytes(&[1]).is_err());
        assert!(RightCiphertext::from_bytes(&[0; 5]).is_err());
        let mut trunc = right.to_bytes();
        trunc.pop();
        assert!(RightCiphertext::from_bytes(&trunc).is_err());
    }

    #[test]
    fn mismatched_widths_detected() {
        let k8 = key(OreParams {
            width: 8,
            block_bits: 1,
        });
        let k32 = key(OreParams::PAPER);
        let mut rng = StdRng::seed_from_u64(11);
        let left = k8.encrypt_left(1).unwrap();
        let right = k32.encrypt_right(1, &mut rng).unwrap();
        assert!(compare(&left, &right).is_err());
    }
}
