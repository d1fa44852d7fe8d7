//! Song–Wagner–Perrig (SWP) searchable symmetric encryption, the scheme
//! family behind CryptDB's SEARCH onion and Mylar.
//!
//! Each word occurrence is encrypted as `C = X ⊕ (S ‖ F_{k_X}(S))` where
//! `X` is a deterministic encoding of the word, `S` is per-position
//! pseudorandomness, and `k_X` is derived from the left half of `X`. A
//! search trapdoor for word `w` is `(X_w, k_{X_w})`; the server XORs each
//! stored `C` with `X_w` and checks the internal consistency
//! `F_{k_{X_w}}(S) = T`, which holds exactly when the position holds `w`.
//!
//! **Leakage profile:**
//!
//! * ciphertexts alone — nothing beyond the number of word positions
//!   (semantic security; every `C` is pseudorandom);
//! * ciphertexts **plus one trapdoor** — the full access pattern of that
//!   word: which positions (hence which documents) match, and therefore the
//!   word's *result count*. This is the leakage the count attack
//!   (Cash et al., CCS'15) converts into plaintext recovery, and §6 of the
//!   paper shows trapdoors are recoverable from any realistic snapshot.

use crate::hmac::{ct_eq, hmac_parts, HmacKey};
use crate::kdf;
use crate::Key;

/// Byte length of the word encoding `X` (split into two 16-byte halves).
pub const WORD_ENC_LEN: usize = 32;

/// Byte length of one encrypted word position.
pub const CIPHERTEXT_LEN: usize = WORD_ENC_LEN;

/// One encrypted word occurrence in a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordCiphertext(pub [u8; CIPHERTEXT_LEN]);

/// A search trapdoor: everything the server needs to test positions for one
/// specific word. **Possession of this value breaks semantic security** —
/// that is the paper's point, because the DBMS writes it to logs, caches,
/// and the heap.
#[derive(Clone, PartialEq, Eq)]
pub struct Trapdoor {
    /// Deterministic encoding of the word.
    pub word_enc: [u8; WORD_ENC_LEN],
    /// Match key derived from the left half of `word_enc`.
    pub match_key: [u8; 32],
}

impl core::fmt::Debug for Trapdoor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Printing a trapdoor into a debug log would be exactly the bug the
        // paper describes; show only a short fingerprint.
        write!(
            f,
            "Trapdoor({:02x}{:02x}{:02x}..)",
            self.word_enc[0], self.word_enc[1], self.word_enc[2]
        )
    }
}

impl Trapdoor {
    /// Serializes the trapdoor to bytes (as it would appear in a query
    /// string sent to the DBMS, e.g. hex inside a `WHERE` clause).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(WORD_ENC_LEN + 32);
        v.extend_from_slice(&self.word_enc);
        v.extend_from_slice(&self.match_key);
        v
    }

    /// Parses a trapdoor from bytes (what the snapshot attacker does after
    /// carving one out of a log file or heap dump).
    pub fn from_bytes(bytes: &[u8]) -> Option<Trapdoor> {
        if bytes.len() != WORD_ENC_LEN + 32 {
            return None;
        }
        let mut word_enc = [0u8; WORD_ENC_LEN];
        word_enc.copy_from_slice(&bytes[..WORD_ENC_LEN]);
        let mut match_key = [0u8; 32];
        match_key.copy_from_slice(&bytes[WORD_ENC_LEN..]);
        Some(Trapdoor {
            word_enc,
            match_key,
        })
    }
}

/// Client-side state for an SWP-searchable column.
#[derive(Clone)]
pub struct SwpClient {
    k_word: HmacKey,
    k_derive: HmacKey,
    k_stream: HmacKey,
}

impl SwpClient {
    /// Creates a client from a master key.
    pub fn new(master: &Key) -> Self {
        let key = |label: &[u8]| HmacKey::new(&kdf::derive_key(&master.0, label));
        SwpClient {
            k_word: key(b"swp-word"),
            k_derive: key(b"swp-derive"),
            k_stream: key(b"swp-stream"),
        }
    }

    fn word_encoding(&self, word: &str) -> [u8; WORD_ENC_LEN] {
        self.k_word.mac(&[word.as_bytes()])
    }

    fn match_key_for(&self, word_enc: &[u8; WORD_ENC_LEN]) -> [u8; 32] {
        self.k_derive.mac(&[&word_enc[..16]])
    }

    /// Encrypts the word at `(doc_id, position)`.
    pub fn encrypt_word(&self, doc_id: u64, position: u32, word: &str) -> WordCiphertext {
        let x = self.word_encoding(word);
        let k_x = self.match_key_for(&x);
        // Per-position pseudorandomness S (16 bytes).
        let s_full = self
            .k_stream
            .mac(&[&doc_id.to_le_bytes(), &position.to_le_bytes()]);
        let s = &s_full[..16];
        let t_full = hmac_parts(&k_x, &[s]);
        let t = &t_full[..16];

        let mut c = [0u8; CIPHERTEXT_LEN];
        c[..16].copy_from_slice(s);
        c[16..].copy_from_slice(t);
        for (i, b) in c.iter_mut().enumerate() {
            *b ^= x[i];
        }
        WordCiphertext(c)
    }

    /// Produces the search trapdoor for `word`.
    pub fn trapdoor(&self, word: &str) -> Trapdoor {
        let word_enc = self.word_encoding(word);
        let match_key = self.match_key_for(&word_enc);
        Trapdoor {
            word_enc,
            match_key,
        }
    }
}

/// Server-side matching: returns whether `ciphertext` holds the trapdoor's
/// word. Requires no keys beyond the trapdoor itself.
pub fn server_match(trapdoor: &Trapdoor, ciphertext: &WordCiphertext) -> bool {
    let mut unmasked = ciphertext.0;
    for (i, b) in unmasked.iter_mut().enumerate() {
        *b ^= trapdoor.word_enc[i];
    }
    let (s, t) = unmasked.split_at(16);
    let expect = hmac_parts(&trapdoor.match_key, &[s]);
    ct_eq(&expect[..16], t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> SwpClient {
        SwpClient::new(&Key([0x77; 32]))
    }

    #[test]
    fn completeness() {
        let c = client();
        let td = c.trapdoor("energy");
        for doc in 0..20u64 {
            let ct = c.encrypt_word(doc, 3, "energy");
            assert!(server_match(&td, &ct), "doc {doc}");
        }
    }

    #[test]
    fn soundness() {
        let c = client();
        let td = c.trapdoor("energy");
        for (i, w) in ["enron", "power", "meeting", "Energy", "energ", "energyy"]
            .iter()
            .enumerate()
        {
            let ct = c.encrypt_word(i as u64, 0, w);
            assert!(!server_match(&td, &ct), "false match on {w}");
        }
    }

    #[test]
    fn ciphertexts_hide_equality() {
        // Same word at different positions yields different ciphertexts:
        // without a trapdoor, the server cannot even see repeats.
        let c = client();
        let a = c.encrypt_word(1, 0, "secret");
        let b = c.encrypt_word(1, 1, "secret");
        let d = c.encrypt_word(2, 0, "secret");
        assert_ne!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn trapdoor_round_trips_through_bytes() {
        let c = client();
        let td = c.trapdoor("pipeline");
        let parsed = Trapdoor::from_bytes(&td.to_bytes()).unwrap();
        assert_eq!(parsed, td);
        let ct = c.encrypt_word(9, 9, "pipeline");
        assert!(server_match(&parsed, &ct));
        assert!(Trapdoor::from_bytes(&[0u8; 5]).is_none());
    }

    #[test]
    fn carved_trapdoor_reveals_access_pattern() {
        // The §6 scenario in miniature: an attacker who finds a trapdoor in
        // a snapshot can compute the word's result count.
        let c = client();
        let docs: Vec<Vec<&str>> = vec![
            vec!["price", "gas"],
            vec!["price", "energy"],
            vec!["meeting"],
            vec!["price"],
        ];
        let mut index = Vec::new();
        for (doc_id, words) in docs.iter().enumerate() {
            for (pos, w) in words.iter().enumerate() {
                index.push((doc_id as u64, c.encrypt_word(doc_id as u64, pos as u32, w)));
            }
        }
        let td = c.trapdoor("price");
        let matching_docs: std::collections::BTreeSet<u64> = index
            .iter()
            .filter(|(_, ct)| server_match(&td, ct))
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(matching_docs.into_iter().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn held_keys_encrypt_as_the_per_call_reference() {
        let mac = crate::hmac::reference::hmac_parts;
        let master = [0x77; 32];
        let key = |label: &[u8]| mac(&master, &[b"edb-kdf-v1", label]);
        let c = client();
        for (doc, pos, word) in [(0u64, 0u32, "energy"), (7, 3, ""), (u64::MAX, 9, "né")] {
            let x = mac(&key(b"swp-word"), &[word.as_bytes()]);
            let k_x = mac(&key(b"swp-derive"), &[&x[..16]]);
            let s = mac(
                &key(b"swp-stream"),
                &[&doc.to_le_bytes(), &pos.to_le_bytes()],
            );
            let t = mac(&k_x, &[&s[..16]]);
            let mut want = [0u8; CIPHERTEXT_LEN];
            for (i, b) in want.iter_mut().enumerate() {
                *b = [&s[..16], &t[..16]].concat()[i] ^ x[i];
            }
            assert_eq!(
                c.encrypt_word(doc, pos, word),
                WordCiphertext(want),
                "{word}"
            );
            let td = c.trapdoor(word);
            assert_eq!((td.word_enc, td.match_key), (x, k_x), "{word}");
        }
    }

    #[test]
    fn debug_formats_are_redacted() {
        let td = client().trapdoor("w");
        let s = format!("{td:?}");
        assert!(s.len() < 32, "debug output should be a fingerprint: {s}");
    }
}
