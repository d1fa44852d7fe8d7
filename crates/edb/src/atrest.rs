//! Transparent at-rest encryption (InnoDB tablespace encryption, TDE).
//!
//! A key held **in process memory but never written to disk** encrypts
//! every file of the tablespace. §6 "At-rest encryption": an attacker who
//! compromises only the disk learns nothing except side channels such as
//! relative file sizes — but *any higher level of access reveals the
//! entire data*, because the key sits in memory. The key is registered in
//! the DB process heap under a keyring tag (as real keyring plugins do),
//! so a memory snapshot contains it verbatim.

use edb_crypto::{kdf, rnd, Key};
use minidb::engine::Db;
use minidb::snapshot::DiskImage;

use crate::error::EdbResult;

/// Tag preceding key material in the process heap (keyring plugins keep
/// their key store in exactly this kind of tagged in-memory structure).
pub const KEYRING_TAG: &[u8] = b"KEYRING\x00v1\x00";

/// The at-rest encryption layer.
pub struct AtRest {
    key: Key,
}

impl AtRest {
    /// Derives the tablespace key from `master` and registers it in the
    /// DB process heap (where a memory snapshot will find it).
    pub fn install(db: &Db, master: &Key) -> AtRest {
        let key = Key(kdf::derive_key(&master.0, b"at-rest-tablespace"));
        let mut tagged = KEYRING_TAG.to_vec();
        tagged.extend_from_slice(&key.0);
        db.process_alloc(&tagged);
        AtRest { key }
    }

    /// Creates the layer from an explicit key without registering it
    /// anywhere (for attacker-side decryption after key recovery).
    pub fn from_key(key: Key) -> AtRest {
        AtRest { key }
    }

    /// Encrypts every file of a disk image, as the storage layer would
    /// before bytes reach the platters. File names and (up to constant
    /// overhead) sizes are preserved — the side channel the paper notes.
    pub fn encrypt_disk(&self, image: &DiskImage, rng: &mut impl rand::Rng) -> DiskImage {
        let files = image
            .files
            .iter()
            .map(|(name, data)| {
                let file_key = self.file_key(name);
                (name.clone(), rnd::encrypt(&file_key, data, rng))
            })
            .collect();
        DiskImage { files }
    }

    /// Decrypts an at-rest-encrypted disk image (what the attacker does
    /// the moment the key leaks from memory).
    pub fn decrypt_disk(&self, image: &DiskImage) -> EdbResult<DiskImage> {
        let mut files = std::collections::BTreeMap::new();
        for (name, data) in &image.files {
            let file_key = self.file_key(name);
            files.insert(name.clone(), rnd::decrypt(&file_key, data)?);
        }
        Ok(DiskImage { files })
    }

    fn file_key(&self, file_name: &str) -> Key {
        Key(kdf::derive_key(&self.key.0, file_name.as_bytes()))
    }

    /// The raw key bytes (test/oracle accessor).
    pub fn key_bytes(&self) -> &[u8; 32] {
        &self.key.0
    }
}

/// Scans a memory image's heap for a keyring-tagged key — the trivial
/// "attack" that defeats at-rest encryption for every vector stronger
/// than disk theft.
pub fn carve_keyring_key(heap: &[u8]) -> Option<Key> {
    let pos = heap
        .windows(KEYRING_TAG.len())
        .position(|w| w == KEYRING_TAG)?;
    let start = pos + KEYRING_TAG.len();
    let bytes: [u8; 32] = heap.get(start..start + 32)?.try_into().ok()?;
    Some(Key(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::DbConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small circular logs keep whole-disk encryption fast in debug tests.
    fn small_db() -> Db {
        let config = DbConfig {
            redo_capacity: 1 << 16,
            undo_capacity: 1 << 16,
            ..DbConfig::default()
        };
        Db::open(config)
    }

    #[test]
    fn disk_theft_sees_only_sizes() {
        let db = small_db();
        let conn = db.connect("app");
        conn.execute("CREATE TABLE s (id INT PRIMARY KEY, secret TEXT)")
            .unwrap();
        conn.execute("INSERT INTO s VALUES (1, 'the-plaintext-secret')")
            .unwrap();
        db.shutdown();

        let at_rest = AtRest::install(&db, &Key([9u8; 32]));
        let mut rng = StdRng::seed_from_u64(1);
        let plain = db.disk_image();
        let encrypted = at_rest.encrypt_disk(&plain, &mut rng);

        // Same file names, sizes within constant overhead.
        assert_eq!(plain.file_names(), encrypted.file_names());
        for name in plain.file_names() {
            let p = plain.file(name).unwrap().len();
            let e = encrypted.file(name).unwrap().len();
            assert_eq!(e, p + rnd::OVERHEAD);
        }
        // No file contains the plaintext.
        for name in encrypted.file_names() {
            let data = encrypted.file(name).unwrap();
            assert!(
                !data
                    .windows(b"the-plaintext-secret".len())
                    .any(|w| w == b"the-plaintext-secret"),
                "plaintext leaked into encrypted file {name}"
            );
        }
        // Round trip.
        let back = at_rest.decrypt_disk(&encrypted).unwrap();
        assert_eq!(back.file("catalog"), plain.file("catalog"));
    }

    #[test]
    fn memory_snapshot_contains_the_key() {
        let db = small_db();
        let at_rest = AtRest::install(&db, &Key([7u8; 32]));
        let mem = db.memory_image();
        let carved = carve_keyring_key(&mem.heap).expect("key must be in the heap");
        assert_eq!(&carved.0, at_rest.key_bytes());
        // And the carved key actually decrypts the disk.
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        db.shutdown();
        let mut rng = StdRng::seed_from_u64(2);
        let encrypted = at_rest.encrypt_disk(&db.disk_image(), &mut rng);
        let attacker = AtRest::from_key(carved);
        assert!(attacker.decrypt_disk(&encrypted).is_ok());
    }

    #[test]
    fn wrong_key_fails_decryption() {
        let db = small_db();
        db.connect("app")
            .execute("CREATE TABLE t (id INT PRIMARY KEY)")
            .unwrap();
        db.shutdown();
        let at_rest = AtRest::from_key(Key([1u8; 32]));
        let mut rng = StdRng::seed_from_u64(3);
        let encrypted = at_rest.encrypt_disk(&db.disk_image(), &mut rng);
        let wrong = AtRest::from_key(Key([2u8; 32]));
        assert!(wrong.decrypt_disk(&encrypted).is_err());
    }

    #[test]
    fn carve_requires_tag() {
        assert!(carve_keyring_key(b"no tag here").is_none());
        let mut heap = vec![0u8; 100];
        heap.extend_from_slice(KEYRING_TAG);
        heap.extend_from_slice(&[5u8; 32]);
        assert_eq!(carve_keyring_key(&heap).unwrap().0, [5u8; 32]);
    }
}
