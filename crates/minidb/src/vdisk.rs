//! A virtual disk: named byte files held in memory.
//!
//! MiniDB simulates its persistent storage so that (a) the whole system is
//! deterministic and laptop-fast, and (b) a "disk theft" snapshot is a
//! byte-exact copy of what a real attacker would image. Everything the
//! engine considers durable — tablespaces, the catalog, WAL files, the
//! binlog, the buffer-pool dump — lives here; everything volatile lives in
//! ordinary process structures and is *lost* on [`crate::engine::Db::crash`].
//! The WAL files are [`REDO_FILE`](crate::wal::REDO_FILE) and
//! [`UNDO_FILE`](crate::wal::UNDO_FILE), the circular logs, and
//! [`BINLOG_FILE`](crate::wal::BINLOG_FILE), the binlog.

use std::collections::BTreeMap;

/// Address space a file's buffer takes the first time it has to grow,
/// instead of doubling its way up: a `Vec` below the allocator's mmap
/// threshold grows by allocate-copy-free *inside* the heap, and a log or
/// tablespace doing that for a whole run leaves its old copies behind as
/// holes — measured at a third of a replicated run's peak RSS, and
/// dependent on which buffer happened to be freed first (glibc raises
/// the threshold to the size of any freed mapping up to 32 MiB). One
/// reservation above that ceiling is always a mapping of its own: it
/// never relocates, untouched capacity is not resident, and freeing it
/// teaches the allocator nothing. Past it a buffer doubles as any `Vec`
/// does, which for a mapping is a remap, not a copy.
const RESERVE: usize = 64 << 20;

/// Makes room for `f` to reach `new_len` bytes (see [`RESERVE`]).
fn make_room(f: &mut Vec<u8>, new_len: usize) {
    if new_len > f.capacity() && new_len <= RESERVE {
        f.reserve_exact(RESERVE - f.len());
    }
}

/// The in-memory "disk": a map from file name to contents.
#[derive(Clone, Debug, Default)]
pub struct VDisk {
    pub(crate) files: BTreeMap<String, Vec<u8>>,
}

impl VDisk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the contents of `name`, if present.
    pub fn read(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|v| v.as_slice())
    }

    /// Replaces the contents of `name`.
    pub fn write(&mut self, name: &str, data: Vec<u8>) {
        self.files.insert(name.to_string(), data);
    }

    /// Appends to `name`, creating it if needed.
    pub fn append(&mut self, name: &str, data: &[u8]) {
        self.write_at(name, self.len(name), data);
    }

    /// Writes `data` at byte `offset` of `name`, zero-extending as needed.
    /// The name is copied only when the write creates the file.
    pub fn write_at(&mut self, name: &str, offset: usize, data: &[u8]) {
        let f = match self.files.get_mut(name) {
            Some(f) => f,
            None => self.files.entry(name.to_string()).or_default(),
        };
        let end = offset + data.len();
        if f.len() < end {
            make_room(f, end);
            f.resize(end, 0);
        }
        f[offset..end].copy_from_slice(data);
    }

    /// Length of `name` in bytes (0 if absent).
    pub fn len(&self, name: &str) -> usize {
        self.files.get(name).map(|v| v.len()).unwrap_or(0)
    }

    /// Whether the disk holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Removes a file.
    pub fn remove(&mut self, name: &str) -> bool {
        self.files.remove(name).is_some()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_append() {
        let mut d = VDisk::new();
        assert!(d.read("a").is_none());
        d.write("a", vec![1, 2]);
        d.append("a", &[3]);
        assert_eq!(d.read("a").unwrap(), &[1, 2, 3]);
        assert_eq!(d.len("a"), 3);
        assert_eq!(d.files.keys().collect::<Vec<_>>(), ["a"]);
    }

    #[test]
    fn write_at_extends() {
        let mut d = VDisk::new();
        d.write_at("f", 4, &[9, 9]);
        assert_eq!(d.read("f").unwrap(), &[0, 0, 0, 0, 9, 9]);
        d.write_at("f", 0, &[1]);
        assert_eq!(d.read("f").unwrap(), &[1, 0, 0, 0, 9, 9]);
    }

    #[test]
    fn a_growing_file_does_not_relocate_and_copies_stay_exact() {
        let mut d = VDisk::new();
        d.append("log", &[1; 100]);
        let at = d.read("log").unwrap().as_ptr();
        for _ in 0..1_000 {
            d.append("log", &[2; 4096]);
        }
        d.write_at("log", 8 << 20, &[3]);
        assert_eq!(d.read("log").unwrap().as_ptr(), at);
        assert_eq!(d.len("log"), (8 << 20) + 1);
        // A snapshot is the bytes, not the reservation.
        let snap = d.clone();
        assert!(snap.files["log"].capacity() < RESERVE);
        assert_eq!(snap.read("log"), d.read("log"));
        // Past the reservation a file still grows.
        d.write_at("log", RESERVE + 10, &[4]);
        assert_eq!(d.len("log"), RESERVE + 11);
        assert_eq!(d.read("log").unwrap()[8 << 20], 3);
    }

    #[test]
    fn clone_is_snapshot() {
        let mut d = VDisk::new();
        d.write("x", vec![1]);
        let snap = d.clone();
        d.write("x", vec![2]);
        assert_eq!(snap.read("x").unwrap(), &[1]);
        assert_eq!(d.read("x").unwrap(), &[2]);
    }

    #[test]
    fn remove_and_totals() {
        let mut d = VDisk::new();
        d.write("x", vec![0; 10]);
        d.write("y", vec![0; 5]);
        assert_eq!(d.total_bytes(), 15);
        assert!(d.remove("x"));
        assert!(!d.remove("x"));
        assert_eq!(d.total_bytes(), 5);
    }
}
