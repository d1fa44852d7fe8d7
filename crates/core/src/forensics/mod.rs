//! Forensic parsers: from raw snapshot artifacts to query history.
//!
//! Everything here operates on *attacker-visible* bytes and structures —
//! circular-log buffers, the binlog file, the buffer-pool dump, heap
//! pages, index pages, the version store, heap dumps — with no live
//! engine, only public knowledge of the storage engine's formats (the
//! moral equivalent of `mysqlbinlog` and the InnoDB forensics of
//! Frühwirt et al.).
//!
//! The formats stay public knowledge, read with minidb's own readers
//! (as `mysqlbinlog` is built from the server's log code), never
//! restated here: `wal::carve_frames` and `mdb_trace::record::carve`
//! for logs, `storage::Page::synopsis` for heap-page zone maps,
//! `storage::btree::node_keys` for index pages and
//! `mvcc::VersionRecord::parse` for version records. What lies is
//! skipped, never a panic.
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

pub mod binlog;
pub mod bufpool;
pub mod divergent;
pub mod lsn_time;
pub mod memscan;
pub mod relay;
pub mod telemetry;
pub mod tracelog;
pub mod versions;
pub mod wal;
pub mod xtrace;
pub mod zonemap;
