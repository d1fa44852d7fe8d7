//! Snapshot extraction: byte- and structure-exact images of the DBMS's
//! persistent and volatile state, i.e. what the paper's four attack
//! vectors obtain (Figure 1).
//!
//! The `snapshot-attack` crate applies a threat model *on top* of these
//! images — disk theft sees only [`DiskImage`], a VM-image leak sees both,
//! and so on. This module just extracts everything faithfully.

use std::collections::BTreeMap;

use crate::engine::Db;
use crate::observability::{DigestStats, ProcessEntry, StatementEvent};
use crate::storage::PageKey;

/// One page's zone-map synopsis as captured in a memory image: the
/// per-page plaintext value ranges the scan pruner keeps hot. Row
/// payloads may be ciphertext; these min/max bounds never are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneMapPage {
    /// Tablespace file the page belongs to.
    pub file: String,
    /// Page number within the file.
    pub page_no: u32,
    /// Live rows the synopsis reflects.
    pub rows: u64,
    /// Per-column `(ordinal, min, max)` bounds.
    pub columns: Vec<(u16, i64, i64)>,
}

/// One row's archived version chain as captured in a memory image: the
/// supersession history the MVCC layer keeps so old snapshots can still
/// read. Every entry is a full before-image with its `(xmin, xmax)`
/// lifetime — for a frequently-updated secret, the whole edit history.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionChain {
    /// Table the row belongs to.
    pub table: String,
    /// The row id whose history this is.
    pub row_id: u64,
    /// Archived versions, oldest first.
    pub versions: Vec<crate::mvcc::Version>,
}

/// Everything on "disk": tablespace files, catalog, checkpoint, log files,
/// the binlog, the buffer-pool dump, and the text logs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskImage {
    /// File name → raw contents.
    pub files: BTreeMap<String, Vec<u8>>,
}

impl DiskImage {
    /// Raw contents of one file.
    pub fn file(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|v| v.as_slice())
    }

    /// File names, sorted.
    pub fn file_names(&self) -> Vec<&str> {
        self.files.keys().map(|s| s.as_str()).collect()
    }

    /// Total image size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(|v| v.len()).sum()
    }
}

/// Everything in process memory: the heap arena plus the volatile data
/// structures (query cache, buffer pool metadata, adaptive hash index,
/// performance-schema state, process list).
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryImage {
    /// Byte-exact dump of the process heap arena (§5's target).
    pub heap: Vec<u8>,
    /// Query texts currently held by the query cache.
    pub cached_queries: Vec<String>,
    /// Buffer-pool contents in LRU order (most recent first).
    pub cached_pages: Vec<PageKey>,
    /// Per-page lifetime access counters.
    pub page_access_counts: Vec<(PageKey, u64)>,
    /// Adaptive-hash-index entries: encoded hot search keys → page.
    pub adaptive_hash_keys: Vec<(Vec<u8>, PageKey)>,
    /// In-flight statements per thread.
    pub statements_current: Vec<StatementEvent>,
    /// The bounded per-thread statement history.
    pub statements_history: Vec<StatementEvent>,
    /// Per-digest aggregate counters since restart.
    pub digest_summary: Vec<DigestStats>,
    /// The connection process list.
    pub processlist: Vec<ProcessEntry>,
    /// The telemetry registry's full state — the counters and histograms
    /// this repo adds to the paper's inventory of snapshot-visible
    /// auxiliary state (per-table access counts, latency distributions).
    pub metrics: mdb_telemetry::MetricsSnapshot,
    /// The flight-recorder ring: the last N statement traces, with full
    /// statement text, timestamps, touched tables, and span trees. A
    /// memory snapshot taken after a diagnostics wipe still carries this
    /// per-statement timeline (experiment e15).
    pub query_traces: Vec<mdb_trace::StatementTrace>,
    /// The heaps' in-memory zone-map mirrors: per-page min/max value
    /// ranges for every page a scan or DML has touched. Even when every
    /// row payload is EDB-encrypted, these synopses bracket the
    /// plaintext of range-queryable columns page by page (experiment
    /// e16).
    pub zone_maps: Vec<ZoneMapPage>,
    /// The MVCC version store's chains: per-row supersession history
    /// with full before-images and `(xmin, xmax)` ordering. What vacuum
    /// has not yet reclaimed, a memory snapshot replays as an edit
    /// timeline (experiment e18).
    pub version_chains: Vec<VersionChain>,
}

impl MemoryImage {
    /// Counts occurrences of a byte pattern in the heap dump.
    pub fn heap_occurrences(&self, needle: &[u8]) -> usize {
        if needle.is_empty() || needle.len() > self.heap.len() {
            return 0;
        }
        let mut count = 0;
        let mut i = 0;
        while i + needle.len() <= self.heap.len() {
            if &self.heap[i..i + needle.len()] == needle {
                count += 1;
                i += needle.len();
            } else {
                i += 1;
            }
        }
        count
    }
}

/// A full point-in-time image of the machine hosting the DBMS.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemImage {
    /// Persistent state.
    pub disk: DiskImage,
    /// Volatile state.
    pub memory: MemoryImage,
    /// Simulated UNIX time at capture.
    pub captured_at: i64,
}

impl Db {
    /// Captures the persistent state (what disk theft yields).
    pub fn disk_image(&self) -> DiskImage {
        DiskImage {
            files: self.inner.lock().data.vdisk.files.clone(),
        }
    }

    /// Captures the volatile state (what a full-memory snapshot yields).
    pub fn memory_image(&self) -> MemoryImage {
        let g = self.inner.lock();
        MemoryImage {
            heap: g.diag.heap.dump(),
            cached_queries: g.diag.query_cache.cached_queries(),
            cached_pages: g.data.bufpool.lru_order(),
            page_access_counts: g.data.bufpool.access_counters_snapshot(),
            adaptive_hash_keys: g
                .diag
                .adaptive_hash
                .indexed_keys()
                .into_iter()
                .map(|(k, p)| (k.to_vec(), p.clone()))
                .collect(),
            statements_current: g
                .diag
                .perf
                .events_statements_current()
                .into_iter()
                .cloned()
                .collect(),
            statements_history: g
                .diag
                .perf
                .events_statements_history()
                .into_iter()
                .cloned()
                .collect(),
            digest_summary: g
                .diag
                .perf
                .events_statements_summary_by_digest()
                .into_iter()
                .cloned()
                .collect(),
            processlist: g.diag.processlist.entries().into_iter().cloned().collect(),
            metrics: g.host.telemetry.snapshot(),
            query_traces: g.diag.trace.traces(),
            zone_maps: g.data.zone_map_pages(),
            version_chains: {
                let mut chains: Vec<VersionChain> = g
                    .log
                    .mvcc
                    .chains()
                    .iter()
                    .map(|((table, row_id), versions)| VersionChain {
                        table: table.clone(),
                        row_id: *row_id,
                        versions: versions.clone(),
                    })
                    .collect();
                chains.sort_by(|a, b| (&a.table, a.row_id).cmp(&(&b.table, b.row_id)));
                chains
            },
        }
    }

    /// Captures the whole system (what a VM-image leak or full compromise
    /// yields).
    pub fn system_image(&self) -> SystemImage {
        let captured_at = self.now();
        SystemImage {
            disk: self.disk_image(),
            memory: self.memory_image(),
            captured_at,
        }
    }
}
