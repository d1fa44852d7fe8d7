//! Storage engine: slotted pages, the buffer pool, table heaps, and
//! B+ tree indexes.

pub mod btree;
pub mod page;
pub mod shardpool;
pub mod table;

pub use btree::{BTree, SearchResult, TreeStats};
pub use page::{ColumnStats, Page, PageSynopsis, SlotNo, PAGE_SIZE, SYN_MAX_COLS};
pub use shardpool::{
    PageBacking, PageKey, ShardedBufferPool, ACCESS_COUNTS_CAP, DEFAULT_SHARDS, DUMP_FILE,
};
pub use table::{ScanSink, TableHeap, UpdatePlacement};
