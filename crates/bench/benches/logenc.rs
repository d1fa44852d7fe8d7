//! Log-record sealing benchmarks: a node's `WalCrypto`, which derives
//! each origin's keys once, beside the free `logenc` functions, which
//! derive them on every call, at a 64-byte record (a redo or undo
//! image: the per-record fixed cost dominates) and a 6.5 KB one (the
//! ChaCha20 and SHA-256 kernels dominate). `open/foreign` opens a
//! record another node sealed, under the foreign origin's keys the
//! opener holds: a replica applying its primary's binlog. The
//! `kernel` cases time the two primitives under a seal over 64 blocks
//! (4 KiB) each.

use std::hint::black_box;

use bench::timeit;
use edb_crypto::logenc::{self, STREAM_BINLOG, STREAM_REDO};
use edb_crypto::{chacha20, sha256, Key};
use minidb::wal::WalCrypto;

const KEY: [u8; 32] = [0x5A; 32];

fn main() {
    let node = WalCrypto::new(KEY, 1);
    let replica = WalCrypto::new(KEY, 2);
    let key = Key(KEY);
    for len in [64usize, 6_500] {
        let record: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        let mut seq = 0u64;
        timeit(&format!("logenc/seal/wal_crypto/{len}"), || {
            seq += 1;
            node.seal(STREAM_REDO, seq, black_box(&record))
        });
        timeit(&format!("logenc/seal/per_call/{len}"), || {
            seq += 1;
            logenc::seal(&key, 1, STREAM_REDO, seq, black_box(&record))
        });
        let sealed = node.seal(STREAM_BINLOG, 7, &record);
        timeit(&format!("logenc/open/wal_crypto/{len}"), || {
            node.open(black_box(&sealed)).expect("own seal opens")
        });
        timeit(&format!("logenc/open/foreign/{len}"), || {
            replica
                .open(black_box(&sealed))
                .expect("a peer's seal opens")
        });
        timeit(&format!("logenc/open/per_call/{len}"), || {
            logenc::open(&key, black_box(&sealed)).expect("own seal opens")
        });
    }
    let mut block = vec![0u8; 4_096];
    timeit("logenc/kernel/sha256/64_blocks", || {
        sha256::digest(black_box(&block))
    });
    timeit("logenc/kernel/chacha20/64_blocks", || {
        chacha20::xor_stream(&KEY, &[7; chacha20::NONCE_LEN], 1, black_box(&mut block))
    });
}
