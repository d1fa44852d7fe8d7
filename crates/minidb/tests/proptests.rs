//! Property-based tests for the storage substrate: model equivalence for
//! the B+ tree, encoding round-trips, sealed-frame authentication, and
//! digest invariance. Frame-level carving properties live in
//! `framing.rs`.

use std::collections::BTreeMap;
use std::ops::Bound;

use minidb::engine::{Db, DbConfig};
use minidb::row::Row;
use minidb::sql::digest_text;
use minidb::storage::btree::BTree;
use minidb::storage::shardpool::ShardedBufferPool;
use minidb::value::Value;
use minidb::vdisk::VDisk;
use minidb::wal::{carve_frames, BinlogEvent, RedoRecord, UndoRecord};
use proptest::prelude::*;

/// One randomly generated statement for the zone-map equivalence test:
/// `(kind, col_a, col_b, v1, v2, flags)` rendered against a schema with
/// `n_ints` INT columns (`c0` is the primary key) and optionally a
/// trailing TEXT column.
fn render_stmt(
    n_ints: usize,
    has_text: bool,
    (kind, col_a, col_b, v1, v2, flags): (u8, usize, usize, i64, i64, u8),
) -> String {
    let cmp = ["=", ">=", "<=", ">", "<"][(flags % 5) as usize];
    let ca = col_a % n_ints;
    let cb = col_b % n_ints;
    match kind % 4 {
        0 => {
            // Multi-column INSERT; duplicate-key errors are part of the
            // behavior under test (both engines must agree on them).
            let mut vals = vec![v1.to_string()];
            for i in 1..n_ints {
                // NULLs exercise the synopsis's untracked-value path.
                if v2 % 7 == 0 && i == 1 {
                    vals.push("NULL".into());
                } else {
                    vals.push((v2 + i as i64 * 13).to_string());
                }
            }
            if has_text {
                vals.push(format!("'r{v1}'"));
            }
            format!("INSERT INTO t VALUES ({})", vals.join(", "))
        }
        1 => format!("UPDATE t SET c{cb} = {v2} WHERE c{ca} {cmp} {v1}"),
        2 => format!("DELETE FROM t WHERE c{ca} {cmp} {v1}"),
        _ => {
            let width = (v2.rem_euclid(40)) + 1;
            let what = if flags & 0x20 != 0 { "COUNT(*)" } else { "*" };
            let tail = match (flags & 0x40 != 0, flags & 0x80 != 0) {
                // LIMIT without ORDER BY: the pushdown must still return
                // the same prefix (scan order is deterministic).
                (true, false) => format!(" LIMIT {}", (flags % 5) + 1),
                (true, true) => format!(" ORDER BY c{cb} LIMIT {}", (flags % 5) + 1),
                (false, true) => format!(" ORDER BY c{cb}"),
                (false, false) => String::new(),
            };
            format!(
                "SELECT {what} FROM t WHERE c{ca} >= {v1} AND c{ca} < {}{tail}",
                v1 + width
            )
        }
    }
}

/// A fresh engine for the equivalence test. With the query cache off,
/// every SELECT really runs the executor.
fn equivalence_db(zone_maps: bool, query_cache: bool) -> Db {
    Db::open(DbConfig {
        redo_capacity: 1 << 18,
        undo_capacity: 1 << 18,
        query_cache_enabled: query_cache,
        zone_maps_enabled: zone_maps,
        ..DbConfig::default()
    })
}

/// Query cache hits of `db` so far.
fn cache_hits(db: &Db) -> Option<u64> {
    db.metrics_snapshot().counter("sql.query_cache_hits")
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 'ـ❤]{0,40}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::Bytes),
    ]
}

/// Values from a domain small enough that pairs are often equal, or
/// one a prefix of the other.
fn near_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-2i64..3).prop_map(Value::Int),
        "[ab]{0,3}".prop_map(Value::Text),
        proptest::collection::vec(0u8..2, 0..3).prop_map(Value::Bytes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The B+ tree compares a probe with keys where they lie on the
    /// page: that must order exactly as `Ord for Value`, across types
    /// too.
    #[test]
    fn cmp_encoded_orders_as_ord(
        a in arb_value(),
        b in arb_value(),
        c in near_value(),
        d in near_value(),
    ) {
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&c, &d), (&a, &d), (&c, &b)] {
            // Bytes either side: the value is read at an offset.
            let mut buf = vec![7];
            y.encode(&mut buf);
            buf.push(9);
            let mut pos = 1;
            prop_assert_eq!(x.cmp_encoded(&buf, &mut pos).unwrap(), x.cmp(y));
            prop_assert_eq!(pos, buf.len() - 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn value_encoding_round_trips(v in arb_value()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        prop_assert_eq!(Value::decode(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn row_encoding_round_trips(
        id in any::<u64>(),
        values in proptest::collection::vec(arb_value(), 0..8),
    ) {
        let row = Row { id, values };
        prop_assert_eq!(Row::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn wal_records_round_trip(
        lsn in any::<u64>(),
        txn in any::<u64>(),
        table_id in any::<u32>(),
        page_no in any::<u32>(),
        slot in any::<u16>(),
        body in proptest::collection::vec(any::<u8>(), 0..100),
        ts in any::<i64>(),
        stmt in "[ -~]{0,80}",
    ) {
        let r = RedoRecord {
            lsn, txn, op: minidb::wal::OpKind::Insert, table_id, page_no, slot,
            after: body.clone(),
        };
        prop_assert_eq!(RedoRecord::decode(&r.encode()).unwrap(), r);
        let u = UndoRecord {
            lsn, txn, op: minidb::wal::OpKind::Delete, table_id, row_id: page_no as u64,
            before: body,
        };
        prop_assert_eq!(UndoRecord::decode(&u.encode()).unwrap(), u);
        let b = BinlogEvent { lsn, txn, timestamp: ts, statement: stmt, ctx: None };
        prop_assert_eq!(BinlogEvent::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn binlog_event_round_trips_unicode_statements(
        lsn in any::<u64>(),
        txn in any::<u64>(),
        ts in any::<i64>(),
        stmt in "\\PC{0,60}",
        trace_id in any::<u128>(),
        span_id in any::<u64>(),
        sampled in any::<bool>(),
        with_ctx in any::<bool>(),
    ) {
        // Statement text is arbitrary UTF-8 (multi-byte identifiers,
        // emoji in string literals) — the wire encoding must not assume
        // ASCII, because the replica replays this text verbatim. The
        // optional distributed trace context tail must ride along (or
        // stay absent) without disturbing the statement bytes.
        let ctx = with_ctx.then_some(mdb_trace::TraceContext { trace_id, span_id, sampled });
        let b = BinlogEvent { lsn, txn, timestamp: ts, statement: stmt, ctx };
        let encoded = b.encode();
        prop_assert_eq!(BinlogEvent::decode(&encoded).unwrap(), b);
    }

    #[test]
    fn digest_invariant_under_literal_substitution(
        a in 0i64..100000,
        b in 0i64..100000,
        s1 in "[a-z]{1,12}",
        s2 in "[a-z]{1,12}",
    ) {
        let q1 = format!("SELECT * FROM t WHERE x = {a} AND y = '{s1}'");
        let q2 = format!("SELECT * FROM t WHERE x = {b} AND y = '{s2}'");
        prop_assert_eq!(digest_text(&q1), digest_text(&q2));
        // But structure changes the digest.
        let q3 = format!("SELECT * FROM t WHERE x = {a}");
        prop_assert_ne!(digest_text(&q1), digest_text(&q3));
    }

    #[test]
    fn btree_matches_btreemap_model(
        ops in proptest::collection::vec((0u8..3, 0i64..200, any::<u64>()), 1..120),
        probe in 0i64..200,
        range in (0i64..200, 0i64..60),
    ) {
        let bp = ShardedBufferPool::new(64, 4);
        let mut vd = VDisk::new();
        let tree = BTree::create(&bp, &mut vd, "idx.ibd").unwrap();
        // Model: key -> set of row ids (duplicates allowed, so multimap).
        let mut model: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
        for (op, key, rid) in &ops {
            match op {
                0 | 1 => {
                    tree.insert(&bp, &mut vd, &Value::Int(*key), *rid).unwrap();
                    model.entry(*key).or_default().push(*rid);
                }
                _ => {
                    let removed = tree.delete(&bp, &mut vd, &Value::Int(*key), *rid).unwrap();
                    let model_removed = model.get_mut(key).map(|v| {
                        if let Some(pos) = v.iter().position(|r| r == rid) {
                            v.remove(pos);
                            true
                        } else {
                            false
                        }
                    }).unwrap_or(false);
                    prop_assert_eq!(removed, model_removed);
                }
            }
        }
        // Point lookup.
        let found = tree.search_eq(&bp, &mut vd, &Value::Int(probe)).unwrap();
        let mut got = found.row_ids.clone();
        got.sort_unstable();
        let mut want = model.get(&probe).cloned().unwrap_or_default();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // Range scan.
        let (lo, width) = range;
        let hi = lo + width;
        let found = tree
            .search_range(
                &bp,
                &mut vd,
                Bound::Included(Value::Int(lo)),
                Bound::Included(Value::Int(hi)),
            )
            .unwrap();
        let mut got = found.row_ids.clone();
        got.sort_unstable();
        let mut want: Vec<u64> = model
            .range(lo..=hi)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn zone_map_pruned_scans_match_full_scans(
        n_ints in 1usize..=3,
        has_text in any::<bool>(),
        ops in proptest::collection::vec(
            (0u8..8, 0usize..3, 0usize..3, -60i64..60, -60i64..60, any::<u8>()),
            1..48,
        ),
    ) {
        // The stale-synopsis safety net: run one random statement stream
        // (inserts, widening/narrowing updates, deletes, range SELECTs
        // with and without LIMIT/ORDER BY) against two engines that
        // differ only in `zone_maps_enabled`, and demand byte-identical
        // results — including errors — for every statement. A synopsis
        // left stale by any DML path would prune a live page and drop
        // rows here. The pruning engine also caches: it runs each
        // SELECT twice, the second time a cache hit that answers with
        // the block the first stored, and both answers must match.
        let with = equivalence_db(true, true);
        let without = equivalence_db(false, false);
        let mut schema: Vec<String> = (0..n_ints)
            .map(|i| format!("c{i} INT{}", if i == 0 { " PRIMARY KEY" } else { "" }))
            .collect();
        if has_text {
            schema.push("note TEXT".into());
        }
        let create = format!("CREATE TABLE t ({})", schema.join(", "));
        let conn_w = with.connect("app");
        let conn_wo = without.connect("app");
        conn_w.execute(&create).unwrap();
        conn_wo.execute(&create).unwrap();
        for op in &ops {
            let stmt = render_stmt(n_ints, has_text, *op);
            let a = conn_w.execute(&stmt);
            let b = conn_wo.execute(&stmt);
            if stmt.starts_with("SELECT") {
                let hits = cache_hits(&with);
                let again = conn_w.execute(&stmt);
                prop_assert_eq!(&again, &a.clone().map(|r| minidb::QueryResult {
                    rows_examined: 0,
                    ..r
                }), "cache hit on {}", stmt);
                if again.is_ok() {
                    prop_assert_eq!(cache_hits(&with), hits.map(|n| n + 1), "no hit on {}", stmt);
                }
            }
            match (&a, &b) {
                (Ok(ra), Ok(rb)) => {
                    // `rows_examined` legitimately differs: examining
                    // fewer rows is what pruning is *for*. Everything
                    // the client sees must match exactly.
                    prop_assert_eq!(&ra.columns, &rb.columns, "divergence on {}", stmt);
                    prop_assert_eq!(&ra.rows, &rb.rows, "divergence on {}", stmt);
                    prop_assert_eq!(
                        ra.rows_affected, rb.rows_affected,
                        "divergence on {}", stmt
                    );
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "one engine errored on {}: {:?} vs {:?}", stmt, a, b),
            }
        }
        // Final full-table sweep: the end states agree row for row.
        let sweep = "SELECT * FROM t WHERE c0 >= -1000 AND c0 < 1000 ORDER BY c0";
        prop_assert_eq!(
            conn_w.execute(sweep).unwrap().rows,
            conn_wo.execute(sweep).unwrap().rows
        );
    }

    #[test]
    fn btree_survives_flush_reload(
        keys in proptest::collection::vec(0i64..500, 1..100),
    ) {
        let bp = ShardedBufferPool::new(32, 4);
        let mut vd = VDisk::new();
        let tree = BTree::create(&bp, &mut vd, "idx.ibd").unwrap();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(&bp, &mut vd, &Value::Int(*k), i as u64).unwrap();
        }
        bp.flush_all(&mut vd);
        let cold = ShardedBufferPool::new(8, 4);
        let all = tree
            .search_range(&cold, &mut vd, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        prop_assert_eq!(all.row_ids.len(), keys.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sealed-WAL round trip: seal arbitrary payloads into enc frames,
    /// carve-resync the concatenated image, open every frame with the
    /// key — the result is the original payload sequence, exactly like
    /// the plaintext framing pipeline.
    #[test]
    fn sealed_frames_round_trip_through_carving(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..12),
        key in any::<[u8; 32]>(),
    ) {
        let crypto = minidb::wal::WalCrypto::new(key, 1);
        let mut image = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            let sealed = crypto.seal(edb_crypto::logenc::STREAM_REDO, i as u64, p);
            image.extend_from_slice(&minidb::wal::frame_enc(&sealed));
        }
        let carved = minidb::wal::carve_enc_frames(&image);
        prop_assert_eq!(carved.len(), payloads.len());
        for (i, (_, sealed)) in carved.iter().enumerate() {
            let (origin, stream, seq, plain) = crypto.open(sealed).expect("key holder opens");
            prop_assert_eq!(origin, 1);
            prop_assert_eq!(stream, edb_crypto::logenc::STREAM_REDO);
            prop_assert_eq!(seq, i as u64);
            prop_assert_eq!(&plain, &payloads[i]);
        }
        // The keyless plaintext carver sees nothing in the same bytes.
        prop_assert_eq!(carve_frames(&image).len(), 0);
    }

    /// Flipping one bit anywhere in a sealed image loses at most two
    /// records — the flipped one, plus the next frame if the flip hit a
    /// length header and swallowed it — and nothing that still opens is
    /// altered (the MAC rejects every corrupted record, so a bit-flip
    /// cannot silently rewrite replayed history).
    #[test]
    fn sealed_image_bit_flip_never_alters_what_opens(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..48), 2..8),
        flip_seed in any::<u64>(),
    ) {
        let crypto = minidb::wal::WalCrypto::new([7u8; 32], 1);
        let mut image = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            let sealed = crypto.seal(edb_crypto::logenc::STREAM_REDO, i as u64, p);
            image.extend_from_slice(&minidb::wal::frame_enc(&sealed));
        }
        let bit = (flip_seed as usize) % (image.len() * 8);
        image[bit / 8] ^= 1 << (bit % 8);
        let mut recovered = 0usize;
        for (_, sealed) in minidb::wal::carve_enc_frames(&image) {
            if let Some((_, _, seq, plain)) = crypto.open(sealed) {
                // Anything that opens is authentic: byte-identical to
                // what was sealed under that sequence number.
                prop_assert_eq!(&plain, &payloads[seq as usize]);
                recovered += 1;
            }
        }
        prop_assert!(
            recovered + 2 >= payloads.len(),
            "one flipped bit lost {} of {} records",
            payloads.len() - recovered,
            payloads.len()
        );
    }
}
