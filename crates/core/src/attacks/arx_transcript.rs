//! Reconstructing Arx range-query transcripts from transaction logs (§6).
//!
//! Arx repairs every index node a range query touches by overwriting its
//! ciphertext — a write. Writes land in the binlog (statement text) and
//! the undo/redo logs (row images). A snapshot of *persistent state only*
//! therefore contains, for every past range query, the exact set of index
//! nodes it visited: "a transcript of every range query made on the
//! index".
//!
//! From the transcript the attacker gets per-node visit frequencies and,
//! combined with the index structure (the in-order traversal of a search
//! tree *is* the rank order of its hidden values), the rank of each
//! query's bounds. With an auxiliary model of the value distribution, the
//! rank-quantile estimator then recovers approximate node values.

use std::collections::BTreeMap;

use minidb::wal::BinlogEvent;

/// One reconstructed range-query traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTranscript {
    /// Index of the first repair statement in the binlog.
    pub first_event: usize,
    /// Commit timestamp of the repairs.
    pub timestamp: i64,
    /// Node ids the query visited (repair order = traversal order).
    pub visited: Vec<u32>,
}

/// Groups the repair `UPDATE`s of `index_table` into per-query
/// transcripts. The Arx client commits one repair round per query, so the
/// repairs of one query share a transaction id in the binlog; a change of
/// transaction (or any non-repair statement) ends the current group.
pub fn reconstruct_transcripts(events: &[BinlogEvent], index_table: &str) -> Vec<QueryTranscript> {
    let prefix = format!("UPDATE {index_table} SET ");
    let mut out = Vec::new();
    let mut current: Option<(u64, QueryTranscript)> = None;
    for (i, ev) in events.iter().enumerate() {
        let node = ev
            .statement
            .strip_prefix(&prefix)
            .and_then(|rest| rest.rsplit_once("WHERE node_id = "))
            .and_then(|(_, id)| id.trim().trim_end_matches(';').parse::<u32>().ok());
        match (node, &mut current) {
            (Some(n), Some((txn, t))) if *txn == ev.txn => t.visited.push(n),
            (Some(n), _) => {
                if let Some((_, t)) = current.take() {
                    out.push(t);
                }
                current = Some((
                    ev.txn,
                    QueryTranscript {
                        first_event: i,
                        timestamp: ev.timestamp,
                        visited: vec![n],
                    },
                ));
            }
            (None, Some(_)) => out.push(current.take().unwrap().1),
            (None, None) => {}
        }
    }
    out.extend(current.map(|(_, t)| t));
    out
}

/// Per-node visit counts across all reconstructed queries.
pub fn visit_frequencies(transcripts: &[QueryTranscript]) -> BTreeMap<u32, usize> {
    let mut freq = BTreeMap::new();
    for t in transcripts {
        for &n in &t.visited {
            *freq.entry(n).or_insert(0) += 1;
        }
    }
    freq
}

/// Rank-quantile value recovery: node with rank `r` among `n` (known from
/// the index structure's in-order traversal) is estimated as the
/// `(r+1)/(n+1)` quantile of the auxiliary value distribution, supplied
/// as a sorted sample.
pub fn recover_values_by_rank(inorder_nodes: &[u32], aux_sorted: &[u64]) -> BTreeMap<u32, u64> {
    let n = inorder_nodes.len();
    let mut out = BTreeMap::new();
    if n == 0 || aux_sorted.is_empty() {
        return out;
    }
    for (rank, &node) in inorder_nodes.iter().enumerate() {
        let q = (rank as f64 + 1.0) / (n as f64 + 1.0);
        let idx = ((q * aux_sorted.len() as f64) as usize).min(aux_sorted.len() - 1);
        out.insert(node, aux_sorted[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stmt: &str, ts: i64) -> BinlogEvent {
        BinlogEvent {
            lsn: 0,
            txn: 0,
            timestamp: ts,
            statement: stmt.to_string(),
            ctx: None,
        }
    }

    #[test]
    fn groups_consecutive_repairs() {
        let events = vec![
            ev("INSERT INTO arx_ix VALUES (0, X'aa')", 1),
            ev("UPDATE arx_ix SET ct = X'01' WHERE node_id = 3", 2),
            ev("UPDATE arx_ix SET ct = X'02' WHERE node_id = 1", 2),
            ev("INSERT INTO other VALUES (9)", 3),
            ev("UPDATE arx_ix SET ct = X'03' WHERE node_id = 3", 4),
        ];
        let ts = reconstruct_transcripts(&events, "arx_ix");
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].visited, vec![3, 1]);
        assert_eq!(ts[0].timestamp, 2);
        assert_eq!(ts[1].visited, vec![3]);
        let freq = visit_frequencies(&ts);
        assert_eq!(freq[&3], 2);
        assert_eq!(freq[&1], 1);
    }

    #[test]
    fn ignores_other_tables() {
        let events = vec![ev("UPDATE not_arx SET ct = X'01' WHERE node_id = 3", 1)];
        assert!(reconstruct_transcripts(&events, "arx_ix").is_empty());
    }

    #[test]
    fn rank_recovery_monotone() {
        let inorder = vec![5u32, 2, 9, 1];
        let aux: Vec<u64> = (0..1000).map(|i| i * 10).collect();
        let rec = recover_values_by_rank(&inorder, &aux);
        assert!(rec[&5] < rec[&2] && rec[&2] < rec[&9] && rec[&9] < rec[&1]);
    }

    #[test]
    fn end_to_end_against_real_arx() {
        use edb::arx::ArxRangeIndex;
        use edb_crypto::Key;
        use minidb::engine::{Db, DbConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let config = DbConfig {
            redo_capacity: 1 << 20,
            undo_capacity: 1 << 20,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let mut ix = ArxRangeIndex::create(&db, &Key([6u8; 32]), "arx_age", 3).unwrap();

        // Victim data: 256 uniform values.
        let mut rng = StdRng::seed_from_u64(21);
        let values: Vec<u64> = (0..256).map(|_| rng.gen_range(0..1_000_000)).collect();
        for (row, &v) in values.iter().enumerate() {
            ix.insert(v, row as u64).unwrap();
        }
        // Victim queries.
        let queries = [(100_000u64, 200_000u64), (500_000, 650_000), (0, 50_000)];
        for &(lo, hi) in &queries {
            ix.range(lo, hi).unwrap();
        }

        // ---- attacker side: persistent state only ----
        let disk = db.disk_image();
        let events =
            crate::forensics::binlog::parse_binlog(disk.file(minidb::wal::BINLOG_FILE).unwrap());
        let transcripts = reconstruct_transcripts(&events, "arx_age");
        assert_eq!(
            transcripts.len(),
            queries.len(),
            "one transcript per range query"
        );
        // Visit sets are non-trivial (a path, not the whole tree).
        for t in &transcripts {
            assert!(!t.visited.is_empty());
            assert!(t.visited.len() < values.len());
        }

        // Rank recovery with an auxiliary sample from the same
        // distribution (independent draws).
        let mut aux: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..1_000_000)).collect();
        aux.sort_unstable();
        let recovered = recover_values_by_rank(&ix.oracle_inorder(), &aux);
        // Mean relative error well below random guessing (~0.33 expected
        // |error| for uniform guesses on uniform data).
        let mut err = 0.0;
        for (node, est) in &recovered {
            let truth = ix.oracle_value(*node) as f64;
            err += (truth - *est as f64).abs() / 1_000_000.0;
        }
        let mean_err = err / recovered.len() as f64;
        assert!(mean_err < 0.05, "mean relative error {mean_err}");
    }
}
