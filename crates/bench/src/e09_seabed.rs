//! E9 — §6 "Seabed": three demonstrations.
//!
//! * **E9a** — SPLASHE's rewritten queries name one column per plaintext
//!   value; the digest table therefore accumulates an exact per-value
//!   query histogram, and frequency analysis (rank matching, the
//!   Lacharité–Paterson MLE) recovers the secret value→column map.
//! * **E9b** — Seabed's deterministic, comparable ORE: order + equality
//!   leakage lets the binomial/quantile attack and bipartite matching
//!   recover values outright from a snapshot of the data alone.
//! * **E9c** — enhanced SPLASHE: the padded DET tail is flat *at rest*,
//!   but query texts carved from the heap leak a per-ciphertext query
//!   histogram; frequency analysis maps DET ciphertexts to values, and —
//!   because the tail is deterministic — labels every matching *row*.

use corpus::zipf::Zipf;
use edb::seabed::{SeabedMode, SeabedTable};
use edb_crypto::Key;
use minidb::engine::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snapshot_attack::attacks::frequency::rank_match;
use snapshot_attack::attacks::matching::recovery_by_matching;
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::{pct, Options};

/// Runs all three sub-experiments.
pub fn run(opts: &Options) -> Vec<Table> {
    let mut out = vec![splashe_digest_attack(opts)];
    out.push(seabed_ore_attack(opts));
    out.push(enhanced_splashe_attack(opts));
    out
}

/// E9a: digest histogram → frequency analysis on basic SPLASHE.
fn splashe_digest_attack(opts: &Options) -> Table {
    let domain = 30u32;
    let (rows, queries) = if opts.quick {
        (300, 400)
    } else {
        (2_000, 3_000)
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let zipf = Zipf::new(domain as usize, 1.0);

    let config = DbConfig {
        redo_capacity: 4 << 20,
        undo_capacity: 4 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let mut table =
        SeabedTable::create(&db, &Key([0x66; 32]), "sales", domain, SeabedMode::Basic).unwrap();
    for _ in 0..rows {
        table.insert(zipf.sample(&mut rng) as u32).unwrap();
    }
    // Victim: Zipf-distributed count queries (the query distribution the
    // attacker can model, e.g. from business context).
    for _ in 0..queries {
        let v = zipf.sample(&mut rng) as u32;
        table.count_eq(v).unwrap();
    }

    // ---- attacker: SQL injection reads the digest table ----
    let obs = capture(&db, AttackVector::SqlInjection);
    let inj = obs.sql.unwrap();
    let digests = inj
        .execute(
            "SELECT digest_text, count_star FROM \
             performance_schema.events_statements_summary_by_digest",
        )
        .unwrap();
    // Each `SELECT ASHE_SUM(cN) FROM sales` digest is one column's query
    // count — the exact histogram the paper describes.
    let mut observed: Vec<(u32, f64)> = Vec::new();
    for row in &digests.rows {
        let text = row[0].to_string();
        if !text.contains("ashe_sum") {
            continue;
        }
        if let Some(pos) = text.find("(c") {
            let digits: String = text[pos + 2..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(label) = digits.parse::<u32>() {
                let count: i64 = row[1].to_string().parse().unwrap_or(0);
                observed.push((label, count as f64));
            }
        }
    }
    // Auxiliary model: the query distribution.
    let model: Vec<(u32, f64)> = (0..domain).map(|v| (v, zipf.pmf(v as usize))).collect();
    let guesses = rank_match(&observed, &model);
    let correct = guesses
        .iter()
        .filter(|(label, value)| table.oracle_value_of_label(*label) == *value)
        .count();
    let observed_total: f64 = observed.iter().map(|(_, c)| c).sum();
    let correct_weighted: f64 = guesses
        .iter()
        .filter(|(label, value)| table.oracle_value_of_label(*label) == *value)
        .map(|(label, _)| {
            observed
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, c)| *c)
                .unwrap_or(0.0)
        })
        .sum();

    let mut t = Table::new(
        "E9a - SPLASHE column recovery from the digest-table query histogram",
        &["metric", "value"],
    );
    t.row(&["domain size".into(), domain.to_string()]);
    t.row(&["count queries issued".into(), queries.to_string()]);
    t.row(&[
        "columns observed in digest table".into(),
        observed.len().to_string(),
    ]);
    t.row(&[
        "columns correctly mapped (frequency analysis)".into(),
        format!(
            "{correct}/{} ({})",
            guesses.len(),
            pct(correct as f64 / guesses.len().max(1) as f64)
        ),
    ]);
    t.row(&[
        "queries whose value is revealed".into(),
        pct(correct_weighted / observed_total.max(1.0)),
    ]);
    t.row(&["random-guess baseline".into(), pct(1.0 / domain as f64)]);
    t.claim(
        "frequency analysis maps more than twice the random-guess share of columns",
        correct as f64 / guesses.len().max(1) as f64 > 2.0 / domain as f64,
    );
    // Head values dominate and rank-match reliably.
    t.claim(
        "the value of more than 35% of the queries is revealed",
        correct_weighted / observed_total.max(1.0) > 0.35,
    );
    opts.absorb_db(&db);
    t
}

/// E9b: binomial + bipartite matching against Seabed's deterministic ORE.
fn seabed_ore_attack(opts: &Options) -> Table {
    let n = if opts.quick { 2_000 } else { 10_000 };
    // Ages with a triangular bulge — modellable from public data.
    let rows = corpus::customers::generate(&corpus::customers::CustomerParams {
        rows: n,
        ..Default::default()
    });
    let truth: Vec<u32> = rows.iter().map(|r| r.age).collect();
    // Aux model: an independent sample from the same population.
    let aux_rows = corpus::customers::generate(&corpus::customers::CustomerParams {
        rows: n,
        seed: 0xD1FF,
        ..Default::default()
    });

    // Seabed's ORE is deterministic and comparable: the attacker holding
    // the column alone sees the exact multiset of plaintext *ranks* and
    // the equality pattern. Distinct ciphertexts = distinct values.
    let mut distinct: Vec<u32> = truth.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let counts = |vals: &[u32], v: u32| vals.iter().filter(|&&x| x == v).count() as f64;

    // Bipartite matching: ciphertexts (by rank, with frequencies) vs
    // candidate plaintexts 18..=90 (model frequencies + rank).
    let candidates: Vec<u32> = (18..=90).collect();
    let aux_ages: Vec<u32> = aux_rows.iter().map(|r| r.age).collect();
    let total = truth.len() as f64;
    let aux_total = aux_ages.len() as f64;
    let ct_freq: Vec<f64> = distinct
        .iter()
        .map(|&v| counts(&truth, v) / total)
        .collect();
    let cand_freq: Vec<f64> = candidates
        .iter()
        .map(|&v| counts(&aux_ages, v) / aux_total)
        .collect();
    // Cumulative positions capture rank information.
    let cum = |freqs: &[f64]| -> Vec<f64> {
        let mut acc = 0.0;
        freqs
            .iter()
            .map(|f| {
                let mid = acc + f / 2.0;
                acc += f;
                mid
            })
            .collect()
    };
    let ct_pos = cum(&ct_freq);
    let cand_pos = cum(&cand_freq);
    let guesses = recovery_by_matching(distinct.len(), candidates.len(), |i, j| {
        let freq_term = (ct_freq[i] - cand_freq[j]).powi(2);
        let rank_term = (ct_pos[i] - cand_pos[j]).powi(2);
        -(freq_term * 4.0 + rank_term)
    });
    let mut values_correct = 0usize;
    let mut rows_correct = 0.0f64;
    for (i, &v) in distinct.iter().enumerate() {
        if candidates[guesses[i]] == v {
            values_correct += 1;
            rows_correct += counts(&truth, v);
        }
    }

    let mut t = Table::new(
        "E9b - bipartite-matching attack on Seabed's deterministic ORE",
        &["metric", "value"],
    );
    t.row(&["rows".into(), n.to_string()]);
    t.row(&["distinct ciphertexts".into(), distinct.len().to_string()]);
    t.row(&[
        "distinct values exactly recovered".into(),
        format!(
            "{values_correct}/{} ({})",
            distinct.len(),
            pct(values_correct as f64 / distinct.len() as f64)
        ),
    ]);
    t.row(&[
        "rows whose value is revealed".into(),
        pct(rows_correct / total),
    ]);
    t.row(&[
        "random-guess baseline".into(),
        pct(1.0 / candidates.len() as f64),
    ]);
    t
}

/// E9c: enhanced SPLASHE row recovery through carved tail-query texts.
fn enhanced_splashe_attack(opts: &Options) -> Table {
    let domain = 20u32;
    let frequent: Vec<u32> = (0..4).collect(); // Zipf head gets columns.
    let (rows, queries) = if opts.quick {
        (200, 500)
    } else {
        (1_000, 2_500)
    };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xE9C);
    let zipf = Zipf::new(domain as usize, 1.0);

    let config = DbConfig {
        redo_capacity: 4 << 20,
        undo_capacity: 4 << 20,
        // Tail counts are full table scans: on this table they cross the
        // slow query threshold, so the slow log records them verbatim (§3).
        slow_query_threshold_us: 1_000,
        // The query cache would serve repeated identical counts from memory
        // and keep them out of the slow log; production deployments commonly
        // disable it (MySQL 8.0 removed it outright).
        query_cache_enabled: false,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let mut table = SeabedTable::create(
        &db,
        &Key([0x67; 32]),
        "metrics",
        domain,
        SeabedMode::Enhanced {
            frequent: frequent.clone(),
            pad_each_to: (rows / 10) as u64,
        },
    )
    .unwrap();
    let mut true_values = Vec::new();
    for _ in 0..rows {
        let v = zipf.sample(&mut rng) as u32;
        true_values.push(v);
        table.insert(v).unwrap();
    }
    table.pad_tail().unwrap();
    for _ in 0..queries {
        let v = zipf.sample(&mut rng) as u32;
        table.count_eq(v).unwrap();
    }

    // ---- attacker: disk theft is enough ----
    // The slow query log holds every tail-count query verbatim, each with
    // the DET ciphertext of the value it filtered on; the per-ciphertext
    // line counts are the query histogram the padding was meant to hide.
    // (The heap and statement history leak the same texts; the log is the
    // weakest-vector source.)
    let obs = capture(&db, AttackVector::DiskTheft);
    let disk = obs.persistent_db.unwrap();
    let mut ct_counts: std::collections::BTreeMap<Vec<u8>, f64> = Default::default();
    for rec in snapshot_attack::forensics::tracelog::carve_slow_log(&disk) {
        if rec.statement.contains("WHERE tail = X'") {
            for ct in snapshot_attack::forensics::binlog::extract_hex_literals(&rec.statement) {
                *ct_counts.entry(ct).or_insert(0.0) += 1.0;
            }
        }
    }
    let observed: Vec<(Vec<u8>, f64)> = ct_counts.into_iter().collect();
    // Model: query distribution restricted to tail values, renormalized.
    let tail_values: Vec<u32> = (0..domain).filter(|v| !frequent.contains(v)).collect();
    let model: Vec<(u32, f64)> = tail_values
        .iter()
        .map(|&v| (v, zipf.pmf(v as usize)))
        .collect();
    let guesses = rank_match(&observed, &model);

    // Score: ct→value correctness, then row labeling.
    let mut ct_correct = 0usize;
    let mut tail_rows_revealed = 0usize;
    for (ct, value) in &guesses {
        if &table.oracle_tail_ct(*value) == ct {
            ct_correct += 1;
            tail_rows_revealed += true_values.iter().filter(|&&v| v == *value).count();
        }
    }
    let tail_rows_total = true_values.iter().filter(|v| !frequent.contains(v)).count();

    let mut t = Table::new(
        "E9c - enhanced SPLASHE: row recovery via carved tail queries",
        &["metric", "value"],
    );
    t.row(&[
        "tail values in domain".into(),
        tail_values.len().to_string(),
    ]);
    t.row(&[
        "distinct tail ciphertexts in the slow log".into(),
        observed.len().to_string(),
    ]);
    t.row(&[
        "tail ciphertexts correctly mapped".into(),
        format!(
            "{ct_correct}/{} ({})",
            guesses.len(),
            pct(ct_correct as f64 / guesses.len().max(1) as f64)
        ),
    ]);
    t.row(&[
        "tail rows with value revealed".into(),
        format!(
            "{tail_rows_revealed}/{tail_rows_total} ({})",
            pct(tail_rows_revealed as f64 / tail_rows_total.max(1) as f64)
        ),
    ]);
    t.row(&[
        "at-rest tail histogram (after padding)".into(),
        "flat by construction - data alone reveals nothing".into(),
    ]);
    // 16 tail values: random guessing labels ~6% of tail rows.
    t.claim(
        "the carved histogram labels more than 10% of tail rows",
        tail_rows_revealed as f64 / tail_rows_total.max(1) as f64 > 0.10,
    );
    opts.absorb_db(&db);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ore_matching_recovers_most_rows() {
        // Full scale, not quick: matching 73 distinct ages needs the
        // 10k-row sample to be in its statistical regime (at 2k rows the
        // tail frequencies are noise and recovery varies with the RNG
        // stream). The attack is pure in-memory matching, so full scale
        // is still fast.
        let t = seabed_ore_attack(&Options {
            quick: false,
            ..Default::default()
        });
        let revealed: f64 = t.rows[3][1].trim_end_matches('%').parse().unwrap();
        assert!(revealed > 50.0, "revealed {revealed}%");
    }
}
