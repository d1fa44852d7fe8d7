//! E7 — §6 "Token-based systems": recover SWP trapdoors from a memory
//! snapshot, apply them to the encrypted index, and run the count attack.
//!
//! The paper's supporting statistic: 63% of the 500 most frequent Enron
//! words have a unique result count, so a count equality identifies the
//! keyword — and the token's matching documents reveal partial content.

use corpus::enron::{Corpus, EnronParams};
use edb::cryptdb::{parse_swp_blob, ColumnCrypto, CryptDbProxy, EncColumn, Query};
use edb_crypto::swp::Trapdoor;
use edb_crypto::Key;
use minidb::engine::{Db, DbConfig};
use minidb::value::Value;
use snapshot_attack::attacks::count::{count_attack_batch, AuxiliaryCounts};
use snapshot_attack::forensics::memscan;
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::{pct, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    // The 63% statistic on the full-size synthetic corpus.
    let full = Corpus::generate(&EnronParams::default());
    let unique_frac = full.unique_count_fraction(500);

    // The end-to-end attack on a smaller (runtime-bounded) instance.
    let params = EnronParams {
        num_docs: if opts.quick { 300 } else { 2_000 },
        vocab_size: 1_500,
        ..Default::default()
    };
    let corpus = Corpus::generate(&params);
    let num_queries = if opts.quick { 15 } else { 50 };

    let config = DbConfig {
        redo_capacity: 4 << 20,
        undo_capacity: 4 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let mut proxy = CryptDbProxy::new(&db, Key([0x44; 32]), opts.seed).unwrap();
    proxy
        .create_table(
            "docs",
            vec![
                EncColumn {
                    name: "id".into(),
                    crypto: ColumnCrypto::PlainInt,
                    primary_key: true,
                },
                EncColumn {
                    name: "body".into(),
                    crypto: ColumnCrypto::Search,
                    primary_key: false,
                },
            ],
        )
        .unwrap();
    for doc in &corpus.docs {
        proxy
            .insert(
                "docs",
                &[Value::Int(doc.id as i64), Value::Text(doc.words.join(" "))],
            )
            .unwrap();
    }

    // The victim searches the most frequent words.
    let queried = corpus.top_words(num_queries);
    for w in &queried {
        proxy
            .select("docs", &Query::Contains("body".into(), w.clone()))
            .unwrap();
    }

    // ---- attacker: VM snapshot ----
    let obs = capture(&db, AttackVector::VmSnapshotLeak);
    let mem = obs.volatile_db.expect("vm snapshot has memory");

    // 1. Carve trapdoors out of the heap (freed query texts persist);
    //    deduplicate the byte strings, then parse.
    let token_bytes: std::collections::BTreeSet<Vec<u8>> =
        memscan::carve_tokens(&mem.heap).into_iter().collect();
    let tokens: Vec<Trapdoor> = token_bytes
        .iter()
        .filter_map(|bytes| Trapdoor::from_bytes(bytes))
        .collect();

    // 2. Apply each token to the stored index (ciphertexts are in the
    //    stolen tablespace; the attacker needs no keys).
    let conn = db.connect("attacker");
    let stored = conn.execute("SELECT id, body_swp FROM docs").unwrap();
    let blobs: Vec<(i64, Vec<edb_crypto::swp::WordCiphertext>)> = stored
        .rows
        .iter()
        .map(|r| {
            let Value::Int(id) = r[0] else { panic!() };
            let Value::Bytes(b) = &r[1] else { panic!() };
            (id, parse_swp_blob(b).unwrap())
        })
        .collect();
    let observations: Vec<(usize, usize)> = tokens
        .iter()
        .enumerate()
        .map(|(i, td)| {
            let count = blobs
                .iter()
                .filter(|(_, cts)| cts.iter().any(|ct| edb_crypto::swp::server_match(td, ct)))
                .count();
            (i, count)
        })
        .collect();

    // 3. Count attack with the auxiliary frequency model.
    let aux = AuxiliaryCounts::new(
        corpus
            .top_words(params.vocab_size)
            .into_iter()
            .map(|w| (w.clone(), corpus.doc_frequency(&w))),
    );
    let report = count_attack_batch(&aux, &observations);

    // Verify recoveries against ground truth and count revealed content.
    let mut correct = 0usize;
    let mut docs_revealed = std::collections::BTreeSet::new();
    for (tok, word) in &report.recovered {
        // Ground truth: does this token's count match the queried word
        // whose trapdoor it is? Re-derive by matching counts.
        let observed = observations[*tok].1;
        if corpus.doc_frequency(word) == observed && queried.contains(word) {
            correct += 1;
            for d in corpus.matching_docs(word) {
                docs_revealed.insert(d);
            }
        }
    }

    let mut t = Table::new(
        "E7 - count attack on recovered SWP trapdoors",
        &["metric", "this run", "paper"],
    );
    t.row(&[
        "unique-count fraction, top-500 words (full corpus)".into(),
        pct(unique_frac),
        "63%".into(),
    ]);
    t.row(&[
        "trapdoors carved from heap".into(),
        tokens.len().to_string(),
        "-".into(),
    ]);
    t.row(&[
        "victim queries issued".into(),
        num_queries.to_string(),
        "-".into(),
    ]);
    t.row(&[
        "keywords uniquely recovered".into(),
        format!(
            "{} ({})",
            report.recovered.len(),
            pct(report.recovery_rate())
        ),
        "-".into(),
    ]);
    t.row(&[
        "recoveries verified correct".into(),
        correct.to_string(),
        "-".into(),
    ]);
    t.row(&[
        "documents with partial content revealed".into(),
        format!(
            "{} / {} ({})",
            docs_revealed.len(),
            corpus.docs.len(),
            pct(docs_revealed.len() as f64 / corpus.docs.len() as f64)
        ),
        "-".into(),
    ]);
    t.claim(
        "every victim trapdoor is carved from the heap",
        tokens.len() >= num_queries,
    );
    t.claim(
        "the count attack correctly recovers at least a third of the queried keywords",
        correct >= num_queries / 3,
    );
    opts.absorb_db(&db);
    vec![t]
}
