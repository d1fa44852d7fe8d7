//! E18 (extension) — the version store: snapshot isolation archives
//! your UPDATE history.
//!
//! The victim runs an EDB-style encrypted column: every value of
//! `dossier` is RND-encrypted client-side before it reaches the engine,
//! and every UPDATE re-encrypts under a fresh nonce — by the encrypted-
//! database contract, the server never sees a plaintext and two
//! ciphertexts of the same value are unlinkable. Alongside it sits a
//! plaintext-range-queryable `secret INT`, the usual concession to
//! server-side predicates.
//!
//! MVCC undoes both. Snapshot-isolation reads require the engine to
//! keep every superseded row version until no snapshot can need it, so
//! each UPDATE appends the *complete before-image* — plaintext `secret`
//! included — to `undo_versions.ibd` with `(xmin, xmax)` commit stamps
//! that totally order the supersessions. A cold disk image therefore
//! replays the victim's edit timeline: the carver
//! ([`snapshot_attack::forensics::versions`]) recovers how many times
//! each row changed, in what order, and every historical value of the
//! plaintext column; for the EDB column it recovers one distinct
//! ciphertext per edit — the paper's §3 update-pattern leakage, made
//! durable. The experiment then measures the two vacuum flavours: the
//! default *tombstoning* vacuum (engine forgets, payload bytes stay
//! carvable) and `DbConfig::scrub_before_images` (the file is
//! physically rewritten; recovery collapses to zero).

use std::collections::HashSet;

use edb_crypto::{kdf, rnd, Key};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snapshot_attack::forensics::versions::{carve_disk, chains, column_history, from_memory};
use snapshot_attack::report::Table;

use crate::{pct, Options};

/// Base plaintext value of the victim row's secret; update `i` sets it
/// to `SECRET_BASE + i`, so the true edit history is a known sequence.
const SECRET_BASE: i64 = 7000;
/// Background rows that also get updated (noise the carver must
/// separate from the victim chain).
const NOISE_ROWS: i64 = 3;
const NOISE_UPDATES: usize = 2;

/// Builds the victim: an EDB-encrypted `dossier` column re-encrypted on
/// every write, a plaintext `secret INT`, and `k` UPDATEs of row 1.
fn victim(k: usize, scrub: bool, seed: u64) -> minidb::engine::Db {
    let db = minidb::engine::Db::open(minidb::engine::DbConfig {
        query_cache_enabled: false,
        scrub_before_images: scrub,
        ..minidb::engine::DbConfig::default()
    });
    let conn = db.connect("victim");
    conn.execute("CREATE TABLE vault (id INT PRIMARY KEY, secret INT, dossier BYTES)")
        .unwrap();
    let master = Key([0x18; 32]);
    let key = Key(kdf::derive_key(&master.0, b"e18/dossier"));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ct_hex = |plaintext: &str| -> String {
        rnd::encrypt(&key, plaintext.as_bytes(), &mut rng)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    };
    for id in 1..=1 + NOISE_ROWS {
        conn.execute(&format!(
            "INSERT INTO vault VALUES ({id}, {}, X'{}')",
            SECRET_BASE,
            ct_hex(&format!("dossier-{id}-v0"))
        ))
        .unwrap();
    }
    // The victim row edits its secret k times; each edit also
    // re-encrypts the dossier, as an EDB client must.
    for i in 1..=k as i64 {
        conn.execute(&format!(
            "UPDATE vault SET secret = {}, dossier = X'{}' WHERE id = 1",
            SECRET_BASE + i,
            ct_hex(&format!("dossier-1-v{i}"))
        ))
        .unwrap();
    }
    // Background churn on the other rows.
    for i in 1..=NOISE_UPDATES as i64 {
        for id in 2..=1 + NOISE_ROWS {
            conn.execute(&format!(
                "UPDATE vault SET secret = {} WHERE id = {id}",
                SECRET_BASE + 100 * id + i
            ))
            .unwrap();
        }
    }
    db
}

/// What one variant's carve recovered about the victim row.
struct Recovery {
    engine_versions: usize,
    carved_records: usize,
    /// Fraction of the k true historical secrets recovered.
    secret_rate: f64,
    /// Whether the recovered sequence equals the true edit order.
    ordering_intact: bool,
    /// Distinct dossier ciphertexts recovered (one per edit when the
    /// full history survives).
    distinct_ciphertexts: usize,
}

/// Scores a set of carved versions against the known edit history.
fn score(
    db: &minidb::engine::Db,
    carved: &[snapshot_attack::forensics::versions::CarvedVersion],
    k: usize,
) -> Recovery {
    let truth: Vec<minidb::value::Value> = (0..k as i64)
        .map(|i| minidb::value::Value::Int(SECRET_BASE + i))
        .collect();
    let history = column_history(carved, "vault", 1, 1);
    let mut remaining = history.clone();
    let mut hits = 0usize;
    for t in &truth {
        if let Some(pos) = remaining.iter().position(|v| v == t) {
            remaining.swap_remove(pos);
            hits += 1;
        }
    }
    let cts: HashSet<Vec<u8>> = column_history(carved, "vault", 1, 2)
        .into_iter()
        .filter_map(|v| match v {
            minidb::value::Value::Bytes(b) => Some(b),
            _ => None,
        })
        .collect();
    // Supersession order must also survive: the carve's per-row chain is
    // offset-ordered and its xmax stamps must strictly increase.
    let by_row = chains(carved);
    let stamps_ordered = by_row
        .get(&("vault".to_string(), 1))
        .map(|c| c.windows(2).all(|w| w[0].xmax <= w[1].xmax))
        .unwrap_or(false);
    Recovery {
        engine_versions: db.version_count(),
        carved_records: carved.len(),
        secret_rate: hits as f64 / k.max(1) as f64,
        ordering_intact: history == truth && stamps_ordered,
        distinct_ciphertexts: cts.len(),
    }
}

fn row_for(t: &mut Table, variant: &str, k: usize, r: &Recovery) {
    t.row(&[
        variant.into(),
        k.to_string(),
        r.engine_versions.to_string(),
        r.carved_records.to_string(),
        pct(r.secret_rate),
        if r.ordering_intact { "INTACT" } else { "-" }.into(),
        r.distinct_ciphertexts.to_string(),
    ]);
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let k = if opts.quick { 12 } else { 48 };

    let mut archive = Table::new(
        "E18 - version-chain carve of an EDB-encrypted victim's edit history",
        &[
            "variant",
            "updates",
            "engine versions",
            "carved records",
            "secret history recovered",
            "ordering",
            "edb ciphertexts",
        ],
    );

    // Production default: nobody ran vacuum. The cold disk image holds
    // the full supersession history.
    let db = victim(k, false, opts.seed ^ 0x1801);
    let disk = score(&db, &carve_disk(&db.disk_image()), k);
    row_for(&mut archive, "no vacuum, disk image carve", k, &disk);
    // The same history, replayed from a memory snapshot (the EDBSNAP6
    // container carries `version_chains` — no byte carving needed).
    let mem = score(&db, &from_memory(&db.memory_image()), k);
    row_for(&mut archive, "no vacuum, memory image chains", k, &mem);
    opts.absorb_db(&db);
    drop(db);

    // Tombstoning vacuum (the default): the engine forgets every
    // version, but reclamation only flips a state byte — the payload
    // bytes stay on disk and the carve is undiminished.
    let db = victim(k, false, opts.seed ^ 0x1802);
    db.vacuum();
    let tomb = score(&db, &carve_disk(&db.disk_image()), k);
    row_for(&mut archive, "vacuum (tombstoning default)", k, &tomb);
    opts.absorb_db(&db);
    drop(db);

    // Scrubbing vacuum: `scrub_before_images` physically rewrites the
    // version file, and the history is gone.
    let db = victim(k, true, opts.seed ^ 0x1803);
    db.vacuum();
    let scrub = score(&db, &carve_disk(&db.disk_image()), k);
    row_for(&mut archive, "vacuum + scrub_before_images", k, &scrub);
    opts.absorb_db(&db);
    drop(db);

    archive.claim(
        "before vacuum the disk carve recovers >= 90% of the superseded secrets, in order",
        disk.secret_rate >= 0.9 && disk.ordering_intact,
    );
    // Re-encryption hides the values but not the edit count.
    archive.claim(
        "the carve finds one distinct EDB ciphertext per edit",
        disk.distinct_ciphertexts == k,
    );
    archive.claim(
        "the memory image replays >= 90% of the same history",
        mem.secret_rate >= 0.9,
    );
    archive.claim(
        "a tombstoning vacuum empties the engine but the carve still recovers >= 90%",
        tomb.engine_versions == 0 && tomb.secret_rate >= 0.9,
    );
    archive.claim(
        "a scrubbing vacuum collapses recovery to <= 5%",
        scrub.secret_rate <= 0.05,
    );

    vec![archive]
}
