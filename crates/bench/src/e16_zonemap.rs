//! E16 (extension) — zone-map synopses: the price of a fast scan.
//!
//! The engine's scan pruner keeps a per-page synopsis (min/max per INT
//! column, live-row count) in every heap page header plus an in-memory
//! mirror. Part one measures what that buys: 1%-selectivity range scans
//! over an unindexed column, full-materialize vs zone-map-pruned, in
//! rows/sec and pages skipped.
//!
//! Part two measures what it costs, in the paper's terms: the synopses
//! are plaintext *metadata about encrypted data*. A CryptDB-style
//! deployment stores the payload as ciphertext but leaves the
//! range-queryable column plaintext so the server can still prune — and
//! a cold disk snapshot then hands the attacker every page's value
//! bracket without touching a single ciphertext. The attacker's yield is
//! reported as the fraction of the 32-bit value space bracketed by the
//! union of recovered per-page ranges. Setting
//! `zone_maps_enabled = false` is the ablation: nothing to carve, and
//! part one shows the throughput it costs.

use edb_crypto::{kdf, rnd, Key};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snapshot_attack::forensics::zonemap;
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::scanbench;
use crate::{f2, pct, Options};

/// Builds the encrypted-payload victim: plaintext `ts` (range-queried,
/// so the server must see it), ciphertext `payload` (EDB-encrypted
/// client-side, never plaintext on the server).
fn encrypted_victim(rows: usize, zone_maps: bool, seed: u64) -> minidb::engine::Db {
    let config = minidb::engine::DbConfig {
        redo_capacity: 16 << 20,
        undo_capacity: 16 << 20,
        query_cache_enabled: false,
        zone_maps_enabled: zone_maps,
        ..minidb::engine::DbConfig::default()
    };
    let db = minidb::engine::Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE readings (id INT PRIMARY KEY, ts INT, payload BYTES)")
        .unwrap();
    let master = Key([0x21; 32]);
    let key = Key(kdf::derive_key(&master.0, b"e16/payload"));
    let mut rng = StdRng::seed_from_u64(seed);
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| {
                let ct = rnd::encrypt(&key, format!("reading-{i}").as_bytes(), &mut rng);
                let hex: String = ct.iter().map(|b| format!("{b:02x}")).collect();
                format!("({i}, {}, X'{hex}')", i * scanbench::STEP)
            })
            .collect();
        conn.execute(&format!(
            "INSERT INTO readings VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
    db
}

/// Recovery stats for one snapshot-carve variant.
struct Carve {
    pages: usize,
    fraction: f64,
    ciphertext_cracked: bool,
}

/// Shuts the victim down (flushing every page), captures the disk-theft
/// snapshot, and carves zone maps for the `ts` column (ordinal 1).
fn steal_and_carve(db: &minidb::engine::Db) -> Carve {
    db.shutdown();
    let obs = capture(db, AttackVector::DiskTheft);
    let disk = obs.persistent_db.as_ref().unwrap();
    let pages = zonemap::recover(Some(disk), None);
    // The attacker's direct plaintext yield: how much of a 32-bit value
    // space the union of recovered [min, max] ranges pins down. The
    // fixture's ts domain is rows × STEP wide, so the honest ceiling is
    // (rows × STEP) / 2^32.
    let fraction = zonemap::bracket_fraction(&pages, 1, 1u128 << 32);
    // Cross-check the encryption held: no payload plaintext on disk.
    let ciphertext_cracked = disk
        .files
        .values()
        .any(|d| d.windows(b"reading-".len()).any(|w| w == b"reading-"));
    Carve {
        pages: pages.len(),
        fraction,
        ciphertext_cracked,
    }
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let rows = if opts.quick { 20_000 } else { 120_000 };
    let queries = if opts.quick { 8 } else { 20 };

    // ---- part one: throughput ----
    let cmp = scanbench::compare(rows, queries);
    let mut perf = Table::new(
        "E16 - zone-map pruned scans, 1% selectivity over an unindexed column",
        &[
            "rows",
            "full scan rows/s",
            "pruned rows/s",
            "speedup",
            "pages pruned",
            "pages decoded",
            "pruned",
            "index keys/page",
        ],
    );
    perf.row(&[
        rows.to_string(),
        format!("{:.0}", cmp.full.rows_per_sec),
        format!("{:.0}", cmp.pruned.rows_per_sec),
        format!("{}x", f2(cmp.speedup())),
        cmp.pruned.pages_pruned.to_string(),
        cmp.pruned.pages_decoded.to_string(),
        pct(cmp.pruned_fraction()),
        format!("{:.1}", cmp.index_keys_per_page),
    ])
    .measured(&[1, 2, 3]);
    // At 1% selectivity over a clustered column.
    perf.claim(
        "zone maps prune >= 90% of pages",
        cmp.pruned.pages_pruned > 0 && cmp.pruned_fraction() >= 0.9,
    );
    perf.claim(
        "pruning pays in wall-clock time: >= 2x the full scan's rows/s",
        cmp.speedup() >= 2.0,
    );

    // ---- part two: the leakage surface ----
    // Smaller victims: the carve is per page, not per row.
    let victim_rows = if opts.quick { 4_000 } else { 20_000 };
    let domain_rows = victim_rows as f64 * scanbench::STEP as f64;
    let mut leak = Table::new(
        "E16 - zone maps carved from a cold disk snapshot (ts column)",
        &[
            "victim",
            "pages recovered",
            "32-bit space bracketed",
            "of stored domain",
            "payload plaintext",
        ],
    );

    let on = encrypted_victim(victim_rows, true, opts.seed ^ 0x16);
    let carve_on = steal_and_carve(&on);
    opts.absorb_db(&on);
    let of_domain = carve_on.fraction * (1u64 << 32) as f64 / domain_rows;
    leak.row(&[
        "EDB-encrypted payload, zone maps on".into(),
        carve_on.pages.to_string(),
        // Sub-percent but decisively nonzero: print enough decimals.
        format!("{:.5}%", carve_on.fraction * 100.0),
        pct(of_domain),
        if carve_on.ciphertext_cracked {
            "LEAKED"
        } else {
            "none"
        }
        .into(),
    ]);

    let off = encrypted_victim(victim_rows, false, opts.seed ^ 0x61);
    let carve_off = steal_and_carve(&off);
    opts.absorb_db(&off);
    leak.row(&[
        "EDB-encrypted payload, zone_maps_enabled = false".into(),
        carve_off.pages.to_string(),
        format!("{:.5}%", carve_off.fraction * 100.0),
        pct(0.0),
        if carve_off.ciphertext_cracked {
            "LEAKED"
        } else {
            "none"
        }
        .into(),
    ]);
    leak.claim(
        "the carve recovers page brackets covering >= 90% of the stored domain",
        carve_on.pages >= 2 && carve_on.fraction > 0.0 && of_domain >= 0.9,
    );
    leak.claim("the payload ciphertext holds", !carve_on.ciphertext_cracked);
    leak.claim(
        "with zone maps off there is nothing to carve",
        carve_off.pages == 0,
    );

    vec![perf, leak]
}
