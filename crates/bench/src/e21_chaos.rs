//! E21 (extension) — chaos failover: the deposed primary's fenced
//! divergent tail as a forensic channel, and `encrypted_wal` closing it.
//!
//! Part one replays the deterministic chaos schedule over the eight-seed
//! [`chaosbench::SEEDS`] battery (partitions,
//! crash-restarts, clock skew; on odd seeds a divergence window
//! followed by a primary kill, election, and fencing) and audits every
//! recorded client operation with the consistency checker: no lost
//! acked writes outside the fenced quarantine, no fabricated or dirty
//! reads, staleness bounded by the router's documented lag window,
//! read-your-writes on primary-pinned sessions. The fleet must converge
//! with zero violations on every variant.
//!
//! Part two is the paper's move applied to failover wreckage: the
//! deposed primary is a machine that *just crashed* — its disk is
//! exactly what an attacker images cold. Fencing concentrates the most
//! recent acked-but-unreplicated writes into the `binlog.divergent`
//! sidecar. On a plaintext fleet the keyless carve recovers **every**
//! quarantined secret; on an `encrypted_wal` fleet it recovers none
//! (the attacker still counts sealed frames — size-and-count metadata
//! survives), while the key holder decodes the full quarantined tail
//! for legitimate post-mortem re-injection.

use minidb::engine::DbConfig;
use snapshot_attack::report::Table;

use crate::chaosbench::{self, LeakProbe, SeedRun};
use crate::{f2, pct, Options};

fn verdict_row(fleet: &str, r: &SeedRun) -> Vec<String> {
    vec![
        r.seed.to_string(),
        fleet.into(),
        format!(
            "{}p {}cr {}cs {}k",
            r.partitions, r.crash_restarts, r.clock_skews, r.kills
        ),
        r.acked_writes.to_string(),
        r.reads_ok.to_string(),
        r.promotions.to_string(),
        r.quarantined.to_string(),
        r.violations.to_string(),
        if r.converged { "CONVERGED" } else { "DIVERGED" }.into(),
    ]
}

fn carve_row(p: &LeakProbe) -> Vec<String> {
    vec![
        p.variant.into(),
        p.sidecar_bytes.to_string(),
        p.frames_total.to_string(),
        p.frames_sealed.to_string(),
        p.carved_statements.to_string(),
        p.run.quarantined.to_string(),
        pct(p.carve_coverage),
    ]
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    // One kill seed probed over both fleet variants, then the rest of
    // the seed battery on a plaintext fleet (the probes are full chaos
    // runs too: the plaintext one is the battery's run for its seed, the
    // sealed one joins the table).
    let kill_seed = 5;
    let plain = chaosbench::leak_probe(kill_seed, opts.quick, false);
    let sealed = chaosbench::leak_probe(kill_seed, opts.quick, true);
    let battery: Vec<SeedRun> = chaosbench::SEEDS
        .iter()
        .map(|&seed| {
            if seed == kill_seed {
                plain.run.clone()
            } else {
                chaosbench::seed_run(seed, opts.quick, DbConfig::default())
            }
        })
        .collect();

    let mut verdicts = Table::new(
        "E21a - chaos verdicts under the seeded fault schedule",
        &[
            "seed",
            "fleet",
            "faults (p=partition cr=crash cs=skew k=kill)",
            "acked writes",
            "reads",
            "promotions",
            "quarantined",
            "violations",
            "verdict",
        ],
    );
    // Reads race the writers, and how many acked writes a kill strands
    // unreplicated is a race too: measured cells.
    let runs: Vec<_> = battery
        .iter()
        .map(|r| ("plaintext", r))
        .chain([("encrypted_wal, probed", &sealed.run)])
        .collect();
    for &(fleet, r) in &runs {
        let measured: &[usize] = if r.kills > 0 { &[4, 6] } else { &[4] };
        verdicts.row(&verdict_row(fleet, r)).measured(measured);
    }
    verdicts.claim(
        "every run converges with zero checker violations",
        runs.iter().all(|(_, r)| r.converged && r.violations == 0),
    );
    // Odd seeds kill the primary.
    verdicts.claim(
        "each kill seed promotes one replacement and quarantines a secret; fault-only seeds neither",
        runs.iter().all(|(_, r)| {
            let kill_seed = r.seed % 2 == 1;
            r.promotions == u64::from(kill_seed) && (r.quarantined > 0) == kill_seed
        }),
    );

    let mut carve = Table::new(
        "E21b - keyless carve of the deposed primary's divergent sidecar",
        &[
            "fleet",
            "sidecar bytes",
            "frames",
            "sealed frames",
            "stmts carved",
            "quarantined secrets",
            "secrets exposed",
        ],
    );
    // How long a tail the kill strands is a race; its zeros and
    // coverages are exact.
    carve.row(&carve_row(&plain)).measured(&[1, 2, 4, 5]);
    carve.row(&carve_row(&sealed)).measured(&[1, 2, 3, 5]);
    carve.claim(
        "the plaintext corpse's sidecar exposes every quarantined secret",
        plain.sidecar_bytes > 0
            && plain.frames_total > 0
            && plain.frames_sealed == 0
            && plain.carve_coverage == 1.0,
    );
    carve.claim(
        "the sealed corpse exposes none, though every sidecar frame stays countable",
        sealed.carved_statements == 0
            && sealed.carve_coverage == 0.0
            && sealed.frames_sealed > 0
            && sealed.frames_sealed == sealed.frames_total,
    );

    let mut recovery = Table::new(
        "E21c - key-holder recovery from the divergent sidecar",
        &["metric", "value"],
    );
    recovery
        .row(&[
            "quarantined writes decoded with the fleet key".into(),
            sealed.keyholder_statements.to_string(),
        ])
        .measured(&[1]);
    recovery.row(&[
        "quarantined secrets recovered".into(),
        pct(sealed.keyholder_coverage),
    ]);
    recovery.row(&[
        "keyless coverage of the same sidecar".into(),
        pct(sealed.carve_coverage),
    ]);
    recovery.row(&[
        "plaintext-fleet keyless coverage (the channel)".into(),
        pct(plain.carve_coverage),
    ]);
    recovery.row(&[
        "plaintext-fleet key-holder coverage".into(),
        pct(plain.keyholder_coverage),
    ]);
    recovery.row(&[
        "promotion epoch after failover".into(),
        f2(plain.run.promotions as f64),
    ]);
    recovery.claim(
        "the key holder recovers the full quarantined tail, sealed or not",
        sealed.keyholder_coverage == 1.0 && plain.keyholder_coverage == 1.0,
    );

    vec![verdicts, carve, recovery]
}
