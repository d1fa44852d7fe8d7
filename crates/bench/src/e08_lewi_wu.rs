//! E8 — §6's headline simulation: Lewi–Wu ORE (1-bit blocks) bit leakage
//! from recovered range-query tokens.
//!
//! Paper: database of 10,000 uniform 32-bit integers, uniform range
//! queries, 1,000 trials. Average fraction of the 320,000 bits leaked:
//! ≈12% at 5 queries, ≈19% at 25, ≈25% at 50.

use snapshot_attack::attacks::bit_leakage::{simulate, Mode, SimParams};
use snapshot_attack::report::Table;

use crate::{f2, pct, Options};

/// Paper reference points: (queries, fraction of bits leaked).
pub const PAPER: [(usize, f64); 3] = [(5, 0.12), (25, 0.19), (50, 0.25)];

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let (db_size, trials) = if opts.quick {
        (1_000, 30)
    } else {
        (10_000, 1_000)
    };
    let mut t = Table::new(
        &format!(
            "E8 - Lewi-Wu bit leakage (db={db_size}, trials={trials}, paper: db=10000, trials=1000)"
        ),
        &[
            "range queries",
            "paper",
            "measured (propagate)",
            "bits/value",
            "direct-only (ablation)",
        ],
    );
    let mut measured = Vec::new();
    for (queries, paper_frac) in PAPER {
        let prop = simulate(&SimParams {
            db_size,
            num_queries: queries,
            trials,
            mode: Mode::Propagate,
            seed: opts.seed + queries as u64,
        });
        let direct = simulate(&SimParams {
            db_size,
            num_queries: queries,
            trials: trials.min(50),
            mode: Mode::DirectOnly,
            seed: opts.seed + queries as u64,
        });
        t.row(&[
            queries.to_string(),
            pct(paper_frac),
            pct(prop.fraction_bits_leaked),
            f2(prop.bits_per_value),
            pct(direct.fraction_bits_leaked),
        ]);
        measured.push(prop.fraction_bits_leaked);
    }
    t.claim(
        "leakage grows with the number of range queries",
        measured.windows(2).all(|w| w[0] < w[1]),
    );
    t.claim(
        "leakage is within 4.5 percentage points of the paper's 12%/19%/25%",
        measured
            .iter()
            .zip(PAPER)
            .all(|(m, (_, paper))| (m - paper).abs() < 0.045),
    );
    vec![t]
}
