//! The experiment contract: every `--quick` cell and claim of every
//! experiment, as [`bench::golden`] renders it, equals the committed
//! `EXPERIMENTS.golden` at the repository root, and every claim holds.
//! Measured cells render as `~`, so they pin the table's shape but not
//! the number; a floor such a cell must clear is a claim beside it.
//!
//! On a mismatch the test prints a cell-level diff and writes the new
//! rendering to `target/EXPERIMENTS.golden.new`. A change that moves a
//! cell on purpose re-captures the golden in the same diff:
//!
//! ```text
//! cp target/EXPERIMENTS.golden.new EXPERIMENTS.golden
//! ```
//!
//! A claim that reads `FAIL` fails the test whatever the golden says,
//! so a re-capture cannot accept a broken claim.

use std::collections::BTreeMap;
use std::path::Path;

use bench::{failed_claims, golden, run_report, Options, ALL};

/// Splits golden lines into `id | table | row | header` (or `id | table
/// | claim | text`) keys and values.
fn cells(text: &str) -> BTreeMap<&str, &str> {
    text.lines().filter_map(|l| l.rsplit_once(" | ")).collect()
}

#[test]
fn quick_cells_match_the_committed_golden() {
    let opts = Options {
        quick: true,
        ..Options::default()
    };
    let reports: Vec<_> = ALL
        .iter()
        .map(|id| run_report(id, &opts).expect("every id runs"))
        .collect();
    let actual = golden(&reports);
    let failed = failed_claims(&reports);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let expected = std::fs::read_to_string(root.join("EXPERIMENTS.golden")).unwrap_or_default();
    if actual == expected && failed.is_empty() {
        return;
    }

    let (want, got) = (cells(&expected), cells(&actual));
    let mut diff = String::new();
    for (key, w) in &want {
        match got.get(key) {
            Some(g) if g == w => {}
            Some(g) => diff.push_str(&format!("  changed  {key} | {w} -> {g}\n")),
            None => diff.push_str(&format!("  gone     {key} | {w}\n")),
        }
    }
    for (key, g) in &got {
        if !want.contains_key(key) {
            diff.push_str(&format!("  new      {key} | {g}\n"));
        }
    }
    if diff.is_empty() {
        diff.push_str(if actual == expected {
            "  (none)\n"
        } else {
            "  (same cells, different order)\n"
        });
    }
    let new = root.join("target/EXPERIMENTS.golden.new");
    std::fs::create_dir_all(new.parent().unwrap()).unwrap();
    std::fs::write(&new, &actual).unwrap();
    if !failed.is_empty() {
        panic!(
            "claims that FAIL (id | table | claim), which no re-capture accepts:\n  {}\n\
             cells that differ from EXPERIMENTS.golden \
             (id | table | row | header | expected -> actual):\n{diff}",
            failed.join("\n  ")
        );
    }
    panic!(
        "experiment cells differ from EXPERIMENTS.golden \
         (id | table | row | header | expected -> actual):\n{diff}\
         if the move is intended: cp target/EXPERIMENTS.golden.new EXPERIMENTS.golden"
    );
}
