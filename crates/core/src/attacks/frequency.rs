//! Frequency analysis by rank matching — §6's "very simple cryptanalytic
//! technique", which Lacharité–Paterson proved to be a maximum-likelihood
//! estimator for deterministic encryption under a known plaintext (or
//! query) distribution.
//!
//! Sort the observed ciphertext histogram and the model histogram in
//! decreasing order, then match by rank: the most frequent ciphertext is
//! guessed to be the most frequent plaintext, and so on.

/// Runs rank-matching frequency analysis.
///
/// `observed` maps opaque ciphertext identifiers to their observed counts;
/// `model` maps candidate plaintexts to modeled frequencies (counts or
/// probabilities — only the order matters). Returns `(ciphertext,
/// guessed plaintext)` pairs for the `min(observed, model)` top ranks.
///
/// Ties are broken by identifier order, deterministically.
pub fn rank_match<C: Clone + Ord, P: Clone + Ord>(
    observed: &[(C, f64)],
    model: &[(P, f64)],
) -> Vec<(C, P)> {
    let mut obs = observed.to_vec();
    obs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    let mut mdl = model.to_vec();
    mdl.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    obs.into_iter()
        .zip(mdl)
        .map(|((c, _), (p, _))| (c, p))
        .collect()
}

/// Convenience: recovery accuracy of a guess list against ground truth,
/// weighted by observation counts (the metric used in the literature:
/// fraction of *observations* whose ciphertext was correctly labeled).
pub fn weighted_accuracy<C: Ord + Clone, P: PartialEq>(
    guesses: &[(C, P)],
    truth: impl Fn(&C) -> P,
    observed: &[(C, f64)],
) -> f64 {
    let counts: std::collections::BTreeMap<&C, f64> =
        observed.iter().map(|(c, n)| (c, *n)).collect();
    let total: f64 = observed.iter().map(|(_, n)| n).sum();
    if total == 0.0 {
        return 0.0;
    }
    let correct: f64 = guesses
        .iter()
        .filter(|(c, p)| truth(c) == *p)
        .map(|(c, _)| counts.get(c).copied().unwrap_or(0.0))
        .sum();
    correct / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recovery_with_matching_histograms() {
        // Ciphertexts 10/11/12 with counts 50/30/20; plaintexts a/b/c with
        // model 5/3/2 — ranks align exactly.
        let observed = vec![(11u32, 30.0), (10, 50.0), (12, 20.0)];
        let model = vec![("c", 2.0), ("a", 5.0), ("b", 3.0)];
        let guesses = rank_match(&observed, &model);
        assert_eq!(guesses, vec![(10, "a"), (11, "b"), (12, "c")]);
    }

    #[test]
    fn accuracy_weighted_by_counts() {
        let observed = vec![(1u32, 90.0), (2, 10.0)];
        let model = vec![("x", 0.9), ("y", 0.1)];
        let guesses = rank_match(&observed, &model);
        // Truth: 1→x (correct, 90 obs), 2→x (wrong, 10 obs).
        let acc = weighted_accuracy(&guesses, |_| "x", &observed);
        assert!((acc - 0.9).abs() < 1e-9);
    }

    #[test]
    fn handles_size_mismatch() {
        let observed = vec![(1u32, 5.0)];
        let model = vec![("a", 3.0), ("b", 1.0)];
        assert_eq!(rank_match(&observed, &model), vec![(1, "a")]);
        let empty: Vec<(u32, f64)> = Vec::new();
        assert!(rank_match(&empty, &model).is_empty());
    }

    #[test]
    fn mle_property_on_sampled_data() {
        // Sample a Zipf-ish distribution; with enough samples the rank
        // match recovers the true mapping for well-separated ranks.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let probs = [0.5, 0.25, 0.12, 0.08, 0.05];
        // Secret substitution: plaintext p encrypts to ciphertext (p*7)%11.
        let enc = |p: usize| (p * 7) % 11;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut p = probs.len() - 1;
            for (i, &q) in probs.iter().enumerate() {
                acc += q;
                if u < acc {
                    p = i;
                    break;
                }
            }
            *counts.entry(enc(p)).or_insert(0.0) += 1.0;
        }
        let observed: Vec<(usize, f64)> = counts.into_iter().collect();
        let model: Vec<(usize, f64)> = probs.iter().copied().enumerate().collect();
        let guesses = rank_match(&observed, &model);
        for (ct, pt) in guesses {
            assert_eq!(enc(pt), ct, "plaintext {pt} should encrypt to {ct}");
        }
    }
}
