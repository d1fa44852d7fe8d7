//! Assignment problems: the Hungarian algorithm, plus the generic
//! weighted bipartite-matching recovery attack of Grubbs et al. (S&P'17)
//! that the paper invokes against Seabed's ORE and Arx's index.

/// Solves the min-cost assignment problem on an `n × m` cost matrix
/// (`n <= m`), returning for each row its assigned column.
///
/// O(n²m) Hungarian algorithm with potentials.
///
/// # Panics
///
/// Panics if the matrix is empty, ragged, or has more rows than columns.
pub fn min_cost_assignment(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    assert!(n > 0, "empty cost matrix");
    let m = cost[0].len();
    assert!(cost.iter().all(|r| r.len() == m), "ragged cost matrix");
    assert!(n <= m, "need rows <= columns");

    const INF: f64 = f64::INFINITY;
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1]; // Row matched to column j (0 = none).
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    assignment
}

/// Max-weight variant: maximizes the total weight instead.
pub fn max_weight_assignment(weight: &[Vec<f64>]) -> Vec<usize> {
    let neg: Vec<Vec<f64>> = weight
        .iter()
        .map(|r| r.iter().map(|w| -w).collect())
        .collect();
    min_cost_assignment(&neg)
}

/// The bipartite-matching recovery attack: left nodes are ciphertext
/// observations with a leakage feature vector, right nodes are candidate
/// plaintexts with model feature vectors; edges are weighted by a
/// log-likelihood score, and the best assignment is the adversary's
/// plaintext guess for every ciphertext.
///
/// `score(i, j)` must return the (higher = more plausible) affinity of
/// ciphertext `i` with candidate `j`. Returns the per-ciphertext guesses.
pub fn recovery_by_matching(
    num_ciphertexts: usize,
    num_candidates: usize,
    score: impl Fn(usize, usize) -> f64,
) -> Vec<usize> {
    let weight: Vec<Vec<f64>> = (0..num_ciphertexts)
        .map(|i| (0..num_candidates).map(|j| score(i, j)).collect())
        .collect();
    max_weight_assignment(&weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimal assignment for cross-checking.
    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>) -> f64 {
            if row == cost.len() {
                return 0.0;
            }
            let mut best = f64::INFINITY;
            for j in 0..cost[0].len() {
                if !used[j] {
                    used[j] = true;
                    let v = cost[row][j] + rec(cost, row + 1, used);
                    if v < best {
                        best = v;
                    }
                    used[j] = false;
                }
            }
            best
        }
        rec(cost, 0, &mut vec![false; cost[0].len()])
    }

    fn total(cost: &[Vec<f64>], assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .map(|(i, &j)| cost[i][j])
            .sum()
    }

    #[test]
    fn simple_known_case() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = min_cost_assignment(&cost);
        assert_eq!(total(&cost, &a), 5.0); // 1 + 2 + 2.
                                           // Valid permutation.
        let mut seen = [false; 3];
        for &j in &a {
            assert!(!seen[j]);
            seen[j] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..30 {
            let n = rng.gen_range(1..=6);
            let m = rng.gen_range(n..=7);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let a = min_cost_assignment(&cost);
            let opt = brute_force(&cost);
            assert!(
                (total(&cost, &a) - opt).abs() < 1e-9,
                "trial {trial}: got {} want {opt}",
                total(&cost, &a)
            );
        }
    }

    #[test]
    fn max_weight_is_negated_min_cost() {
        let w = vec![vec![1.0, 9.0], vec![9.0, 2.0]];
        let a = max_weight_assignment(&w);
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn rectangular_assignment() {
        let cost = vec![vec![5.0, 1.0, 5.0, 5.0]];
        assert_eq!(min_cost_assignment(&cost), vec![1]);
    }

    #[test]
    fn recovery_by_matching_prefers_high_scores() {
        // Ciphertext i should map to candidate i (score 10 on diagonal).
        let guesses = recovery_by_matching(4, 4, |i, j| if i == j { 10.0 } else { 0.0 });
        assert_eq!(guesses, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "rows <= columns")]
    fn too_many_rows_rejected() {
        min_cost_assignment(&[vec![1.0], vec![2.0]]);
    }
}
