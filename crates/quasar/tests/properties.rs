//! Property-based tests for the matrix-completion machinery.

use hcloud_quasar::matrix::{solve, Matrix, MatrixFactorization};
use hcloud_sim::rng::SimRng;
use proptest::prelude::*;

/// A random diagonally-dominant matrix (always invertible).
fn dominant_matrix(n: usize, entries: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut row_sum = 0.0;
        for c in 0..n {
            if r != c {
                let v = entries[(r * n + c) % entries.len()];
                m.set(r, c, v);
                row_sum += v.abs();
            }
        }
        m.set(r, r, row_sum + 1.0);
    }
    m
}

/// One-shot Gaussian elimination with partial pivoting on `[A | b]`,
/// the reference that `solve`'s eliminate-then-substitute must match bit
/// for bit. Its index loops are the library's former `solve`, operation
/// for operation.
#[allow(clippy::needless_range_loop)]
fn one_shot_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    let mut m = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m.get(r, col).abs()))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .expect("non-empty range");
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot_row, c));
                m.set(pivot_row, c, tmp);
            }
            x.swap(col, pivot_row);
        }
        for r in col + 1..n {
            let f = m.get(r, col) / m.get(col, col);
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m.get(r, c) - f * m.get(col, c);
                m.set(r, c, v);
            }
            x[r] -= f * x[col];
        }
    }
    for col in (0..n).rev() {
        let mut v = x[col];
        for c in col + 1..n {
            v -= m.get(col, c) * x[c];
        }
        x[col] = v / m.get(col, col);
    }
    Some(x)
}

/// Ridge fold-in through [`one_shot_solve`]: the normal equations built
/// and eliminated afresh for one row, a singular system giving the zero
/// latent vector.
#[allow(clippy::needless_range_loop)]
fn one_shot_fold_in(f: &MatrixFactorization, observed: &[(usize, f64)], ridge: f64) -> Vec<f64> {
    let v = f.item_factors();
    let rank = f.rank();
    let mut a = Matrix::zeros(rank, rank);
    let mut b = vec![0.0; rank];
    for &(col, y) in observed {
        for k1 in 0..rank {
            let vk1 = v.get(col, k1);
            b[k1] += vk1 * y;
            for k2 in 0..rank {
                let x = a.get(k1, k2) + vk1 * v.get(col, k2);
                a.set(k1, k2, x);
            }
        }
    }
    for k in 0..rank {
        let x = a.get(k, k) + ridge;
        a.set(k, k, x);
    }
    let w = one_shot_solve(&a, &b).unwrap_or_else(|| vec![0.0; rank]);
    (0..v.rows())
        .map(|j| (0..rank).map(|k| w[k] * v.get(j, k)).sum())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `solve` (eliminate once, then substitute) matches one-shot
    /// elimination of the augmented system bit for bit, on well- and
    /// ill-conditioned matrices alike, singular ones included.
    #[test]
    fn solve_matches_one_shot_elimination(
        n in 1usize..6,
        entries in prop::collection::vec(
            (0u8..4, -3.0f64..3.0).prop_map(|(z, v)| if z == 0 { 0.0 } else { v }),
            25,
        ),
        b in prop::collection::vec(-10.0f64..10.0, 5),
    ) {
        let a = Matrix::from_vec(n, n, entries[..n * n].to_vec());
        let got = solve(&a, &b[..n]);
        let want = one_shot_solve(&a, &b[..n]);
        prop_assert_eq!(got.as_deref().map(bits), want.as_deref().map(bits));
    }

    /// A fold-in prepared once for a column set and applied to many rows
    /// equals the one-shot fold-in of each row bit for bit, over random
    /// factorizations, column sets, observations and ridges. A zero
    /// ridge with fewer columns than the rank makes the system singular,
    /// so the zero-latent fallback is compared too.
    #[test]
    fn prepared_fold_in_matches_one_shot_fold_in(
        seed in any::<u64>(),
        rank in 1usize..5,
        columns in prop::collection::vec(0usize..10, 0..7),
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 7), 1..6),
        ridge in (0u8..3, 1e-6f64..1.0).prop_map(|(z, r)| if z == 0 { 0.0 } else { r }),
    ) {
        let mut rng = SimRng::from_seed_u64(seed);
        let mut r = Matrix::zeros(20, 10);
        r.randomize(1.0, &mut rng);
        let f = MatrixFactorization::train(&r, rank, 10, 0.05, 0.01, &mut rng);
        let fold = f.fold_in_at(&columns, ridge);
        for row in &rows {
            let values = &row[..columns.len()];
            let mut latent = vec![f64::NAN; rank];
            fold.latent(values, &mut latent);
            let prepared: Vec<f64> = (0..10).map(|j| f.reconstruct(&latent, j)).collect();
            let observed: Vec<(usize, f64)> =
                columns.iter().copied().zip(values.iter().copied()).collect();
            let want = one_shot_fold_in(&f, &observed, ridge);
            prop_assert_eq!(bits(&prepared), bits(&want));
            prop_assert_eq!(bits(&f.fold_in(&observed, ridge)), bits(&want));
        }
    }

    /// Gaussian elimination inverts well-conditioned systems: solving
    /// `A x = A·y` recovers `y`.
    #[test]
    fn solve_recovers_known_solutions(
        n in 1usize..6,
        entries in prop::collection::vec(-2.0f64..2.0, 36),
        y in prop::collection::vec(-10.0f64..10.0, 6),
    ) {
        let a = dominant_matrix(n, &entries);
        let y = &y[..n];
        // b = A·y
        let b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| a.get(r, c) * y[c]).sum())
            .collect();
        let x = solve(&a, &b).expect("diagonally dominant systems are solvable");
        for (xi, yi) in x.iter().zip(y) {
            prop_assert!((xi - yi).abs() < 1e-6, "{xi} vs {yi}");
        }
    }

    /// Fold-in always produces finite reconstructions, even for
    /// degenerate observations.
    #[test]
    fn fold_in_is_total(
        seed in any::<u64>(),
        observations in prop::collection::vec((0usize..10, -5.0f64..5.0), 0..8),
        ridge in 0.001f64..1.0,
    ) {
        let mut rng = SimRng::from_seed_u64(seed);
        let mut r = Matrix::zeros(20, 10);
        r.randomize(1.0, &mut rng);
        let f = MatrixFactorization::train(&r, 3, 20, 0.05, 0.01, &mut rng);
        let row = f.fold_in(&observations, ridge);
        prop_assert_eq!(row.len(), 10);
        prop_assert!(row.iter().all(|v| v.is_finite()));
    }

    /// Training reduces reconstruction error relative to the random
    /// initialization for genuinely low-rank data.
    #[test]
    fn training_learns_low_rank_structure(seed in 0u64..200) {
        let mut rng = SimRng::from_seed_u64(seed);
        // Rank-2 ground truth.
        let mut r = Matrix::zeros(30, 10);
        for i in 0..30 {
            for j in 0..10 {
                let a = ((i % 5) as f64) / 5.0;
                let b = ((i % 3) as f64) / 3.0;
                r.set(i, j, a * ((j % 4) as f64 / 4.0) + b * ((j % 2) as f64));
            }
        }
        let trained = MatrixFactorization::train(&r, 3, 120, 0.05, 0.005, &mut rng);
        let barely = MatrixFactorization::train(&r, 3, 1, 0.05, 0.005, &mut rng);
        prop_assert!(trained.rmse(&r) < barely.rmse(&r));
        prop_assert!(trained.rmse(&r) < 0.15, "rmse {}", trained.rmse(&r));
    }
}

/// No observations and no ridge leave the normal matrix zero: the system
/// is singular and the fold-in falls back to the zero latent vector.
#[test]
fn singular_fold_in_takes_the_zero_latent_fallback() {
    let mut rng = SimRng::from_seed_u64(3);
    let mut r = Matrix::zeros(20, 10);
    r.randomize(1.0, &mut rng);
    let f = MatrixFactorization::train(&r, 3, 10, 0.05, 0.01, &mut rng);
    let mut latent = vec![f64::NAN; 3];
    f.fold_in_at(&[], 0.0).latent(&[], &mut latent);
    assert_eq!(bits(&latent), bits(&[0.0; 3]));
    assert_eq!(
        bits(&f.fold_in(&[], 0.0)),
        bits(&one_shot_fold_in(&f, &[], 0.0))
    );
    assert!(f.fold_in(&[], 0.0).iter().all(|&v| v == 0.0));
}
