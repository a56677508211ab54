//! Dense matrices, SGD low-rank factorization, and fold-in.
//!
//! Quasar's classification is collaborative filtering: represent the
//! (jobs × measurements) matrix as a product of low-rank factors
//! `R ≈ U · Vᵀ`, learned by stochastic gradient descent; a new job with a
//! handful of observed measurements gets a latent vector by ridge-regressed
//! **fold-in** against the item factors, and the reconstruction
//! `u · Vᵀ` predicts its unobserved measurements.

#![allow(clippy::needless_range_loop)] // index-based math reads clearer here

use rand::Rng;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fills the matrix with small random values in `[-scale, scale)`
    /// (factor initialization).
    pub fn randomize<R: Rng + ?Sized>(&mut self, scale: f64, rng: &mut R) {
        for v in &mut self.data {
            *v = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
        }
    }
}

/// A square system `A x = b` eliminated once, for any number of
/// right-hand sides.
///
/// [`Elimination::of`] runs Gaussian elimination with partial pivoting
/// on `A` alone and records what it did: the pivot row of each column,
/// each multiplier, and the upper triangle. [`Elimination::substitute`]
/// then applies to a right-hand side the row swaps and updates the
/// elimination made, in the same order, and back-substitutes. Those are
/// exactly the floating-point operations eliminating the augmented
/// `[A | b]` applies to `b`, so every solution is bit-identical to a
/// one-shot elimination's.
#[derive(Debug, Clone, PartialEq)]
struct Elimination {
    /// The upper triangle on and above the diagonal. Below it, entry
    /// `(r, col)` is the multiplier step `col` applied to row `r`, in that
    /// step's row order (later swaps leave these columns in place).
    lu: Matrix,
    /// The row swapped into position `col` at step `col`.
    pivots: Vec<usize>,
}

impl Elimination {
    /// Eliminates `a`. Returns `None` if `a` is (numerically) singular.
    ///
    /// # Panics
    /// Panics if `a` is not square or holds a NaN.
    fn of(a: &Matrix) -> Option<Elimination> {
        let n = a.rows();
        assert_eq!(a.cols(), n, "solve needs a square matrix");
        let mut m = a.clone();
        let mut pivots = Vec::with_capacity(n);
        for col in 0..n {
            let (pivot_row, pivot_val) = (col..n)
                .map(|r| (r, m.get(r, col).abs()))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN in solve"))
                .expect("non-empty range");
            if pivot_val < 1e-12 {
                return None;
            }
            if pivot_row != col {
                for c in col..n {
                    let tmp = m.get(col, c);
                    m.set(col, c, m.get(pivot_row, c));
                    m.set(pivot_row, c, tmp);
                }
            }
            pivots.push(pivot_row);
            // Eliminate below, keeping each multiplier where it zeroed.
            for r in col + 1..n {
                let f = m.get(r, col) / m.get(col, col);
                m.set(r, col, f);
                if f == 0.0 {
                    continue;
                }
                for c in col + 1..n {
                    let v = m.get(r, c) - f * m.get(col, c);
                    m.set(r, c, v);
                }
            }
        }
        Some(Elimination { lu: m, pivots })
    }

    /// Solves for one right-hand side in place: `b` becomes `x`.
    ///
    /// # Panics
    /// Panics if `b`'s length is not the system's size.
    fn substitute(&self, b: &mut [f64]) {
        let n = self.pivots.len();
        assert_eq!(b.len(), n, "rhs length mismatch");
        for (col, &pivot_row) in self.pivots.iter().enumerate() {
            b.swap(col, pivot_row);
            for r in col + 1..n {
                let f = self.lu.get(r, col);
                if f != 0.0 {
                    b[r] -= f * b[col];
                }
            }
        }
        for col in (0..n).rev() {
            let mut v = b[col];
            for c in col + 1..n {
                v -= self.lu.get(col, c) * b[c];
            }
            b[col] = v / self.lu.get(col, col);
        }
    }
}

/// Solves the small dense system `A x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` if `A` is (numerically) singular.
///
/// # Panics
/// Panics if shapes disagree.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    let mut x = b.to_vec();
    Elimination::of(a)?.substitute(&mut x);
    Some(x)
}

/// Ridge fold-in against a fixed list of observed columns.
///
/// The normal equations `(Vₒᵀ Vₒ + λI) w = Vₒᵀ y` have a matrix that
/// depends only on which columns are observed, so it is built and
/// eliminated once; folding in a row is then one right-hand side
/// `Vₒᵀ y` and one substitution into the eliminated system.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldIn {
    /// The observed columns' item factors (`observed × rank`), in
    /// observation order.
    observed: Matrix,
    /// `None` when the normal equations are singular (e.g. no
    /// observations and no ridge): the latent vector is then zero.
    system: Option<Elimination>,
}

impl FoldIn {
    /// Writes into `latent` the latent vector of a row whose observed
    /// values are `values`, one per observed column, in order.
    ///
    /// # Panics
    /// Panics if `values` does not hold one value per observed column or
    /// `latent`'s length is not the rank.
    pub fn latent(&self, values: &[f64], latent: &mut [f64]) {
        assert_eq!(
            values.len(),
            self.observed.rows(),
            "one value per observed column"
        );
        assert_eq!(latent.len(), self.observed.cols(), "latent length mismatch");
        latent.fill(0.0);
        for (i, &y) in values.iter().enumerate() {
            for (b, &v) in latent.iter_mut().zip(self.observed.row(i)) {
                *b += v * y;
            }
        }
        match &self.system {
            Some(system) => system.substitute(latent),
            None => latent.fill(0.0),
        }
    }
}

/// A trained low-rank factorization `R ≈ U · Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixFactorization {
    /// Per-row latent factors (`rows × rank`).
    user_factors: Matrix,
    /// Per-column latent factors (`cols × rank`).
    item_factors: Matrix,
    rank: usize,
}

impl MatrixFactorization {
    /// Trains a rank-`rank` factorization of `r` by SGD.
    ///
    /// # Panics
    /// Panics if `rank` is zero or exceeds the smaller matrix dimension.
    pub fn train<R: Rng + ?Sized>(
        r: &Matrix,
        rank: usize,
        epochs: usize,
        learning_rate: f64,
        regularization: f64,
        rng: &mut R,
    ) -> MatrixFactorization {
        assert!(
            rank > 0 && rank <= r.rows().min(r.cols()),
            "invalid rank {rank}"
        );
        let mut u = Matrix::zeros(r.rows(), rank);
        let mut v = Matrix::zeros(r.cols(), rank);
        u.randomize(0.3, rng);
        v.randomize(0.3, rng);
        for _ in 0..epochs {
            for i in 0..r.rows() {
                for j in 0..r.cols() {
                    let pred: f64 = (0..rank).map(|k| u.get(i, k) * v.get(j, k)).sum();
                    let err = r.get(i, j) - pred;
                    for k in 0..rank {
                        let ui = u.get(i, k);
                        let vj = v.get(j, k);
                        u.set(i, k, ui + learning_rate * (err * vj - regularization * ui));
                        v.set(j, k, vj + learning_rate * (err * ui - regularization * vj));
                    }
                }
            }
        }
        MatrixFactorization {
            user_factors: u,
            item_factors: v,
            rank,
        }
    }

    /// The factorization rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The predicted value at `(row, col)` for a training row.
    pub fn predict(&self, row: usize, col: usize) -> f64 {
        (0..self.rank)
            .map(|k| self.user_factors.get(row, k) * self.item_factors.get(col, k))
            .sum()
    }

    /// Root-mean-square reconstruction error against the training matrix.
    pub fn rmse(&self, r: &Matrix) -> f64 {
        let mut sum = 0.0;
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                sum += (r.get(i, j) - self.predict(i, j)).powi(2);
            }
        }
        (sum / (r.rows() * r.cols()) as f64).sqrt()
    }

    /// The item factors (`cols × rank`).
    pub fn item_factors(&self) -> &Matrix {
        &self.item_factors
    }

    /// Prepares ridge fold-in against the observed `columns`: builds the
    /// normal matrix `Vₒᵀ Vₒ + λI` and eliminates it.
    ///
    /// # Panics
    /// Panics if a column is out of range.
    pub fn fold_in_at(&self, columns: &[usize], ridge: f64) -> FoldIn {
        let mut observed = Matrix::zeros(columns.len(), self.rank);
        let mut a = Matrix::zeros(self.rank, self.rank);
        for (i, &col) in columns.iter().enumerate() {
            assert!(
                col < self.item_factors.rows(),
                "observed column {col} out of range"
            );
            observed
                .row_mut(i)
                .copy_from_slice(self.item_factors.row(col));
            for k1 in 0..self.rank {
                let vk1 = self.item_factors.get(col, k1);
                for k2 in 0..self.rank {
                    let v = a.get(k1, k2) + vk1 * self.item_factors.get(col, k2);
                    a.set(k1, k2, v);
                }
            }
        }
        for k in 0..self.rank {
            let v = a.get(k, k) + ridge;
            a.set(k, k, v);
        }
        FoldIn {
            observed,
            system: Elimination::of(&a),
        }
    }

    /// The reconstructed value at column `col` of a row with latent
    /// vector `latent`.
    pub fn reconstruct(&self, latent: &[f64], col: usize) -> f64 {
        (0..self.rank)
            .map(|k| latent[k] * self.item_factors.get(col, k))
            .sum()
    }

    /// Folds in a new row from sparse observations `(col, value)` by ridge
    /// regression against the item factors, returning the full
    /// reconstructed row.
    ///
    /// If the normal equations are singular (e.g. zero observations and
    /// no ridge), the latent vector is zero and so is the row.
    pub fn fold_in(&self, observed: &[(usize, f64)], ridge: f64) -> Vec<f64> {
        let columns: Vec<usize> = observed.iter().map(|&(col, _)| col).collect();
        let values: Vec<f64> = observed.iter().map(|&(_, y)| y).collect();
        let mut latent = vec![0.0; self.rank];
        self.fold_in_at(&columns, ridge)
            .latent(&values, &mut latent);
        (0..self.item_factors.rows())
            .map(|j| self.reconstruct(&latent, j))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcloud_sim::rng::SimRng;

    fn rng() -> SimRng {
        SimRng::from_seed_u64(99)
    }

    /// A synthetic rank-2 matrix.
    fn low_rank_matrix(rows: usize, cols: usize) -> Matrix {
        let mut r = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let a = (i % 3) as f64 * 0.3 + 0.1;
                let b = (i % 2) as f64 * 0.4;
                let va = ((j * 7) % 5) as f64 / 5.0;
                let vb = ((j * 3) % 4) as f64 / 4.0;
                r.set(i, j, a * va + b * vb);
            }
        }
        r
    }

    #[test]
    fn matrix_get_set_rows() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        m.row_mut(0)[1] = 2.0;
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_needs_pivoting() {
        // First pivot is zero; partial pivoting must swap rows.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(&a, &[1.0, 2.0]), None);
    }

    #[test]
    fn factorization_reconstructs_low_rank_data() {
        let r = low_rank_matrix(60, 10);
        let f = MatrixFactorization::train(&r, 4, 200, 0.05, 0.005, &mut rng());
        let rmse = f.rmse(&r);
        assert!(rmse < 0.05, "rmse {rmse}");
    }

    #[test]
    fn fold_in_recovers_unobserved_entries() {
        let r = low_rank_matrix(60, 10);
        let f = MatrixFactorization::train(&r, 4, 200, 0.05, 0.005, &mut rng());
        // Take a row from the training data, observe 4 of its entries.
        let truth: Vec<f64> = r.row(7).to_vec();
        let observed: Vec<(usize, f64)> =
            [0usize, 3, 5, 8].iter().map(|&c| (c, truth[c])).collect();
        let reconstructed = f.fold_in(&observed, 0.05);
        let err: f64 = truth
            .iter()
            .zip(&reconstructed)
            .map(|(t, p)| (t - p).abs())
            .sum::<f64>()
            / truth.len() as f64;
        assert!(err < 0.08, "fold-in mean abs error {err}");
    }

    #[test]
    fn fold_in_with_no_observations_is_safe() {
        let r = low_rank_matrix(20, 10);
        let f = MatrixFactorization::train(&r, 3, 50, 0.05, 0.01, &mut rng());
        let row = f.fold_in(&[], 0.1);
        assert_eq!(row.len(), 10);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "invalid rank")]
    fn train_rejects_zero_rank() {
        let r = Matrix::zeros(5, 5);
        MatrixFactorization::train(&r, 0, 1, 0.1, 0.0, &mut rng());
    }
}
