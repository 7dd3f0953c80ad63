//! Property tests cross-validating the progressive decoder against the
//! batch Gauss–Jordan reference implementation.

use proptest::prelude::*;

use prlc_gf::{Gf16, Gf256, GfElem};

use crate::coeffrow::{CoeffRep, CoeffRow};
use crate::elim;
use crate::matrix::Matrix;
use crate::progressive::ProgressiveRref;

/// Strategy: a list of rows of the given width with entries biased toward
/// zero (sparse rows exercise support tracking and pivot placement).
fn rows_strategy(width: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<Gf256>>> {
    prop::collection::vec(
        prop::collection::vec(
            prop_oneof![
                3 => Just(0usize),
                2 => 0usize..256,
            ],
            width,
        ),
        0..=max_rows,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|r| r.into_iter().map(Gf256::from_index).collect())
            .collect()
    })
}

/// The columns the batch RREF of `rows` determines: a pivot column whose
/// row has no other nonzero.
fn batch_solved<F: GfElem>(rows: &[Vec<F>], width: usize) -> Vec<bool> {
    let red = elim::rref(&Matrix::from_rows(rows.to_vec()));
    let mut solved = vec![false; width];
    for (ri, &pc) in red.pivot_cols.iter().enumerate() {
        if red.matrix.row(ri).iter().filter(|v| !v.is_zero()).count() == 1 {
            solved[pc] = true;
        }
    }
    solved
}

/// Drives a progressive RREF with seeded rows and checks its solved
/// bookkeeping after *every* insert against the batch RREF of all rows
/// so far: `is_decoded` per column, `decoded_count`, `decoded_prefix`
/// and `newly_solved` (the batch-solved set difference, ascending).
///
/// `prefix_rows` draws PLC-shaped rows (nonzeros only below a random
/// support bound); otherwise entries are zero-biased across the whole
/// width. `sparse` feeds every row as a sparse `CoeffRow`.
fn check_solved_bookkeeping<F: GfElem>(seed: u64, width: usize, prefix_rows: bool, sparse: bool) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d: ProgressiveRref<F> = ProgressiveRref::new(width);
    let mut held: Vec<Vec<F>> = Vec::new();
    let mut before = vec![false; width];
    for _ in 0..2 * width {
        let support = if prefix_rows {
            rng.gen_range(1..=width)
        } else {
            width
        };
        let row: Vec<F> = (0..width)
            .map(|c| {
                if c >= support || (!prefix_rows && rng.gen_bool(0.5)) {
                    F::ZERO
                } else {
                    F::random(&mut rng)
                }
            })
            .collect();
        let coeffs = if sparse {
            let entries = row
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_zero())
                .map(|(i, &v)| (i as u32, v))
                .collect();
            CoeffRow::from_sorted_entries(width, entries)
        } else {
            CoeffRow::from_dense(row.clone())
        };
        d.insert_row(coeffs, ());
        held.push(row);

        let after = batch_solved(&held, width);
        for (c, &solved) in after.iter().enumerate() {
            prop_assert_eq!(
                d.is_decoded(c),
                solved,
                "seed {} column {} after {} rows",
                seed,
                c,
                held.len()
            );
        }
        let fresh: Vec<usize> = (0..width).filter(|&c| after[c] && !before[c]).collect();
        prop_assert_eq!(d.newly_solved(), fresh.as_slice());
        prop_assert_eq!(d.decoded_count(), after.iter().filter(|&&s| s).count());
        prop_assert_eq!(d.decoded_prefix(), after.iter().take_while(|&&s| s).count());
        before = after;
    }
}

/// Row shapes for [`check_support_never_widens`].
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// PLC-shaped: dense over `[0, b_k)` for a random level boundary.
    Plc,
    /// Dense over the whole width.
    Dense,
    /// Zero-biased over the whole width, fed as a sparse `CoeffRow`.
    Sparse,
}

/// Drives a progressive RREF with seeded rows of one shape and checks,
/// after *every* insert, that each stored row is zero at and past the
/// support it arrived with, and still pivots on the column it got on
/// arrival.
fn check_support_never_widens<F: GfElem>(seed: u64, width: usize, shape: Shape) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d: ProgressiveRref<F> = ProgressiveRref::new(width);
    // Arrival support of the row owning each pivot column.
    let mut arrival: Vec<Option<usize>> = vec![None; width];
    let boundaries: Vec<usize> = (1..=4).map(|k| (width * k).div_ceil(4)).collect();
    for _ in 0..2 * width {
        let support = match shape {
            Shape::Plc => boundaries[rng.gen_range(0..boundaries.len())],
            Shape::Dense | Shape::Sparse => width,
        };
        let row: Vec<F> = (0..width)
            .map(|c| {
                if c >= support || (matches!(shape, Shape::Sparse) && rng.gen_bool(0.7)) {
                    F::ZERO
                } else {
                    F::random(&mut rng)
                }
            })
            .collect();
        let tight = row.iter().rposition(|v| !v.is_zero()).map_or(0, |p| p + 1);
        let coeffs = match shape {
            Shape::Sparse => {
                let entries = row
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_zero())
                    .map(|(i, &v)| (i as u32, v))
                    .collect();
                CoeffRow::from_sorted_entries(width, entries)
            }
            Shape::Plc | Shape::Dense => CoeffRow::from_dense(row),
        };
        if let crate::InsertOutcome::Innovative { pivot } = d.insert_row(coeffs, ()) {
            prop_assert!(
                pivot < tight,
                "pivot {} outside arrival support {}",
                pivot,
                tight
            );
            arrival[pivot] = Some(tight);
        }
        let Some(m) = d.coefficient_matrix() else {
            continue;
        };
        // `coefficient_matrix` sorts rows by pivot.
        let pivots: Vec<(usize, usize)> = arrival
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.map(|s| (c, s)))
            .collect();
        prop_assert_eq!(pivots.len(), m.rows());
        for (r, &(pivot, support)) in pivots.iter().enumerate() {
            let last = m.row(r).iter().rposition(|v| !v.is_zero());
            prop_assert_eq!(last, Some(pivot), "seed {} row {} moved its pivot", seed, r);
            prop_assert!(
                m.row(r)[support..].iter().all(|v| v.is_zero()),
                "seed {} row {} widened past its arrival support {}:\n{:?}",
                seed,
                r,
                support,
                m
            );
        }
    }
}

/// A random row of `len` unknowns in a random representation, and its
/// plain-vector model: nonzeros at a random density, half the time only
/// below a random support bound (the PLC shape).
fn random_row<F: GfElem>(rng: &mut rand::rngs::StdRng, len: usize) -> (CoeffRow<F>, Vec<F>) {
    use rand::Rng;
    let rep = [CoeffRep::Dense, CoeffRep::Sparse][rng.gen_range(0..2usize)];
    let density = [0.02, 0.2, 0.6, 1.0][rng.gen_range(0..4usize)];
    let support = if rng.gen_bool(0.5) {
        rng.gen_range(0..=len)
    } else {
        len
    };
    let model: Vec<F> = (0..len)
        .map(|i| {
            if i < support && rng.gen_bool(density) {
                F::random_nonzero(rng)
            } else {
                F::ZERO
            }
        })
        .collect();
    (row_of(&model, rep), model)
}

fn row_of<F: GfElem>(model: &[F], rep: CoeffRep) -> CoeffRow<F> {
    match rep {
        CoeffRep::Dense => CoeffRow::dense_with(model.len(), |d| d.copy_from_slice(model)),
        CoeffRep::Sparse => {
            let entries = model
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_zero())
                .map(|(i, &v)| (i as u32, v))
                .collect();
            CoeffRow::from_sorted_entries(model.len(), entries)
        }
    }
}

fn hash_of<F: GfElem>(row: &CoeffRow<F>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// Every logical observable of `row` equals the model's, in both
/// representations; a dense row's padding is zero.
fn check_against_model<F: GfElem>(rng: &mut rand::rngs::StdRng, row: &CoeffRow<F>, model: &[F]) {
    use rand::Rng;
    let len = model.len();
    let nonzeros: Vec<(usize, F)> = model
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_zero())
        .map(|(i, &v)| (i, v))
        .collect();
    prop_assert_eq!(row.len(), len);
    prop_assert!(row.padding_is_zero(), "nonzero padding in {:?}", row);
    prop_assert_eq!(row.to_dense_vec(), model.to_vec());
    prop_assert_eq!(row.iter_nonzeros().collect::<Vec<_>>(), nonzeros.clone());
    prop_assert_eq!(row.nnz(), nonzeros.len());
    prop_assert_eq!(row.is_zero_row(), nonzeros.is_empty());
    let tight = nonzeros.last().map_or(0, |&(i, _)| i + 1);
    prop_assert!(tight <= row.support() && row.support() <= len);
    let storage = match row.rep() {
        CoeffRep::Dense => std::mem::size_of_val(model),
        CoeffRep::Sparse => nonzeros.len() * std::mem::size_of::<(u32, F)>(),
    };
    prop_assert_eq!(row.storage_bytes(), storage);
    let (i, end) = (rng.gen_range(0..len), rng.gen_range(0..=len));
    prop_assert_eq!(row.get(i), model[i]);
    prop_assert_eq!(
        row.last_nonzero_before(end),
        model[..end].iter().rposition(|v| !v.is_zero())
    );
    prop_assert_eq!(
        row.count_nonzeros_from(end),
        model[end..].iter().filter(|v| !v.is_zero()).count()
    );
    for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
        let fresh = row_of(model, rep);
        prop_assert_eq!(row, &fresh);
        prop_assert_eq!(hash_of(row), hash_of(&fresh));
        prop_assert_eq!(format!("{:?}", row), format!("{:?}", fresh));
    }
}

/// Drives one row through a random sequence of every `CoeffRow`
/// operation, against a plain `Vec<F>` model, checking every logical
/// observable after each step. Lengths cross multiples of the kernel
/// block, so the whole-block lowering runs on one to four blocks, and
/// the operand rows come in both representations.
fn check_row_ops_match_model<F: GfElem>(seed: u64, len: usize) {
    use prlc_gf::kernel::RowKernel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let kernel = RowKernel::active();
    let (mut row, mut model) = random_row::<F>(&mut rng, len);
    check_against_model(&mut rng, &row, &model);
    for _ in 0..16 {
        match rng.gen_range(0..8) {
            0 => {
                let (i, delta) = (rng.gen_range(0..len), F::random(&mut rng));
                row.add_assign_at(i, delta);
                model[i] = model[i].gf_add(delta);
            }
            op @ (1 | 2) => {
                let (other, omodel) = random_row::<F>(&mut rng, len);
                let factor = F::random(&mut rng);
                if op == 1 {
                    row.axpy(factor, &other, &kernel);
                } else {
                    row.axpy_full(factor, &other);
                }
                for (m, o) in model.iter_mut().zip(&omodel) {
                    *m = m.gf_add(factor.gf_mul(*o));
                }
            }
            3 => {
                let c = F::random_nonzero(&mut rng);
                row.scale(c, &kernel);
                for m in &mut model {
                    *m = m.gf_mul(c);
                }
            }
            4 => row.densify(),
            5 => row.normalize_support(),
            6 => {
                let tight = model
                    .iter()
                    .rposition(|v| !v.is_zero())
                    .map_or(0, |p| p + 1);
                row.shrink_support(tight + rng.gen_range(0..3usize));
            }
            _ => {
                let start = rng.gen_range(0..=len);
                let end = rng.gen_range(start..=len);
                let part = row.project(start..end);
                prop_assert_eq!(part.rep(), row.rep());
                if start < end {
                    check_against_model(&mut rng, &part, &model[start..end]);
                }
            }
        }
        check_against_model(&mut rng, &row, &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CoeffRow` against a plain-vector model over lengths 1..=200, on
    /// GF(2⁸) (the whole-block SIMD lowering) and GF(2⁴) (the generic
    /// per-symbol lowering, where cancellation is common).
    #[test]
    fn coeff_row_ops_match_a_vec_model(
        seed in 0u64..1_000_000,
        len in 1usize..=200,
        wide_field in any::<bool>(),
    ) {
        if wide_field {
            check_row_ops_match_model::<Gf256>(seed, len);
        } else {
            check_row_ops_match_model::<Gf16>(seed, len);
        }
    }

    /// GF(2⁴): entries cancel with probability 1/16, so back-elimination
    /// often zeroes a row's witness column, forcing the rescan, and
    /// solves rows by cancellation.
    #[test]
    fn solved_bookkeeping_matches_batch_after_every_insert_gf16(
        seed in 0u64..1_000_000,
        width in 1usize..12,
        prefix_rows in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        check_solved_bookkeeping::<Gf16>(seed, width, prefix_rows, sparse);
    }

    #[test]
    fn solved_bookkeeping_matches_batch_after_every_insert_gf256(
        seed in 0u64..1_000_000,
        width in 1usize..12,
        prefix_rows in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        check_solved_bookkeeping::<Gf256>(seed, width, prefix_rows, sparse);
    }

    /// Lemma 2 in code: elimination never widens a row past the support
    /// it arrived with, for PLC-shaped, dense and sparse rows. GF(2⁴)
    /// makes cancellation, and so witness rescans, common.
    #[test]
    fn stored_rows_never_widen_past_arrival_support(
        seed in 0u64..1_000_000,
        width in 1usize..14,
        shape in prop_oneof![Just(Shape::Plc), Just(Shape::Dense), Just(Shape::Sparse)],
        wide_field in any::<bool>(),
    ) {
        if wide_field {
            check_support_never_widens::<Gf256>(seed, width, shape);
        } else {
            check_support_never_widens::<Gf16>(seed, width, shape);
        }
    }

    #[test]
    fn progressive_rank_equals_batch_rank(
        rows in rows_strategy(8, 16)
    ) {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(8);
        for r in &rows {
            d.insert(r.clone(), ());
        }
        if rows.is_empty() {
            prop_assert_eq!(d.rank(), 0);
        } else {
            let m = Matrix::from_rows(rows);
            prop_assert_eq!(d.rank(), elim::rank(&m));
        }
    }

    #[test]
    fn progressive_state_is_always_rref(
        rows in rows_strategy(7, 12)
    ) {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(7);
        for r in &rows {
            d.insert(r.clone(), ());
            if let Some(m) = d.coefficient_matrix() {
                prop_assert!(m.is_reverse_rref(), "not reverse RREF after insert:\n{:?}", m);
            }
        }
    }

    #[test]
    fn decoded_columns_match_batch_rref_solvability(
        rows in rows_strategy(6, 10)
    ) {
        // A column is decodable iff in the batch RREF its pivot row has a
        // single nonzero entry. Cross-check against the incremental
        // solved-flag bookkeeping.
        prop_assume!(!rows.is_empty());
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(6);
        for r in &rows {
            d.insert(r.clone(), ());
        }
        let batch_solved = batch_solved(&rows, 6);
        for (c, &solved) in batch_solved.iter().enumerate() {
            prop_assert_eq!(
                d.is_decoded(c),
                solved,
                "column {} disagreement", c
            );
        }
        let batch_prefix = batch_solved.iter().take_while(|&&s| s).count();
        prop_assert_eq!(d.decoded_prefix(), batch_prefix);
    }

    #[test]
    fn rank_never_exceeds_inserts_or_width(
        rows in rows_strategy(5, 20)
    ) {
        let mut d: ProgressiveRref<Gf256> = ProgressiveRref::new(5);
        for r in &rows {
            d.insert(r.clone(), ());
        }
        prop_assert!(d.rank() <= 5);
        prop_assert!(d.rank() <= rows.len());
        prop_assert!(d.decoded_count() <= d.rank());
        prop_assert!(d.decoded_prefix() <= d.decoded_count());
    }

    #[test]
    fn payload_tracking_solves_the_system(
        seed in 0u64..1000,
        n in 2usize..8,
    ) {
        // Generate random full systems and verify payload recovery equals
        // the true solution for every decoded column, even mid-decode.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<Vec<Gf256>> = (0..n)
            .map(|_| vec![Gf256::random(&mut rng), Gf256::random(&mut rng)])
            .collect();
        let mut d: ProgressiveRref<Gf256, Vec<Gf256>> = ProgressiveRref::new(n);
        for _ in 0..(2 * n) {
            let coeffs: Vec<Gf256> = (0..n).map(|_| Gf256::random(&mut rng)).collect();
            let mut payload = vec![Gf256::ZERO; 2];
            for (c, s) in coeffs.iter().zip(&sources) {
                Gf256::axpy(&mut payload, *c, s);
            }
            d.insert(coeffs, payload);
            for (c, s) in sources.iter().enumerate() {
                if let Some(p) = d.recovered(c) {
                    prop_assert_eq!(p, s, "column {}", c);
                }
            }
        }
    }

    #[test]
    fn batch_rref_idempotent(rows in rows_strategy(6, 9)) {
        prop_assume!(!rows.is_empty());
        let m = Matrix::from_rows(rows);
        let r1 = elim::rref(&m);
        let r2 = elim::rref(&r1.matrix);
        prop_assert_eq!(&r1.matrix, &r2.matrix);
        prop_assert_eq!(r1.rank, r2.rank);
    }

    #[test]
    fn solve_agrees_with_known_solution_gf16(
        seed in 0u64..500,
        n in 1usize..6,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<Gf16>::random(n + 2, n, &mut rng);
        let x: Vec<Gf16> = (0..n).map(|_| Gf16::random(&mut rng)).collect();
        let b = a.mul_vec(&x);
        match elim::solve(&a, &b) {
            elim::SolveOutcome::Unique(got) => prop_assert_eq!(got, x),
            elim::SolveOutcome::Underdetermined => {
                prop_assert!(elim::rank(&a) < n);
            }
            elim::SolveOutcome::Inconsistent => {
                // b was constructed in the column space; impossible.
                prop_assert!(false, "consistent system reported inconsistent");
            }
        }
    }

    /// Feeding the same rows as dense vectors and as sparse entry lists
    /// must drive the progressive RREF through identical states: same
    /// insert outcomes (pivot columns), same `newly_solved` order, same
    /// decoded prefix after every insert — across random widths and
    /// zero-biased (level-structured) row mixes.
    #[test]
    fn dense_and_sparse_rows_agree_through_progressive_rref(
        rows in rows_strategy(9, 14)
    ) {
        let width = 9;
        let mut dense: ProgressiveRref<Gf256> = ProgressiveRref::new(width);
        let mut sparse: ProgressiveRref<Gf256> = ProgressiveRref::new(width);
        for r in &rows {
            let d_out = dense.insert(r.clone(), ());
            let entries: Vec<(u32, Gf256)> = r
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_zero())
                .map(|(i, &v)| (i as u32, v))
                .collect();
            let s_out = sparse.insert_row(CoeffRow::from_sorted_entries(width, entries), ());
            prop_assert_eq!(&d_out, &s_out, "insert outcomes diverged on {:?}", r);
            prop_assert_eq!(dense.rank(), sparse.rank());
            prop_assert_eq!(dense.decoded_prefix(), sparse.decoded_prefix());
            prop_assert_eq!(dense.decoded_count(), sparse.decoded_count());
        }
        prop_assert_eq!(dense.coefficient_matrix(), sparse.coefficient_matrix());
    }
}
