//! Serial-vs-parallel bitwise determinism of the matvec kernels.
//!
//! `DenseMatrix::matvec_multi_into` and its `SparseMatrix` sibling
//! partition output rows over pool workers when the operand crosses the
//! internal work threshold. The contract is *exact*: every output element
//! is owned by one chunk and summed in a fixed order, so the parallel
//! result must be bit-for-bit `==` the cap-1 result at any thread cap —
//! these tests compare `f64::to_bits`, never a tolerance. They cover
//! `q = 1`, the single-vector product every iterative caller runs, and
//! `q > 1`, the class block of the batched solver. The adaptive work
//! threshold is forced down to 1 (`pool::set_parallel_work_threshold`) so
//! the parallel path really runs on these deliberately small fixtures.
//!
//! The thread cap, the work threshold and the worker gauge are process
//! globals, and the harness runs this binary's tests on concurrent
//! threads. A sibling that resets the gauge or drops the cap to 1
//! mid-test would defeat the "parallel path ran" proof
//! (`pool::peak_workers() >= 2`), so every test holds
//! [`pool_settings_lock`] while it touches those globals.

use std::sync::{Mutex, MutexGuard};

use tmark_linalg::pool;
use tmark_linalg::{DenseMatrix, SparseMatrix};

/// Serializes the tests of this binary that set the pool globals.
/// Poison-tolerant: one failed test must not fail the others.
fn pool_settings_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Forces every product in this binary through the partitioned path.
fn force_parallel() {
    pool::set_parallel_work_threshold(Some(1));
}

/// Thread caps under test: minimal parallelism and more workers than the
/// partition count of small outputs.
const CAPS: [usize; 3] = [2, 4, 7];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

fn unit(state: &mut u64) -> f64 {
    (lcg(state) % 10_000) as f64 / 10_000.0 - 0.5
}

/// A pseudo-random dense matrix.
fn big_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed;
    let mut a = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            a.set(r, c, unit(&mut state));
        }
    }
    a
}

/// A pseudo-random sparse matrix with at least `draws / 2` stored
/// entries (duplicates merge).
fn big_sparse(n: usize, draws: usize, seed: u64) -> SparseMatrix {
    let mut state = seed;
    let mut triplets = Vec::with_capacity(draws);
    for _ in 0..draws {
        let r = (lcg(&mut state) as usize) % n;
        let c = (lcg(&mut state) as usize) % n;
        triplets.push((r, c, 1.0 + unit(&mut state)));
    }
    SparseMatrix::from_triplets(n, n, &triplets).expect("coordinates in bounds")
}

fn dense_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len).map(|_| unit(&mut state)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `product(xs, ys)` at cap 1 and at every cap in [`CAPS`], asserting
/// bitwise equality and that the pool really ran at each cap.
fn assert_bitwise_across_caps(
    what: &str,
    x_len: usize,
    y_len: usize,
    seed: u64,
    product: impl Fn(&[f64], &mut [f64]),
) {
    let xs = dense_vec(x_len, seed);
    pool::set_thread_cap(Some(1));
    let mut ys_serial = vec![0.0; y_len];
    product(&xs, &mut ys_serial);

    for cap in CAPS {
        pool::set_thread_cap(Some(cap));
        pool::reset_peak_workers();
        let mut ys = vec![f64::NAN; y_len];
        product(&xs, &mut ys);
        // A spawned worker plus the caller: the partitioned path ran.
        assert!(
            pool::peak_workers() >= 2,
            "expected pool workers at cap {cap} ({what})"
        );
        assert_eq!(bits(&ys), bits(&ys_serial), "{what} diverged at cap {cap}");
    }
    pool::set_thread_cap(None);
}

#[test]
fn dense_matvec_into_is_bitwise_identical_across_thread_caps() {
    let _guard = pool_settings_lock();
    force_parallel();
    let (rows, cols) = (90, 70);
    let a = big_dense(rows, cols, 3);
    assert!(rows * cols >= 4096, "operand too small to parallelize");
    assert_bitwise_across_caps("dense matvec, q = 1", cols, rows, 5, |x, y| {
        a.matvec_multi_into(x, 1, y).unwrap();
    });
}

#[test]
fn dense_matvec_multi_into_is_bitwise_identical_across_thread_caps() {
    let _guard = pool_settings_lock();
    force_parallel();
    let (rows, cols, q) = (80, 64, 5);
    let a = big_dense(rows, cols, 7);
    assert_bitwise_across_caps("dense matvec, q = 5", cols * q, rows * q, 11, |xs, ys| {
        a.matvec_multi_into(xs, q, ys).unwrap();
    });
}

#[test]
fn sparse_matvec_into_is_bitwise_identical_across_thread_caps() {
    let _guard = pool_settings_lock();
    force_parallel();
    let n = 240;
    let a = big_sparse(n, 4000, 13);
    assert!(a.nnz() >= 2048, "matrix too small to parallelize");
    assert_bitwise_across_caps("sparse matvec, q = 1", n, n, 17, |x, y| {
        a.matvec_multi_into(x, 1, y).unwrap();
    });
}

#[test]
fn sparse_matvec_multi_into_is_bitwise_identical_across_thread_caps() {
    let _guard = pool_settings_lock();
    force_parallel();
    let (n, q) = (200, 4);
    let a = big_sparse(n, 4400, 19);
    assert!(a.nnz() >= 2048, "matrix too small to parallelize");
    assert_bitwise_across_caps("sparse matvec, q = 4", n * q, n * q, 23, |xs, ys| {
        a.matvec_multi_into(xs, q, ys).unwrap();
    });
}
