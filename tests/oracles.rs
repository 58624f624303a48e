//! Oracle tests: in degenerate configurations T-Mark must reduce exactly
//! to classical algorithms implemented independently in `tmark-markov`,
//! and in general it must agree with a naive dense transcription of
//! Algorithm 1.

use tmark::restart::{ica_refresh_restart, label_restart_vector};
use tmark::solver::{ClassStationary, FeatureWalk};
use tmark::{multirank, BatchSolver, BatchWorkspace, MultiRankConfig, TMarkConfig};
use tmark_feature_walk::feature_transition_matrix;
use tmark_hin::{Hin, HinBuilder};
use tmark_linalg::vector::l1_distance;
use tmark_linalg::DenseMatrix;
use tmark_markov::{random_walk_with_restart, PageRankConfig};
use tmark_sparse_tensor::{StochasticTensors, TensorBuilder};

/// A single-relation network whose aggregated chain we can feed to the
/// dense matrix oracles.
fn single_relation_hin() -> Hin {
    let mut b = HinBuilder::new(2, vec!["only".into()], vec!["a".into(), "b".into()]);
    for i in 0..8 {
        let f = if i < 4 {
            vec![1.0, 0.2]
        } else {
            vec![0.2, 1.0]
        };
        let v = b.add_node(f);
        b.set_label(v, usize::from(i >= 4)).unwrap();
    }
    for &(u, v) in &[
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 0),
    ] {
        b.add_undirected_edge(u, v, 0).unwrap();
    }
    b.build().unwrap()
}

/// Column-stochastic dense transition matrix of the single relation.
fn dense_chain(hin: &Hin) -> DenseMatrix {
    let n = hin.num_nodes();
    let mut p = DenseMatrix::zeros(n, n);
    for e in hin.tensor().entries() {
        p.add_at(e.i, e.j, e.value);
    }
    p.normalize_columns_stochastic();
    p
}

#[test]
fn gamma_zero_single_relation_tmark_is_rwr_on_the_chain() {
    // With m = 1, z is the scalar 1 and O ×̄₁ x ×̄₃ z = P x, so TensorRrCc
    // with γ = 0 is exactly random walk with restart on P.
    let hin = single_relation_hin();
    let stoch = hin.stochastic_tensors();
    let config = TMarkConfig {
        gamma: 0.0,
        alpha: 0.8,
        epsilon: 1e-12,
        max_iterations: 2000,
        ..TMarkConfig::default().tensor_rrcc()
    };
    let w = FeatureWalk::from_dense(feature_transition_matrix(hin.features()));
    let out = solve_alone(&stoch, &w, &[0], &config, None);

    let p = dense_chain(&hin);
    let mut restart = vec![0.0; hin.num_nodes()];
    restart[0] = 1.0;
    let rwr_config = PageRankConfig {
        alpha: 0.8,
        epsilon: 1e-12,
        max_iterations: 2000,
    };
    let (oracle, _) = random_walk_with_restart(&p, &restart, &rwr_config).unwrap();
    assert!(
        l1_distance(&out.x, &oracle) < 1e-8,
        "T-Mark(m=1, gamma=0) diverged from RWR: {:?} vs {:?}",
        out.x,
        oracle
    );
}

#[test]
fn multirank_with_one_relation_is_plain_power_iteration() {
    let hin = single_relation_hin();
    let stoch = hin.stochastic_tensors();
    let result = multirank(
        &stoch,
        &MultiRankConfig {
            epsilon: 1e-13,
            max_iterations: 5000,
        },
    );
    assert!(result.report.converged);
    // The single relation holds all the relevance mass.
    assert_eq!(result.relation_scores, vec![1.0]);
    // Node scores are the chain's stationary distribution.
    let p = dense_chain(&hin);
    let mapped = p.matvec(&result.node_scores).unwrap();
    assert!(
        l1_distance(&mapped, &result.node_scores) < 1e-8,
        "MultiRank node scores are not stationary under P"
    );
}

#[test]
fn symmetric_single_relation_multirank_is_degree_proportional() {
    // For an undirected chain the stationary distribution of the simple
    // random walk is proportional to degree; our ring is 2-regular, so
    // MultiRank must be uniform.
    let hin = single_relation_hin();
    let stoch = StochasticTensors::from_tensor(hin.tensor());
    let result = multirank(&stoch, &MultiRankConfig::default());
    let n = hin.num_nodes() as f64;
    for &s in &result.node_scores {
        assert!(
            (s - 1.0 / n).abs() < 1e-6,
            "ring stationary not uniform: {s}"
        );
    }
}

/// Algorithm 1 for one class through the library: the `q = 1` batch.
fn solve_alone(
    stoch: &StochasticTensors,
    w: &FeatureWalk,
    seeds: &[usize],
    config: &TMarkConfig,
    warm: Option<(Vec<f64>, Vec<f64>)>,
) -> ClassStationary {
    BatchSolver::new(stoch, w, *config)
        .solve(
            &[0],
            &[seeds.to_vec()],
            &[warm],
            &mut BatchWorkspace::default(),
        )
        .remove(0)
}

/// Sums `v` and rescales it onto the simplex (plain loops).
fn naive_normalize(v: &mut [f64]) {
    let total: f64 = v.iter().sum();
    for x in v.iter_mut() {
        *x /= total;
    }
}

/// A naive dense transcription of Algorithm 1 for one class, independent
/// of the compressed kernels: `O` and `R` are read entry by entry through
/// `o_get` / `r_get` (which apply the uniform dangling rule) and every
/// contraction is a plain triple loop.
///
/// ```text
/// x_t = (1 − α − β) · Σ_{j,k} o_{i,j,k} x_j z_k + β · (W x)_i + α · l_i   (Eq. 10)
/// z_t = Σ_{i,j} r_{i,j,k} x_i x_j                                         (Eq. 8)
/// ```
///
/// with both iterates renormalized onto the simplex and the restart `l`
/// refreshed by Eq. 12 from `ica_start_iteration` on. Returns `(x, z)`.
// Indexed loops mirror the equations' subscripts one to one.
#[allow(clippy::needless_range_loop)]
fn naive_algorithm_1(
    stoch: &StochasticTensors,
    w: &DenseMatrix,
    seeds: &[usize],
    config: &TMarkConfig,
    warm: Option<(Vec<f64>, Vec<f64>)>,
) -> (Vec<f64>, Vec<f64>) {
    let n = stoch.num_nodes();
    let m = stoch.num_relations();
    let (alpha, beta) = (config.alpha, config.beta());
    let rel_w = 1.0 - alpha - beta;
    let mut l = label_restart_vector(n, seeds);
    let (mut x, mut z) = match warm {
        Some((x0, z0)) => (x0, z0),
        // Cold start: the seed indicator, uniform when unseeded.
        None if seeds.is_empty() => (vec![1.0 / n as f64; n], vec![1.0 / m as f64; m]),
        None => (l.clone(), vec![1.0 / m as f64; m]),
    };
    naive_normalize(&mut x);
    naive_normalize(&mut z);
    for t in 1..=config.max_iterations {
        if config.ica_update && t >= config.ica_start_iteration {
            ica_refresh_restart(&x, seeds, config.lambda, &mut l);
        }
        let mut next_x = vec![0.0; n];
        for i in 0..n {
            let mut ox = 0.0;
            for j in 0..n {
                for k in 0..m {
                    ox += stoch.o_get(i, j, k) * x[j] * z[k];
                }
            }
            let mut wx = 0.0;
            for j in 0..n {
                wx += w.get(i, j) * x[j];
            }
            next_x[i] = rel_w * ox + beta * wx + alpha * l[i];
        }
        naive_normalize(&mut next_x);
        let mut next_z = vec![0.0; m];
        for (k, zk) in next_z.iter_mut().enumerate() {
            for i in 0..n {
                for j in 0..n {
                    *zk += stoch.r_get(i, j, k) * next_x[i] * next_x[j];
                }
            }
        }
        naive_normalize(&mut next_z);
        let residual = l1_distance(&next_x, &x) + l1_distance(&next_z, &z);
        x = next_x;
        z = next_z;
        if residual < config.epsilon {
            break;
        }
    }
    (x, z)
}

/// Two 3-node communities joined by one bridge edge of a second type;
/// features align with the communities.
fn community_fixture() -> (StochasticTensors, FeatureWalk) {
    let mut b = TensorBuilder::new(6, 2);
    for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_undirected(u, v, 0);
    }
    b.add_undirected(2, 3, 1);
    let stoch = StochasticTensors::from_tensor(&b.build().unwrap());
    let features = DenseMatrix::from_rows(&[
        vec![1.0, 0.0],
        vec![0.9, 0.1],
        vec![0.8, 0.2],
        vec![0.2, 0.8],
        vec![0.1, 0.9],
        vec![0.0, 1.0],
    ])
    .unwrap();
    let w = FeatureWalk::from_dense(feature_transition_matrix(&features));
    (stoch, w)
}

#[test]
fn algorithm_1_matches_a_naive_dense_reference() {
    let (stoch, w) = community_fixture();
    let wd = w.as_dense().expect("the fixture builds a dense walk");
    let ica_on = TMarkConfig {
        // Low enough that the refresh admits neighbours of the seed.
        lambda: 0.02,
        epsilon: 1e-13,
        max_iterations: 1000,
        ..TMarkConfig::default()
    };
    let ica_off = TMarkConfig {
        epsilon: 1e-13,
        max_iterations: 1000,
        ..TMarkConfig::default().tensor_rrcc()
    };
    let mut checked = 0;
    for config in [ica_on, ica_off] {
        for seeds in [vec![0], vec![3, 5], vec![]] {
            let got = solve_alone(&stoch, &w, &seeds, &config, None);
            let (x, z) = naive_algorithm_1(&stoch, wd, &seeds, &config, None);
            let gap = l1_distance(&got.x, &x) + l1_distance(&got.z, &z);
            assert!(
                gap <= 1e-9,
                "seeds {seeds:?}, ica {}: L1 gap {gap}",
                config.ica_update
            );
            checked += 1;
        }
    }
    // The ICA refresh must change the answer, or the ICA cases above
    // would not test Eq. 12 at all.
    let on = solve_alone(&stoch, &w, &[0], &ica_on, None);
    let off = solve_alone(&stoch, &w, &[0], &ica_off, None);
    assert!(l1_distance(&on.x, &off.x) > 1e-6);
    assert_eq!(checked, 6);
}

#[test]
fn warm_started_algorithm_1_matches_a_naive_dense_reference() {
    let (stoch, w) = community_fixture();
    let wd = w.as_dense().expect("the fixture builds a dense walk");
    let config = TMarkConfig {
        lambda: 0.02,
        epsilon: 1e-13,
        max_iterations: 1000,
        ..TMarkConfig::default()
    };
    // Warm-start class {3} from the stationary pair of class {0}: far
    // from its own fixed point, so the warm trajectory is exercised.
    let start = solve_alone(&stoch, &w, &[0], &config, None);
    let warm = Some((start.x.clone(), start.z.clone()));
    let got = solve_alone(&stoch, &w, &[3], &config, warm.clone());
    let (x, z) = naive_algorithm_1(&stoch, wd, &[3], &config, warm);
    let gap = l1_distance(&got.x, &x) + l1_distance(&got.z, &z);
    assert!(gap <= 1e-9, "warm start: L1 gap {gap}");
}
