//! MultiRank (Ng, Li & Ye, KDD 2011): the unsupervised co-ranking scheme
//! T-Mark generalizes.
//!
//! MultiRank seeks stationary probability distributions over nodes and
//! relations of a multi-relational network by iterating the *pure* tensor
//! equations — Eqs. (7) and (8) of the T-Mark paper without the restart
//! and feature terms:
//!
//! ```text
//! x̄ = O ×̄₁ x̄ ×̄₃ z̄
//! z̄ = R ×̄₁ x̄ ×̄₂ x̄
//! ```
//!
//! The related-work section positions T-Mark as MultiRank plus
//! (a) supervision via the restart vector and (b) node features via `W`;
//! having the base scheme in the library both provides the ranking
//! substrate (Section 2.2) and serves as a structural test oracle: T-Mark
//! must approach MultiRank as `α → 0`, `γ = 0`.

use tmark_linalg::vector;
use tmark_markov::ConvergenceReport;
use tmark_sparse_tensor::StochasticTensors;

/// Configuration for the MultiRank iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiRankConfig {
    /// Stop when `‖Δx‖₁ + ‖Δz‖₁ < epsilon`.
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for MultiRankConfig {
    fn default() -> Self {
        MultiRankConfig {
            epsilon: 1e-10,
            max_iterations: 500,
        }
    }
}

/// The MultiRank output: co-ranked stationary distributions.
#[derive(Debug, Clone)]
pub struct MultiRankResult {
    /// Stationary node importance (sums to one).
    pub node_scores: Vec<f64>,
    /// Stationary relation importance (sums to one).
    pub relation_scores: Vec<f64>,
    /// Convergence diagnostics.
    pub report: ConvergenceReport,
}

/// Runs the MultiRank iteration from the uniform start.
pub fn multirank(stoch: &StochasticTensors, config: &MultiRankConfig) -> MultiRankResult {
    let n = stoch.num_nodes();
    let m = stoch.num_relations();
    let mut x = vector::uniform(n);
    let mut z = vector::uniform(m);
    let mut next_x = vec![0.0; n];
    let mut next_z = vec![0.0; m];
    let mut trace = Vec::new();
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    for t in 1..=config.max_iterations {
        stoch
            .contract_o_multi_into(&x, &z, &mut next_x, 1)
            .expect("operand lengths fixed at construction");
        vector::normalize_sum_to_one(&mut next_x);
        stoch
            .contract_r_multi_into(&next_x, &mut next_z, 1)
            .expect("operand lengths fixed at construction");
        vector::normalize_sum_to_one(&mut next_z);
        // The MultiRank map shares Theorem 1's simplex-preservation.
        tmark_sparse_tensor::debug_assert_simplex!(
            &next_x,
            tmark_sparse_tensor::invariants::SIMPLEX_TOL,
            "MultiRank node iterate"
        );
        tmark_sparse_tensor::debug_assert_simplex!(
            &next_z,
            tmark_sparse_tensor::invariants::SIMPLEX_TOL,
            "MultiRank relation iterate"
        );
        residual = vector::l1_distance(&next_x, &x) + vector::l1_distance(&next_z, &z);
        trace.push(residual);
        x.copy_from_slice(&next_x);
        z.copy_from_slice(&next_z);
        iterations = t;
        if residual < config.epsilon {
            break;
        }
    }
    MultiRankResult {
        node_scores: x,
        relation_scores: z,
        report: ConvergenceReport {
            iterations,
            final_residual: residual,
            converged: residual < config.epsilon,
            residual_trace: trace,
            trace_truncated: 0,
        },
    }
}

/// The HAR output (Li, Ng & Ye, SDM 2012): hub/authority scores per node
/// plus relevance scores per relation.
#[derive(Debug, Clone)]
pub struct HarResult {
    /// Stationary hub scores (how well a node *points to* authorities).
    pub hub_scores: Vec<f64>,
    /// Stationary authority scores (how well a node is pointed to by
    /// hubs).
    pub authority_scores: Vec<f64>,
    /// Stationary relation relevance.
    pub relation_scores: Vec<f64>,
    /// Convergence diagnostics.
    pub report: ConvergenceReport,
}

/// Runs the HAR co-ranking iteration (the hub/authority/relevance
/// extension of MultiRank that the paper's related work cites as \[23\]):
///
/// ```text
/// authority: v ← O  ×̄₁ u ×̄₃ z     (flow along the links)
/// hub:       u ← Oᵀ ×̄₁ v ×̄₃ z     (flow against the links)
/// relevance: z ← R  with the (authority, hub) pair weights
/// ```
///
/// On symmetric networks hubs and authorities coincide with the MultiRank
/// node scores.
pub fn har(stoch: &StochasticTensors, config: &MultiRankConfig) -> HarResult {
    let n = stoch.num_nodes();
    let m = stoch.num_relations();
    let mut hub = vector::uniform(n);
    let mut auth = vector::uniform(n);
    let mut z = vector::uniform(m);
    let mut trace = Vec::new();
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let mut next_auth = vec![0.0; n];
    for t in 1..=config.max_iterations {
        stoch
            .contract_o_multi_into(&hub, &z, &mut next_auth, 1)
            .expect("operand lengths fixed at construction");
        vector::normalize_sum_to_one(&mut next_auth);
        let mut next_hub = stoch
            .contract_o_transpose(&next_auth, &z)
            .expect("operand lengths fixed at construction");
        vector::normalize_sum_to_one(&mut next_hub);
        let mut next_z = stoch
            .contract_r_pair(&next_auth, &next_hub)
            .expect("operand lengths fixed at construction");
        vector::normalize_sum_to_one(&mut next_z);
        // HAR iterates stay on the simplex for the same Theorem-1 reason.
        tmark_sparse_tensor::debug_assert_simplex!(
            &next_auth,
            tmark_sparse_tensor::invariants::SIMPLEX_TOL,
            "HAR authority iterate"
        );
        tmark_sparse_tensor::debug_assert_simplex!(
            &next_hub,
            tmark_sparse_tensor::invariants::SIMPLEX_TOL,
            "HAR hub iterate"
        );
        tmark_sparse_tensor::debug_assert_simplex!(
            &next_z,
            tmark_sparse_tensor::invariants::SIMPLEX_TOL,
            "HAR relevance iterate"
        );
        residual = vector::l1_distance(&next_auth, &auth)
            + vector::l1_distance(&next_hub, &hub)
            + vector::l1_distance(&next_z, &z);
        trace.push(residual);
        std::mem::swap(&mut auth, &mut next_auth);
        hub = next_hub;
        z = next_z;
        iterations = t;
        if residual < config.epsilon {
            break;
        }
    }
    HarResult {
        hub_scores: hub,
        authority_scores: auth,
        relation_scores: z,
        report: ConvergenceReport {
            iterations,
            final_residual: residual,
            converged: residual < config.epsilon,
            residual_trace: trace,
            trace_truncated: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_linalg::vector::is_stochastic;
    use tmark_sparse_tensor::TensorBuilder;

    /// A hub-and-spoke network: node 0 is linked to everyone via relation
    /// 0; relation 1 holds a single peripheral edge.
    fn hub_tensor() -> StochasticTensors {
        let mut b = TensorBuilder::new(6, 2);
        for v in 1..6 {
            b.add_undirected(0, v, 0);
        }
        b.add_undirected(4, 5, 1);
        StochasticTensors::from_tensor(&b.build().unwrap())
    }

    #[test]
    fn outputs_are_stochastic_and_converged() {
        let result = multirank(&hub_tensor(), &MultiRankConfig::default());
        assert!(result.report.converged);
        assert!(is_stochastic(&result.node_scores, 1e-8));
        assert!(is_stochastic(&result.relation_scores, 1e-8));
    }

    #[test]
    fn hub_node_ranks_first() {
        let result = multirank(&hub_tensor(), &MultiRankConfig::default());
        let top = tmark_linalg::vector::argmax(&result.node_scores).unwrap();
        assert_eq!(top, 0, "scores: {:?}", result.node_scores);
    }

    #[test]
    fn dominant_relation_ranks_first() {
        let result = multirank(&hub_tensor(), &MultiRankConfig::default());
        assert!(
            result.relation_scores[0] > result.relation_scores[1],
            "relation scores: {:?}",
            result.relation_scores
        );
    }

    #[test]
    fn result_is_a_fixed_point_of_the_tensor_equations() {
        let stoch = hub_tensor();
        let result = multirank(&stoch, &MultiRankConfig::default());
        let x = &result.node_scores;
        let z = &result.relation_scores;
        let mapped_x = stoch.contract_o(x, z).unwrap();
        let mapped_z = stoch.contract_r(x).unwrap();
        assert!(vector::l1_distance(&mapped_x, x) < 1e-7);
        assert!(vector::l1_distance(&mapped_z, z) < 1e-7);
    }

    #[test]
    fn iteration_cap_is_honoured() {
        let config = MultiRankConfig {
            epsilon: 1e-300,
            max_iterations: 5,
        };
        let result = multirank(&hub_tensor(), &config);
        assert!(result.report.iterations <= 5);
    }

    #[test]
    fn har_outputs_are_stochastic_and_converged() {
        let result = har(&hub_tensor(), &MultiRankConfig::default());
        assert!(result.report.converged);
        assert!(is_stochastic(&result.hub_scores, 1e-8));
        assert!(is_stochastic(&result.authority_scores, 1e-8));
        assert!(is_stochastic(&result.relation_scores, 1e-8));
    }

    #[test]
    fn har_on_symmetric_network_gives_equal_hub_and_authority() {
        // Undirected edges are stored both ways, so hub and authority
        // flows see the same structure.
        let result = har(&hub_tensor(), &MultiRankConfig::default());
        for (h, a) in result.hub_scores.iter().zip(&result.authority_scores) {
            assert!((h - a).abs() < 1e-6, "hub {h} vs authority {a}");
        }
    }

    #[test]
    fn har_separates_hubs_from_authorities_on_directed_stars() {
        // Node 0 points at everyone (pure hub); nodes 1..4 are pure
        // authorities. Edge u -> v stored as a_{v,u,k}.
        let mut b = TensorBuilder::new(5, 1);
        for v in 1..5 {
            b.add_directed(v, 0, 0);
        }
        let stoch = StochasticTensors::from_tensor(&b.build().unwrap());
        let result = har(&stoch, &MultiRankConfig::default());
        let hub_top = tmark_linalg::vector::argmax(&result.hub_scores).unwrap();
        assert_eq!(hub_top, 0, "hub scores: {:?}", result.hub_scores);
        let auth_top = tmark_linalg::vector::argmax(&result.authority_scores).unwrap();
        assert_ne!(
            auth_top, 0,
            "authority scores: {:?}",
            result.authority_scores
        );
    }

    #[test]
    fn symmetric_ring_gives_uniform_ranking() {
        let mut b = TensorBuilder::new(5, 1);
        for v in 0..5 {
            b.add_undirected(v, (v + 1) % 5, 0);
        }
        let stoch = StochasticTensors::from_tensor(&b.build().unwrap());
        let result = multirank(&stoch, &MultiRankConfig::default());
        for &s in &result.node_scores {
            assert!(
                (s - 0.2).abs() < 1e-6,
                "ring symmetry broken: {:?}",
                result.node_scores
            );
        }
    }
}
