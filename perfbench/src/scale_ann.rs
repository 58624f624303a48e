//! `scale-ann`: one cold fit per pass on a generated power-law network
//! with an approximate (SimHash LSH) feature walk. The ANN `W` build and
//! the chunked `(O, R)` build both carry real weight here.
//!
//! The network is the `bench_solver --scaling` recipe at 2·10⁴ nodes,
//! generated from the repository's dataset seed like every other bench
//! network; `--seed` draws the label splits.

use tmark::{AnnParams, FeatureWalkMode, TMarkConfig, TMarkModel, TMarkResult};
use tmark_bench::DATA_SEED;
use tmark_datasets::{PowerLawHinConfig, PowerLawRelationSpec};
use tmark_hin::Hin;
use tmark_linalg::pool::THREAD_CAP_ENV;

use crate::cold::{self, ColdInput, LastPass, Setup};
use crate::probe::{self, Template};
use crate::{Opts, Outcome};

const NODES: usize = 20_000;
const EDGES: usize = 200_000;
const CLASSES: usize = 4;
const FEATURE_DIM: usize = 16;
const LABEL_FRACTION: f64 = 0.1;
const ANN_K: usize = 8;

/// Set-ups per run, all before the first pass; the median is reported.
const SETUP_REPS: usize = 11;

/// The `bench_solver --scaling` generator recipe at one size.
pub fn generator(seed: u64) -> PowerLawHinConfig {
    PowerLawHinConfig {
        num_nodes: NODES,
        num_classes: CLASSES,
        relations: vec![
            PowerLawRelationSpec {
                name: "head".into(),
                num_edges: EDGES / 5 * 3,
                zipf_exponent: 0.8,
                homophily: 0.7,
            },
            PowerLawRelationSpec {
                name: "tail".into(),
                num_edges: EDGES / 5 * 2,
                zipf_exponent: 0.5,
                homophily: 0.2,
            },
        ],
        feature_dim: FEATURE_DIM,
        cluster_spread: 0.5,
        seed,
    }
}

fn mode() -> FeatureWalkMode {
    FeatureWalkMode::Ann {
        k: ANN_K,
        params: AnnParams {
            bands: 4,
            rows_per_band: 16,
            ..AnnParams::default()
        },
    }
}

fn config() -> TMarkConfig {
    TMarkConfig {
        alpha: 0.9,
        gamma: 0.5,
        lambda: 0.9,
        ..TMarkConfig::default()
    }
}

fn setup(seed: u64) -> Setup {
    let (generate_ms, hin) = probe::time_ms(|| generator(DATA_SEED).generate());
    Setup {
        inputs: vec![ColdInput {
            splits: cold::splits(&hin, LABEL_FRACTION, seed),
            template: Template::new(hin),
            model: TMarkModel::new(config()).with_feature_walk(mode()),
            mode: mode(),
        }],
        generate_ms,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let (mut out, inputs, last) = cold::run(opts, SETUP_REPS, setup);
    if let (Some(input), Some(last)) = (inputs.first(), last) {
        let LastPass {
            nets,
            results,
            split,
        } = last;
        drop(nets);
        cap2_speedup(&mut out, input, &input.splits[split].train, &results[0]);
    }
    out
}

/// `W` build plus solve at two solver threads against one, on a fresh
/// copy. The run's own cap is restored afterwards; the two-thread fit
/// must equal the one-thread fit bit for bit.
fn cap2_speedup(out: &mut Outcome, input: &ColdInput, train: &[usize], one_thread: &TMarkResult) {
    let timed = |cap: &str, out: &mut Outcome| -> Option<(f64, TMarkResult)> {
        std::env::set_var(THREAD_CAP_ENV, cap);
        let hin: Hin = input.template.fresh();
        match probe::traced_fit(&hin, &input.model, input.mode, train) {
            Ok((t, r)) => Some((t.build_ms + t.solve_ms, r)),
            Err(e) => {
                out.break_run(format!("cap {cap} probe: {e}"));
                None
            }
        }
    };
    let before = std::env::var(THREAD_CAP_ENV).ok();
    let one = timed("1", out);
    let two = timed("2", out);
    match before {
        Some(v) => std::env::set_var(THREAD_CAP_ENV, v),
        None => std::env::remove_var(THREAD_CAP_ENV),
    }
    if let (Some((t1, _)), Some((t2, r2))) = (one, two) {
        if !probe::bitwise_equal(one_thread, &r2) {
            out.break_run("the two-thread fit differs from the one-thread fit");
        }
        out.set_timing("pool.cap2_speedup", t1 / t2, 1);
    }
}
