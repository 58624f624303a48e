//! `paper-cold`: the paper's own experiment. Each pass fits the five
//! simulator datasets cold, each at its paper configuration, with a 30%
//! stratified label split. The dense `W` build dominates the pass.
//!
//! The datasets are generated from the repository's dataset seed, as in
//! the paper's tables; `--seed` draws the label splits.

use tmark::{FeatureWalkMode, TMarkModel};
use tmark_bench::{Dataset, DATA_SEED};

use crate::cold::{self, ColdInput, Setup};
use crate::probe::{self, Template};
use crate::{Opts, Outcome};

const DATASETS: [Dataset; 5] = [
    Dataset::Dblp,
    Dataset::Movies,
    Dataset::NusTagset1,
    Dataset::NusTagset2,
    Dataset::Acm,
];

/// Labelled share of every network.
const FRACTION: f64 = 0.3;

/// Set-ups per run, all before the first pass; the median is reported.
const SETUP_REPS: usize = 15;

fn setup(seed: u64) -> Setup {
    let mut generate_ms = 0.0;
    let inputs = DATASETS
        .iter()
        .map(|&d| {
            let (ms, hin) = probe::time_ms(|| d.load(DATA_SEED));
            generate_ms += ms;
            ColdInput {
                splits: cold::splits(&hin, FRACTION, seed),
                template: Template::new(hin),
                model: TMarkModel::new(d.tmark_config()),
                mode: FeatureWalkMode::Auto,
            }
        })
        .collect();
    Setup {
        inputs,
        generate_ms,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let (out, _, _) = cold::run(opts, SETUP_REPS, setup);
    out
}
