//! The cold-fit loop shared by `paper-cold` and `scale-ann`: each pass
//! fits every input once on a never-fitted copy of its network, on one of
//! [`SPLITS`] label splits drawn from the run's seed.

use std::time::Instant;

use tmark::{FeatureWalkMode, TMarkModel, TMarkResult};
use tmark_hin::Hin;
use tmark_linalg::similarity::SimilarityMetric;

use crate::probe::{self, KernelTimes, LayerTimes, SplitMix, Template};
use crate::stats::Samples;
use crate::{Opts, Outcome};

/// Label splits per input. Passes cycle over them in whole cycles, so
/// that `accuracy` is a mean over several splits of one seed, which
/// varies far less from seed to seed than the accuracy of one split. The
/// heap peak is read after the first cycle, a fixed amount of work, so
/// that it does not creep with the number of passes the host fits into
/// the run.
pub const SPLITS: usize = 4;

/// A labelled set and the held-out nodes it is scored on.
pub struct Split {
    pub train: Vec<usize>,
    pub test: Vec<usize>,
}

/// The run's [`SPLITS`] stratified splits of `hin` with `fraction`
/// labelled. The first is the split `seed` itself draws.
pub fn splits(hin: &Hin, fraction: f64, seed: u64) -> Vec<Split> {
    (0..SPLITS as u64)
        .map(|i| {
            let s = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let (train, test) = tmark_datasets::stratified_split(hin, fraction, s);
            Split { train, test }
        })
        .collect()
}

/// One network a pass fits, with its splits and model.
pub struct ColdInput {
    pub template: Template,
    pub splits: Vec<Split>,
    pub model: TMarkModel,
    pub mode: FeatureWalkMode,
}

/// The inputs of one workload, as built by its set-up.
pub struct Setup {
    pub inputs: Vec<ColdInput>,
    /// Time spent in the dataset generators.
    pub generate_ms: f64,
}

/// The networks and fits of the last traced pass, for the probes that
/// follow the loop.
pub struct LastPass {
    pub nets: Vec<Hin>,
    pub results: Vec<TMarkResult>,
    /// Index of the split the pass fitted.
    pub split: usize,
}

/// Runs `setup` `setup_reps` times, keeping only the last result, then
/// whole cycles of cold passes over the splits until `--seconds` have
/// elapsed. With `--trace 1`, passes alternate between a traced pass,
/// which times each layer separately, and a plain pass on the same split,
/// against which `trace.overhead` is taken.
pub fn run(
    opts: &Opts,
    setup_reps: usize,
    setup: impl Fn(u64) -> Setup,
) -> (Outcome, Vec<ColdInput>, Option<LastPass>) {
    let mut out = Outcome::default();
    let mut setup_s = Samples::new();
    let mut generate_ms = Samples::new();
    let mut timed_setup = || {
        let (ms, built) = probe::time_ms(|| setup(opts.seed));
        setup_s.push(ms / 1e3);
        generate_ms.push(built.generate_ms);
        built.inputs
    };
    // Every set-up runs before the first pass, and each result is dropped
    // before the next set-up starts, so that the heap peak holds one copy
    // of the inputs and no set-up runs inside the timed loop.
    let mut inputs = Vec::new();
    for _ in 0..setup_reps.max(1) {
        drop(std::mem::take(&mut inputs));
        inputs = timed_setup();
    }

    // Every split of an input holds the same number of held-out nodes.
    let test_nodes: usize = inputs.iter().map(|i| i.splits[0].test.len()).sum();
    // Per input: plain fit, then the three traced layers.
    let mut fit_ms = vec![Samples::new(); inputs.len()];
    let mut layer_ms = vec![<[Samples; 3]>::default(); inputs.len()];
    // Per split: the first pass's fits, against which later passes on the
    // split are checked.
    let mut first: Vec<Option<Vec<TMarkResult>>> = vec![None; SPLITS];
    let (mut accuracy, mut iterations) = (0.0, 0.0);
    let mut agreement = 1.0f64;
    let mut last = None;
    let stride = if opts.trace { 2 } else { 1 };
    let cycle = stride * SPLITS;
    let started = Instant::now();
    let mut pass = 0usize;
    while pass < cycle
        || !pass.is_multiple_of(cycle)
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        let traced = opts.trace && pass.is_multiple_of(2);
        let split = (pass / stride) % SPLITS;
        pass += 1;
        // Fresh copies are made before any clock starts.
        let nets: Vec<Hin> = inputs.iter().map(|i| i.template.fresh()).collect();
        let mut results = Vec::with_capacity(nets.len());
        for (slot, (input, hin)) in inputs.iter().zip(&nets).enumerate() {
            out.attempted += 1;
            let train = &input.splits[split].train;
            let fitted = if traced {
                probe::traced_fit(hin, &input.model, input.mode, train).map(
                    |(t, r): (LayerTimes, _)| {
                        let [o, w, s] = &mut layer_ms[slot];
                        o.push(t.from_tensor_ms);
                        w.push(t.build_ms);
                        s.push(t.solve_ms);
                        r
                    },
                )
            } else {
                let (ms, r) = probe::time_ms(|| input.model.fit(hin, train));
                fit_ms[slot].push(ms);
                r.map_err(|e| format!("fit: {e}"))
            };
            match fitted {
                Ok(r) if probe::confidences_valid(&r) => results.push(r),
                Ok(_) => out.fail("fit returned confidences off the simplex"),
                Err(e) => out.fail(e),
            }
        }
        if pass == cycle {
            out.set("peak_heap_mb", probe::peak_heap_mb());
        }
        if results.len() != nets.len() {
            continue;
        }
        match &first[split] {
            None => {
                let acc = inputs
                    .iter()
                    .zip(&nets)
                    .zip(&results)
                    .map(|((i, h), r)| {
                        let test = &i.splits[split].test;
                        tmark_eval::metrics::accuracy(h, r.confidences(), test)
                    })
                    .sum::<f64>();
                accuracy += acc / (inputs.len() * SPLITS) as f64;
                let its: usize = results.iter().map(probe::total_iterations).sum();
                iterations += its as f64 / SPLITS as f64;
                first[split] = Some(results.clone());
            }
            Some(reference) => {
                // Every pass on a split fits the same state from scratch,
                // so its answers must match the split's first pass, bit
                // for bit.
                for ((a, b), hin) in reference.iter().zip(&results).zip(&nets) {
                    let all: Vec<usize> = (0..hin.num_nodes()).collect();
                    agreement = agreement.min(probe::argmax_agreement(a, b, &all));
                    if !probe::bitwise_equal(a, b) {
                        out.break_run(format!("pass {pass} diverged from the split's first pass"));
                    }
                }
            }
        }
        if traced {
            last = Some(LastPass {
                nets,
                results,
                split,
            });
        }
    }
    out.set_median("setup_s", &setup_s, 1.0);
    out.set_median("datasets.generate_ms", &generate_ms, 1.0);
    out.detail("passes", pass.to_string());
    out.detail("solver_iterations", crate::json_num(iterations));
    out.set("accuracy", accuracy);
    out.set("served_agreement", agreement);

    // A pass's time is the sum over its inputs of each input's median fit.
    let fit_total_ms = sum_of_medians(&mut out, "fit_s", fit_ms.iter(), 1e-3);
    if let Some(ms) = fit_total_ms {
        out.set("requests_per_s", test_nodes as f64 / (ms / 1e3));
        out.samples.insert("requests_per_s", fit_ms[0].len());
    }
    if opts.trace {
        let from_tensor = sum_of_medians(
            &mut out,
            "sparse_tensor.from_tensor_ms",
            layer_ms.iter().map(|l| &l[0]),
            1.0,
        );
        let build = sum_of_medians(
            &mut out,
            "feature_walk.build_ms",
            layer_ms.iter().map(|l| &l[1]),
            1.0,
        );
        let solve = sum_of_medians(
            &mut out,
            "solver.solve_ms",
            layer_ms.iter().map(|l| &l[2]),
            1.0,
        );
        out.set("solver.iterations", iterations);
        if let (Some(o), Some(w), Some(s), Some(f)) = (from_tensor, build, solve, fit_total_ms) {
            let n = layer_ms.iter().map(|l| l[2].len()).min().unwrap_or(0);
            out.set_timing("solver.per_iter_ms", s / iterations.max(1.0), n);
            out.set("trace.overhead", (o + w + s) / f - 1.0);
            out.detail("traced_pass_ms", crate::json_num(o + w + s));
        }
        if let Some(l) = last.as_mut() {
            probe_layers(&mut out, &inputs, l, opts.seed);
        }
    }
    (out, inputs, last)
}

/// Sets `name` to `scale` times the sum of the medians of `per_input`,
/// recording the smallest sample count, and returns the unscaled sum.
fn sum_of_medians<'a>(
    out: &mut Outcome,
    name: &'static str,
    per_input: impl Iterator<Item = &'a Samples>,
    scale: f64,
) -> Option<f64> {
    let mut total = 0.0;
    let mut count = usize::MAX;
    for s in per_input {
        total += s.median()?;
        count = count.min(s.len());
    }
    out.set(name, total * scale);
    out.samples.insert(name, count);
    Some(total)
}

/// Operator sizes, kernel times and walk recall over the networks of the
/// last traced pass (sizes and times summed, recall averaged over
/// inputs), then the `hin` mutation probe, which leaves those networks
/// mutated.
fn probe_layers(out: &mut Outcome, inputs: &[ColdInput], last: &mut LastPass, seed: u64) {
    let mut kernels = KernelTimes::default();
    let (mut nnz, mut o_bytes, mut r_bytes, mut w_nnz) = (0, 0, 0, 0);
    let mut recall = 0.0;
    for ((input, hin), result) in inputs.iter().zip(&last.nets).zip(&last.results) {
        let stoch = hin.stochastic_tensors_ref();
        let walk = hin.feature_walk(input.mode, SimilarityMetric::Cosine);
        let sizes = stoch.entry_byte_sizes();
        nnz += stoch.nnz();
        o_bytes += sizes.o_path;
        r_bytes += sizes.r_path;
        w_nnz += probe::walk_nnz(&walk);
        recall += probe::recall_at_k(&walk, input.template.features(), seed) / inputs.len() as f64;
        match probe::kernel_times(stoch, &walk, result) {
            Ok(k) => kernels += k,
            Err(e) => out.break_run(e),
        }
    }
    out.set("sparse_tensor.nnz", nnz as f64);
    out.set("sparse_tensor.o_path_bytes", o_bytes as f64);
    out.set("sparse_tensor.r_path_bytes", r_bytes as f64);
    out.set("feature_walk.nnz", w_nnz as f64);
    out.set("feature_walk.recall_at_k", recall);
    kernels.report(out);

    let mut rng = SplitMix::new(seed);
    let (mut labels_us, mut edges_us) = (Samples::new(), Samples::new());
    for (input, hin) in inputs.iter().zip(last.nets.iter_mut()) {
        let test = &input.splits[last.split].test;
        let probed = probe::hin_probe(hin, test, &mut rng, &mut labels_us, &mut edges_us);
        if let Err(e) = probed {
            out.break_run(e);
        }
    }
    out.set_median("hin.add_labels_us", &labels_us, 1.0);
    out.set_median("hin.add_edges_us", &edges_us, 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_bench::Dataset;

    fn tiny(seed: u64) -> Setup {
        let hin = tmark_datasets::dblp::dblp_with_size(120, seed);
        Setup {
            inputs: vec![ColdInput {
                splits: splits(&hin, 0.3, seed),
                template: Template::new(hin),
                model: TMarkModel::new(Dataset::Dblp.tmark_config()),
                mode: FeatureWalkMode::Auto,
            }],
            generate_ms: 1.0,
        }
    }

    fn opts(trace: bool) -> Opts {
        Opts {
            workload: "test".into(),
            seed: 1,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn cold_workloads_never_emit_serving_metrics() {
        for trace in [false, true] {
            let (out, _, _) = run(&opts(trace), 2, tiny);
            assert!(!out.broken && out.failed == 0, "{:?}", out.errors);
            let cycle = if trace { 2 * SPLITS } else { SPLITS };
            assert_eq!(out.attempted, cycle);
            assert!(out.values.contains_key("peak_heap_mb"));
            for name in out.values.keys() {
                assert!(
                    !name.starts_with("serving."),
                    "{name} emitted on a cold workload"
                );
            }
        }
    }

    #[test]
    fn every_timing_states_its_sample_count() {
        let (out, _, _) = run(&opts(true), 2, tiny);
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            if out.values.contains_key(name) && crate::TIME_UNITS.contains(unit) {
                assert!(out.samples.contains_key(name), "{name} has no sample count");
            }
        }
        // Every per-layer timing is measured on every workload.
        for (name, unit) in crate::PER_LAYER {
            if crate::TIME_UNITS.contains(unit) && !name.starts_with("host.") {
                assert!(out.values.get(name).is_some_and(|&v| v > 0.0), "{name}");
            }
        }
        assert!(out.values["solver.iterations"] > 0.0);
    }
}
