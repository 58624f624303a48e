//! `serve-mutate`: a `ServingSession` on DBLP at its paper configuration,
//! driven by one closed-loop client. Every write is followed by a fixed
//! number of reads (the `bench_serving` mix); the first read after a
//! write pays for the warm re-solve. Writes alternate between label reveals and value-only edge
//! re-weights, which patch `(O, R)` in place, so `W` and the tensor stay
//! built and the re-solve is the whole refit.
//!
//! DBLP is generated from the repository's dataset seed; `--seed` draws
//! a few plans, each a label split and a write plan. The run cycles over
//! the plans. An episode is a fresh session on the network that opens
//! with a cold fit and then replays one plan, so that the final states,
//! and every count taken from them, depend on the seed only and not on
//! how many cycles fit in `--seconds`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tmark::{FeatureWalkMode, ServingSession, ServingStats, TMarkModel};
use tmark_bench::{Dataset, DATA_SEED};
use tmark_linalg::similarity::SimilarityMetric;

use crate::probe::{self, KernelTimes, LayerTimes, SplitMix, Template, LABELS_PER_WRITE};
use crate::stats::Samples;
use crate::{json_num, Opts, Outcome};

const DATASET: Dataset = Dataset::Dblp;
/// Labelled share of the network when a session starts.
const FRACTION: f64 = 0.3;
/// Plans per run, so that a run's figures average over several splits.
const PLANS: usize = 4;
/// Writes per episode, alternating label reveals and re-weights.
const WRITES_PER_EPISODE: usize = 20;
/// Nodes per `classify_batch` read.
const BATCH: usize = 8;
/// Reads per write; the first pays for the refit. This is the request
/// mix of the repository's `bench_serving` trace: one write every 320
/// node requests, i.e. 40 batches of 8.
const READS_PER_WRITE: usize = 320 / BATCH;
/// Fewest writes in a run, so that the refit p90 has ten samples beyond it.
const MIN_WRITES: usize = 100;
/// Set-ups per run, all before the first episode; the median is reported.
const SETUP_REPS: usize = 15;

#[derive(Debug, Clone)]
enum Write {
    Labels(Vec<(usize, usize)>),
    Reweight(Vec<(usize, usize, usize, f64)>),
}

/// One label split and the writes replayed on top of it.
struct Plan {
    train: Vec<usize>,
    /// Held-out nodes never revealed: read targets and the accuracy set.
    eval: Vec<usize>,
    writes: Vec<Write>,
}

/// The served network and the plans of one run.
struct Served {
    template: Template,
    model: TMarkModel,
    plans: Vec<Plan>,
}

/// The seed of plan `i` of a run.
fn plan_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(PLANS as u64).wrapping_add(i as u64)
}

/// Generates the network and draws the run's plans; returns the time
/// spent in the generator.
fn served(seed: u64) -> (f64, Served) {
    let (generate_ms, hin) = probe::time_ms(|| DATASET.load(DATA_SEED));
    let splits: Vec<_> = (0..PLANS)
        .map(|i| {
            let s = plan_seed(seed, i);
            (s, tmark_datasets::stratified_split(&hin, FRACTION, s))
        })
        .collect();
    let template = Template::new(hin);
    let plans = splits
        .into_iter()
        .map(|(s, (train, held_out))| plan(&template, s, train, held_out))
        .collect();
    let served = Served {
        template,
        model: TMarkModel::new(DATASET.tmark_config()),
        plans,
    };
    (generate_ms, served)
}

fn plan(template: &Template, seed: u64, train: Vec<usize>, mut held_out: Vec<usize>) -> Plan {
    let mut rng = SplitMix::new(seed ^ 0x5e55_1011);
    rng.shuffle(&mut held_out);
    let reveals = WRITES_PER_EPISODE.div_ceil(2) * LABELS_PER_WRITE;
    let (revealed, eval) = held_out.split_at(reveals.min(held_out.len() / 2));
    let mut revealed = revealed.iter().filter_map(|&v| {
        let class = template.labels().labels_of(v).first().copied();
        class.map(|c| (v, c))
    });
    let writes = (0..WRITES_PER_EPISODE)
        .map(|w| {
            if w % 2 == 0 {
                Write::Labels(revealed.by_ref().take(LABELS_PER_WRITE).collect())
            } else {
                Write::Reweight(probe::reweights(template.tensor(), &mut rng))
            }
        })
        .collect();
    let mut eval = eval.to_vec();
    eval.sort_unstable();
    Plan {
        train,
        eval,
        writes,
    }
}

/// Per-run measurements of the serving loop.
#[derive(Default)]
struct Loop {
    refit: Samples,
    refit_label: Samples,
    refit_reweight: Samples,
    add_labels_us: Samples,
    add_edges_us: Samples,
    read_us: Samples,
    replica_ms: Samples,
    warm_iterations: usize,
    cold_iterations: usize,
    reads: usize,
    writes: usize,
    busy_ms: f64,
    walk_rebuilt: bool,
}

/// A session on a fresh copy of the network, opened with its cold fit.
/// When `traced`, the operators are built and timed one at a time first,
/// so the session's fit is the solve alone. Returns the cold fit's total
/// time and, when traced, its layers.
fn cold_start(
    served: &Served,
    plan: &Plan,
    traced: bool,
    out: &mut Outcome,
) -> Option<(f64, Option<LayerTimes>, ServingSession)> {
    out.attempted += 1;
    let hin = served.template.fresh();
    let operators = if traced {
        match probe::traced_operators(&hin, FeatureWalkMode::Auto) {
            Ok(times) => Some(times),
            Err(e) => {
                out.fail(e);
                return None;
            }
        }
    } else {
        None
    };
    let mut session = ServingSession::new(hin, served.model.clone(), &plan.train);
    let (solve_ms, fitted) = probe::time_ms(|| session.refresh().map(probe::confidences_valid));
    match fitted {
        Ok(true) => {}
        Ok(false) => {
            out.fail("cold fit returned confidences off the simplex");
            return None;
        }
        Err(e) => {
            out.fail(format!("cold fit: {e}"));
            return None;
        }
    }
    let layers = operators.map(|(from_tensor_ms, build_ms)| LayerTimes {
        from_tensor_ms,
        build_ms,
        solve_ms,
    });
    let total = layers.map_or(solve_ms, |l| l.from_tensor_ms + l.build_ms + l.solve_ms);
    Some((total, layers, session))
}

fn episode(
    served: &Served,
    plan: &Plan,
    session: &mut ServingSession,
    trace: bool,
    lp: &mut Loop,
    out: &mut Outcome,
) {
    let model = &served.model;
    let walk_of = |s: &ServingSession| {
        s.hin()
            .feature_walk(FeatureWalkMode::Auto, SimilarityMetric::Cosine)
    };
    let walk = walk_of(session);
    let mut cursor = 0usize;
    let mut next_batch = || {
        let nodes: Vec<usize> = (0..BATCH)
            .map(|i| plan.eval[(cursor + i) % plan.eval.len()])
            .collect();
        cursor += BATCH;
        nodes
    };
    for write in &plan.writes {
        out.attempted += 1;
        lp.writes += 1;
        let (ms, applied) = match write {
            Write::Labels(l) => probe::time_ms(|| session.add_labels(l)),
            Write::Reweight(e) => probe::time_ms(|| session.add_edges(e)),
        };
        if let Err(e) = applied {
            out.fail(format!("write: {e}"));
            continue;
        }
        lp.busy_ms += ms;
        match write {
            Write::Labels(_) => lp.add_labels_us.push(ms * 1e3),
            Write::Reweight(_) => lp.add_edges_us.push(ms * 1e3),
        }
        if trace {
            // The refit the next read will run, timed on its own.
            if let Some(prev) = session.result() {
                let (ms, r) =
                    probe::time_ms(|| model.fit_warm(session.hin(), session.train_nodes(), prev));
                if r.is_ok() {
                    lp.replica_ms.push(ms);
                }
            }
        }
        for read in 0..READS_PER_WRITE {
            out.attempted += 1;
            let nodes = next_batch();
            let warm_before = session.stats().warm_fits;
            let (ms, answered) = probe::time_ms(|| session.classify_batch(&nodes));
            if let Err(e) = answered {
                out.fail(format!("read: {e}"));
                continue;
            }
            lp.reads += 1;
            lp.busy_ms += ms;
            if read > 0 {
                lp.read_us.push(ms * 1e3);
                continue;
            }
            let refitted = session.stats().warm_fits == warm_before + 1;
            let valid = session.result().is_some_and(probe::confidences_valid);
            if !(refitted && valid) {
                out.fail("the first read after a write did not serve a valid warm refit");
                continue;
            }
            lp.refit.push(ms);
            match write {
                Write::Labels(_) => lp.refit_label.push(ms),
                Write::Reweight(_) => lp.refit_reweight.push(ms),
            }
            if trace {
                let warm = session.result().map_or(0, probe::total_iterations);
                match model.fit(session.hin(), session.train_nodes()) {
                    Ok(cold) => {
                        lp.warm_iterations += warm;
                        lp.cold_iterations += probe::total_iterations(&cold);
                    }
                    Err(e) => out.break_run(format!("off-trace cold fit: {e}")),
                }
            }
        }
    }
    lp.walk_rebuilt |= !Arc::ptr_eq(&walk, &walk_of(session));
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Samples::new();
    let mut generate_ms = Samples::new();
    // Set-up: the network, the plans and the first session's cold fit. It
    // runs `SETUP_REPS` times before the first episode; each result is
    // dropped before the next set-up starts and the last one is kept.
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let started = Instant::now();
        let (gen_ms, s) = served(opts.seed);
        let session = cold_start(&s, &s.plans[0], false, &mut out);
        setup_s.push(started.elapsed().as_secs_f64());
        generate_ms.push(gen_ms);
        setup = session.map(|(_, _, session)| (s, session));
    }
    let Some((served, first_session)) = setup else {
        out.break_run("set-up failed");
        return out;
    };

    // Whole cycles over the plans only, so that every plan weighs the same.
    let mut lp = Loop::default();
    let mut fit_s = Samples::new();
    let mut cold_layers: [Samples; 4] = Default::default();
    let mut stats = ServingStats::default();
    let (mut accuracy, mut agreement) = (0.0, 0.0);
    let mut next = Some(first_session);
    let mut cycles = 0usize;
    let started = Instant::now();
    'run: loop {
        for (p, plan) in served.plans.iter().enumerate() {
            let mut session = match next.take() {
                Some(s) => s,
                None => {
                    // Alternates per plan and per cycle, so every plan
                    // gets traced and untraced cold starts.
                    let traced = opts.trace && !(p + cycles).is_multiple_of(2);
                    match cold_start(&served, plan, traced, &mut out) {
                        Some((ms, None, s)) => {
                            fit_s.push(ms / 1e3);
                            s
                        }
                        Some((ms, Some(l), s)) => {
                            let [o, w, solve, total] = &mut cold_layers;
                            o.push(l.from_tensor_ms);
                            w.push(l.build_ms);
                            solve.push(l.solve_ms);
                            total.push(ms);
                            s
                        }
                        None => break 'run,
                    }
                }
            };
            episode(&served, plan, &mut session, opts.trace, &mut lp, &mut out);
            // Every cycle replays the same plans, so the first cycle's
            // final states stand for all of them. They are checked here
            // and only their figures are kept, so that no finished
            // session is held while the run goes on.
            if cycles == 0 {
                stats.requests += session.stats().requests;
                stats.cache_hits += session.stats().cache_hits;
                if opts.trace && p == 0 {
                    probe_session(&session, opts.seed, &mut out);
                }
                if let Some((acc, agree)) = final_checks(&served, plan, &mut session, &mut out) {
                    accuracy += acc / PLANS as f64;
                    agreement += agree / PLANS as f64;
                }
            }
        }
        if cycles == 0 {
            // After a fixed amount of work, so that the peak does not
            // creep with the number of cycles the host fits into the run.
            out.set("peak_heap_mb", probe::peak_heap_mb());
        }
        cycles += 1;
        if lp.writes >= MIN_WRITES && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if cycles == 0 {
        // A cold start failed in the first cycle; the failure is counted.
        out.set("peak_heap_mb", probe::peak_heap_mb());
    }
    out.set_median("setup_s", &setup_s, 1.0);
    out.set_median("datasets.generate_ms", &generate_ms, 1.0);
    out.detail("cycles", cycles.to_string());
    out.detail("writes", lp.writes.to_string());
    out.detail("walk_rebuilt_in_loop", lp.walk_rebuilt.to_string());
    out.detail("serving", serving_json(&lp));
    out.set("accuracy", accuracy);
    out.set("served_agreement", agreement);
    // The median of the untraced cold fits that open the episodes; whole
    // cycles give every plan the same share of them, bar the set-up's.
    out.set_median("fit_s", &fit_s, 1.0);
    if lp.busy_ms > 0.0 {
        out.set_timing(
            "requests_per_s",
            lp.reads as f64 / (lp.busy_ms / 1e3),
            lp.reads,
        );
    }
    if opts.trace {
        let [o, w, _, total] = &cold_layers;
        out.set_median("sparse_tensor.from_tensor_ms", o, 1.0);
        out.set_median("feature_walk.build_ms", w, 1.0);
        if let (Some(t), Some(u)) = (total.median(), fit_s.median()) {
            out.set("trace.overhead", t / (u * 1e3) - 1.0);
        }
        traced_metrics(stats, &lp, &mut out);
    }
    out
}

/// The serving loop's latencies, with sample counts, for the detail line.
/// `refit_p90_ms` appears only with at least ten samples beyond it.
fn serving_json(lp: &Loop) -> String {
    let mut json = String::from("{");
    let fields = [
        ("refit_p50_ms", lp.refit.median(), lp.refit.len()),
        ("refit_p90_ms", lp.refit.percentile(0.9), lp.refit.len()),
        (
            "refit_label_ms",
            lp.refit_label.median(),
            lp.refit_label.len(),
        ),
        (
            "refit_reweight_ms",
            lp.refit_reweight.median(),
            lp.refit_reweight.len(),
        ),
        ("read_us", lp.read_us.median(), lp.read_us.len()),
    ];
    for (name, value, n) in fields {
        if let Some(v) = value {
            let sep = if json.len() > 1 { ", " } else { "" };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"samples\": {n}}}",
                json_num(v)
            );
        }
    }
    json.push('}');
    json
}

/// The served answers on a plan's final state against an offline cold
/// fit, and that cold fit against a fit on a fresh rebuild of the same
/// state. Returns the served snapshot's accuracy and the agreement.
fn final_checks(
    served: &Served,
    plan: &Plan,
    session: &mut ServingSession,
    out: &mut Outcome,
) -> Option<(f64, f64)> {
    let all: Vec<usize> = (0..session.hin().num_nodes()).collect();
    let answers = match session.classify_batch(&all) {
        Ok(s) => s,
        Err(e) => {
            out.break_run(format!("final read: {e}"));
            return None;
        }
    };
    let accuracy = session
        .result()
        .map(|r| tmark_eval::metrics::accuracy(session.hin(), r.confidences(), &plan.eval))?;
    let offline = match served.model.fit(session.hin(), session.train_nodes()) {
        Ok(r) => r,
        Err(e) => {
            out.break_run(format!("offline cold fit: {e}"));
            return None;
        }
    };
    let same = all
        .iter()
        .filter(|&&v| answers[v] == offline.predict_single(v))
        .count();
    let fresh = probe::rebuild_fresh(session.hin()).and_then(|h| {
        served
            .model
            .fit(&h, session.train_nodes())
            .map_err(|e| e.to_string())
    });
    match fresh {
        Ok(f) if probe::bitwise_equal(&offline, &f) => {}
        Ok(_) => out.break_run("the mutated network's fit differs from a fresh rebuild's"),
        Err(e) => out.break_run(format!("fresh rebuild: {e}")),
    }
    Some((accuracy, same as f64 / all.len() as f64))
}

fn traced_metrics(stats: ServingStats, lp: &Loop, out: &mut Outcome) {
    out.set_median("hin.add_labels_us", &lp.add_labels_us, 1.0);
    out.set_median("hin.add_edges_us", &lp.add_edges_us, 1.0);
    out.set_median("solver.solve_ms", &lp.replica_ms, 1.0);
    if stats.requests > 0 {
        out.set(
            "serving.cache_hit_rate",
            stats.cache_hits as f64 / stats.requests as f64,
        );
    }
    if let (Some(solve), Some(refit)) = (lp.replica_ms.median(), lp.refit.median()) {
        out.set("serving.solver_share", solve / refit);
    }
    let refits = lp.refit.len().max(1) as f64;
    let warm = lp.warm_iterations as f64 / refits;
    let cold = lp.cold_iterations as f64 / refits;
    out.set("solver.iterations", warm);
    out.set("solver.warm_iterations", warm);
    out.set("solver.cold_iterations", cold);
    if cold > 0.0 {
        out.set("solver.warm_saving", 1.0 - warm / cold);
    }
    if lp.warm_iterations > 0 {
        out.set_timing(
            "solver.per_iter_ms",
            lp.replica_ms.sum() / lp.warm_iterations as f64,
            lp.replica_ms.len(),
        );
    }
}

/// Operator sizes, walk recall and kernel times on a session's final
/// state.
fn probe_session(session: &ServingSession, seed: u64, out: &mut Outcome) {
    let hin = session.hin();
    let stoch = hin.stochastic_tensors_ref();
    let walk = hin.feature_walk(FeatureWalkMode::Auto, SimilarityMetric::Cosine);
    let sizes = stoch.entry_byte_sizes();
    out.set("sparse_tensor.nnz", stoch.nnz() as f64);
    out.set("sparse_tensor.o_path_bytes", sizes.o_path as f64);
    out.set("sparse_tensor.r_path_bytes", sizes.r_path as f64);
    out.set("feature_walk.nnz", probe::walk_nnz(&walk) as f64);
    out.set(
        "feature_walk.recall_at_k",
        probe::recall_at_k(&walk, hin.features(), seed),
    );
    let kernels: Option<Result<KernelTimes, String>> = session
        .result()
        .map(|r| probe::kernel_times(stoch, &walk, r));
    match kernels {
        Some(Ok(k)) => k.report(out),
        Some(Err(e)) => out.break_run(e),
        None => {}
    }
}
