//! End-to-end and per-layer benchmark of the T-Mark pipeline.
//!
//! Usage: `perfbench --workload <paper-cold|scale-ann|serve-mutate>
//!         [--seed N] [--seconds S] [--trace 0|1]`
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it times each layer separately around its public calls.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds the run's details: sample counts, the host drift marker and the
//! solver thread cap. See `perfbench/README.md` for every metric.

mod cold;
mod paper_cold;
mod probe;
mod scale_ann;
mod serve_mutate;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("accuracy", "ratio"),
    ("success_rate", "ratio"),
    ("peak_heap_mb", "MiB"),
    ("requests_per_s", "1/s"),
    ("served_agreement", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. Every
/// timing among them is measured on every workload, and a missing one
/// fails the run; a count or ratio a workload does not exercise reads 0
/// and is listed under `not_applicable` in the details. The serving
/// latencies, which only `serve-mutate` has, are in its detail line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("hin.add_labels_us", "us"),
    ("hin.add_edges_us", "us"),
    ("sparse_tensor.from_tensor_ms", "ms"),
    ("sparse_tensor.nnz", "count"),
    ("sparse_tensor.o_path_bytes", "bytes"),
    ("sparse_tensor.r_path_bytes", "bytes"),
    ("feature_walk.build_ms", "ms"),
    ("feature_walk.nnz", "count"),
    ("feature_walk.recall_at_k", "ratio"),
    ("kernel.contract_o_ms", "ms"),
    ("kernel.contract_r_ms", "ms"),
    ("kernel.walk_apply_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.per_iter_ms", "ms"),
    ("solver.warm_iterations", "count"),
    ("solver.cold_iterations", "count"),
    ("solver.warm_saving", "ratio"),
    ("serving.cache_hit_rate", "ratio"),
    ("serving.solver_share", "ratio"),
    ("pool.cap2_speedup", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.stream_ms", "ms"),
];

/// Units of timings. A timing that was not measured fails the run rather
/// than read 0, which would look like a large speed-up.
const TIME_UNITS: &[&str] = &["s", "ms", "us"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and how its operations fared.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: fits, reads and writes.
    pub attempted: usize,
    /// Operations that failed or produced output that failed its check.
    pub failed: usize,
    /// Cleared by a failed run-level check (e.g. a bitwise comparison).
    pub broken: bool,
    pub values: BTreeMap<&'static str, f64>,
    /// Sample count behind each reported timing.
    pub samples: BTreeMap<&'static str, usize>,
    /// Extra detail fields as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.note_error(msg.into());
    }

    /// Records a failed run-level check.
    pub fn break_run(&mut self, msg: impl Into<String>) {
        self.broken = true;
        self.note_error(msg.into());
    }

    fn note_error(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a timing metric taken from `samples` measurements.
    pub fn set_timing(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Sets a timing metric to the median of `s`, recording its count.
    pub fn set_median(&mut self, name: &'static str, s: &stats::Samples, scale: f64) {
        if let Some(m) = s.median() {
            self.values.insert(name, m * scale);
            self.samples.insert(name, s.len());
        }
    }

    pub fn detail(&mut self, key: &str, json: impl Into<String>) {
        self.detail.push((key.to_string(), json.into()));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-cold|scale-ann|serve-mutate> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => {
                opts.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a whole number"))
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be a positive number"))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    opts
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result object's `metrics` members for the mode, and the names of
/// the per-layer counts and ratios the workload did not measure. A
/// missing timing or end-to-end metric, or a value that is not finite,
/// fails the run.
fn render_metrics(out: &mut Outcome, trace: bool) -> (String, Vec<String>) {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    let mut not_applicable = Vec::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let value = match out.values.get(name) {
            Some(&v) => v,
            None if trace && !TIME_UNITS.contains(&unit) => {
                not_applicable.push(json_str(name));
                0.0
            }
            None => {
                out.break_run(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.break_run(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        );
    }
    (metrics, not_applicable)
}

fn main() {
    let opts = parse_args();
    let run = match opts.workload.as_str() {
        "paper-cold" => paper_cold::run,
        "scale-ann" => scale_ann::run,
        "serve-mutate" => serve_mutate::run,
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload {other}")),
    };

    let calib_start = probe::calib_ms();
    let mut out = run(&opts);
    let calib_end = probe::calib_ms();

    let success_rate = if out.attempted == 0 {
        0.0
    } else {
        (out.attempted - out.failed) as f64 / out.attempted as f64
    };
    out.set("success_rate", success_rate);
    // The workloads read `peak_heap_mb` before this buffer is allocated.
    let rss = probe::peak_rss_mb();
    let stream = probe::stream_ms();
    out.set_timing("host.calib_ms", 0.5 * (calib_start + calib_end), 10);
    out.set_timing("host.stream_ms", stream, 5);

    let (metrics, not_applicable) = render_metrics(&mut out, opts.trace);

    // A failed operation counts against `success_rate`; a failed run-level
    // check (bitwise comparisons, missing metrics) fails the run.
    let correct = !out.broken && out.attempted > 0;
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    let mut detail = format!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"solver_threads\": {}, \"host_cores\": {}, \
         \"calib_start_ms\": {}, \"calib_end_ms\": {}, \"stream_ms\": {}, \"vm_hwm_mb\": {}, \
         \"samples\": {{{}}}, \
         \"not_applicable\": [{}], \"errors\": [{}]",
        json_str(&opts.workload),
        opts.seed,
        json_num(opts.seconds),
        u8::from(opts.trace),
        json_str(&std::env::var(tmark::pool::THREAD_CAP_ENV).unwrap_or_default()),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        json_num(calib_start),
        json_num(calib_end),
        json_num(stream),
        json_num(rss),
        samples.join(", "),
        not_applicable.join(", "),
        errors.join(", "),
    );
    for (k, v) in &out.detail {
        let _ = write!(detail, ", {}: {v}", json_str(k));
    }
    detail.push_str("}}");
    println!("{detail}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome holding every metric of `wanted` except `missing`.
    fn all_but(wanted: &[(&'static str, &str)], missing: &str) -> Outcome {
        let mut out = Outcome::default();
        for &(name, _) in wanted {
            if name != missing {
                out.set(name, 1.0);
            }
        }
        out
    }

    #[test]
    fn a_missing_per_layer_timing_fails_the_run() {
        for &(name, unit) in PER_LAYER {
            let mut out = all_but(PER_LAYER, name);
            let (_, not_applicable) = render_metrics(&mut out, true);
            if TIME_UNITS.contains(&unit) {
                assert!(out.broken, "{name} read 0 instead of failing");
            } else {
                assert!(!out.broken, "{name}");
                assert_eq!(not_applicable, vec![json_str(name)]);
            }
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        for &(name, _) in END_TO_END {
            let mut out = all_but(END_TO_END, name);
            render_metrics(&mut out, false);
            assert!(out.broken, "{name}");
        }
        let mut out = all_but(END_TO_END, "");
        render_metrics(&mut out, false);
        assert!(!out.broken);
    }
}
