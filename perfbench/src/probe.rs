//! Measurement helpers shared by the workloads: timers, the host drift
//! marker, memory, output checks, never-fitted network copies and the
//! per-layer probes around the library's public calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tmark::{FeatureWalkMode, TMarkModel, TMarkResult};
use tmark_feature_walk::FeatureWalk;
use tmark_hin::{Hin, HinBuilder, LabelStore};
use tmark_linalg::similarity::SimilarityMetric;
use tmark_linalg::DenseMatrix;
use tmark_sparse_tensor::{SparseTensor3, StochasticTensors};

use crate::stats::Samples;

/// Wall time of one call in milliseconds, with its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64() * 1e3, value)
}

/// One run of the host drift marker: a fixed, single-threaded integer and
/// floating-point loop that no library change can touch. Its time moves
/// only when the host does.
pub fn calib_once_ms() -> f64 {
    let (ms, acc) = time_ms(|| {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut acc = 0.0f64;
        for _ in 0..4_000_000u32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc += ((state >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).sqrt();
        }
        acc
    });
    black_box(acc);
    ms
}

/// Median of five drift-marker runs.
pub fn calib_ms() -> f64 {
    let mut s = Samples::new();
    for _ in 0..5 {
        s.push(calib_once_ms());
    }
    s.median().expect("five samples")
}

/// Bytes streamed by one run of the memory drift marker: far more than
/// any last-level cache holds.
const STREAM_BYTES: usize = 64 << 20;

/// Median of five runs of the memory drift marker: a fixed sequential
/// read-modify-write pass over a buffer far larger than any cache. It
/// moves with the memory bandwidth that other tenants leave, which the
/// compute loop of [`calib_once_ms`] does not feel.
pub fn stream_ms() -> f64 {
    let mut buf = vec![1u64; STREAM_BYTES / 8];
    let mut s = Samples::new();
    for _ in 0..5 {
        let (ms, acc) = time_ms(|| {
            let mut acc = 0u64;
            for x in buf.iter_mut() {
                *x = x.wrapping_mul(3).wrapping_add(1);
                acc = acc.wrapping_add(*x);
            }
            acc
        });
        black_box(acc);
        s.push(ms);
    }
    s.median().expect("five samples")
}

/// The system allocator, counting the bytes the program holds. The peak
/// of that count is what a pipeline change to the size of `(O, R)`, `W`
/// or the solver's buffers moves; the peak RSS also follows where glibc
/// happened to place freed buffers, which varied with the seed (48.0 MiB
/// at one `paper-cold` seed, 50.9 at another, each repeatable).
pub struct CountingAlloc;

static HELD: AtomicUsize = AtomicUsize::new(0);
static PEAK_HELD: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(bytes: usize) {
    let held = HELD.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if held > PEAK_HELD.load(Ordering::Relaxed) {
        PEAK_HELD.fetch_max(held, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HELD.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(grown) => note_alloc(grown),
                None => {
                    HELD.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
        }
        p
    }
}

/// Most bytes held at once so far, in MiB, as counted by [`CountingAlloc`].
pub fn peak_heap_mb() -> f64 {
    PEAK_HELD.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output check of every fit: each class's confidence column is finite,
/// nonnegative and sums to 1 within `1e-9`.
pub fn confidences_valid(result: &TMarkResult) -> bool {
    columns_on_simplex(result.confidences())
}

fn columns_on_simplex(c: &DenseMatrix) -> bool {
    (0..c.cols()).all(|k| {
        let mut sum = 0.0;
        for v in 0..c.rows() {
            let x = c.get(v, k);
            if !x.is_finite() || x < 0.0 {
                return false;
            }
            sum += x;
        }
        (sum - 1.0).abs() <= 1e-9
    })
}

/// Bitwise equality of two fits' confidences and link scores.
pub fn bitwise_equal(a: &TMarkResult, b: &TMarkResult) -> bool {
    a.confidences().as_slice() == b.confidences().as_slice()
        && a.link_scores().as_slice() == b.link_scores().as_slice()
}

/// Share of `nodes` on which two fits predict the same argmax class.
pub fn argmax_agreement(a: &TMarkResult, b: &TMarkResult, nodes: &[usize]) -> f64 {
    if nodes.is_empty() {
        return 1.0;
    }
    let same = nodes
        .iter()
        .filter(|&&v| a.predict_single(v) == b.predict_single(v))
        .count();
    same as f64 / nodes.len() as f64
}

/// Total solver iterations over all classes of a fit.
pub fn total_iterations(result: &TMarkResult) -> usize {
    (0..result.num_classes())
        .map(|c| result.convergence(c).iterations)
        .sum()
}

/// The parts of a generated network, kept apart from any [`Hin`] so that
/// nothing can ever fit it. Every timed cold pass runs on a fresh copy,
/// which starts with empty operator caches. A clone of a fitted `Hin`
/// would carry its `(O, R)` and `W` caches and silently drop their build
/// from the pass.
pub struct Template {
    tensor: SparseTensor3,
    features: DenseMatrix,
    link_type_names: Vec<String>,
    labels: LabelStore,
}

impl Template {
    /// Takes a just-generated network apart.
    pub fn new(generated: Hin) -> Self {
        Template {
            tensor: generated.tensor().clone(),
            features: generated.features().clone(),
            link_type_names: generated.link_type_names().to_vec(),
            labels: generated.labels().clone(),
        }
    }

    /// A never-fitted network holding the template's state.
    pub fn fresh(&self) -> Hin {
        Hin::from_bulk(
            self.tensor.clone(),
            self.features.clone(),
            self.link_type_names.clone(),
            self.labels.clone(),
        )
        .expect("template parts come from one network")
    }

    pub fn tensor(&self) -> &SparseTensor3 {
        &self.tensor
    }

    pub fn labels(&self) -> &LabelStore {
        &self.labels
    }

    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }
}

/// A fresh network rebuilt edge by edge through [`HinBuilder`] from the
/// current state of `h`: the oracle for the cache-invalidation check.
pub fn rebuild_fresh(h: &Hin) -> Result<Hin, String> {
    let mut b = HinBuilder::new(
        h.feature_dim(),
        h.link_type_names().to_vec(),
        h.labels().class_names().to_vec(),
    );
    for v in 0..h.num_nodes() {
        b.add_node(h.features().row(v).to_vec());
        for &c in h.labels().labels_of(v) {
            b.set_label(v, c)
                .map_err(|e| format!("rebuild label: {e}"))?;
        }
    }
    for e in h.tensor().entries() {
        // Tensor entry a_{i,j,k} is the walk edge j -> i of type k.
        b.add_weighted_directed_edge(e.j, e.i, e.k, e.value)
            .map_err(|e| format!("rebuild edge: {e}"))?;
    }
    b.build().map_err(|e| format!("rebuild: {e}"))
}

/// A cache hit must be this many times faster than the `W` build it
/// replaces before a pass counts as cold. A real build of the smallest
/// network takes milliseconds; a hit takes about a microsecond.
const COLD_FACTOR: f64 = 50.0;

/// Per-layer times of one traced cold fit.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    /// `Hin::stochastic_tensors_ref`, which runs `StochasticTensors::from_tensor`.
    pub from_tensor_ms: f64,
    /// `Hin::feature_walk`: the `W` build.
    pub build_ms: f64,
    /// `TMarkModel::fit` with both operators already built.
    pub solve_ms: f64,
}

/// A cold fit split into its layers by calling them one at a time: the
/// tensor normalization, then the feature walk, then the fit, which finds
/// both operators cached. Fails when the `W` call was a cache hit, i.e.
/// when `hin` was not a never-fitted network.
pub fn traced_fit(
    hin: &Hin,
    model: &TMarkModel,
    mode: FeatureWalkMode,
    train: &[usize],
) -> Result<(LayerTimes, TMarkResult), String> {
    let (from_tensor_ms, build_ms) = traced_operators(hin, mode)?;
    let (solve_ms, result) = time_ms(|| model.fit(hin, train));
    let result = result.map_err(|e| format!("fit: {e}"))?;
    Ok((
        LayerTimes {
            from_tensor_ms,
            build_ms,
            solve_ms,
        },
        result,
    ))
}

/// Builds a never-fitted network's `(O, R)` pair and then its feature
/// walk, timing each; returns `(from_tensor_ms, build_ms)`. Fails when
/// the walk was already cached.
pub fn traced_operators(hin: &Hin, mode: FeatureWalkMode) -> Result<(f64, f64), String> {
    let (from_tensor_ms, stoch) = time_ms(|| hin.stochastic_tensors_ref().nnz());
    black_box(stoch);
    let (build_ms, walk) = time_ms(|| hin.feature_walk(mode, SimilarityMetric::Cosine));
    let (hit_ms, again) = time_ms(|| hin.feature_walk(mode, SimilarityMetric::Cosine));
    black_box((walk, again));
    check_cold_build(build_ms, hit_ms)?;
    Ok((from_tensor_ms, build_ms))
}

/// The cold-pass guard: the traced `W` build must cost far more than a
/// cache hit, or the pass ran on a network that carried a fitted `W`.
pub fn check_cold_build(build_ms: f64, hit_ms: f64) -> Result<(), String> {
    if build_ms > COLD_FACTOR * hit_ms {
        Ok(())
    } else {
        Err(format!(
            "W build took {build_ms:.4} ms against a {hit_ms:.4} ms cache hit: \
             the pass reused a fitted network's operators"
        ))
    }
}

/// Stored entries of a feature walk (`n²` for the dense form).
pub fn walk_nnz(w: &FeatureWalk) -> usize {
    match (w.as_dense(), w.as_sparse()) {
        (Some(d), _) => d.rows() * d.cols(),
        (_, Some(s)) => s.nnz(),
        _ => 0,
    }
}

/// Median per-call times of the three solver kernels, each called on all
/// `q` class columns of a fitted result so that the operands have the
/// solver's own sparsity.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    pub contract_o_ms: f64,
    pub contract_r_ms: f64,
    pub walk_apply_ms: f64,
}

impl KernelTimes {
    pub fn report(&self, out: &mut crate::Outcome) {
        out.set_timing("kernel.contract_o_ms", self.contract_o_ms, KERNEL_CALLS);
        out.set_timing("kernel.contract_r_ms", self.contract_r_ms, KERNEL_CALLS);
        out.set_timing("kernel.walk_apply_ms", self.walk_apply_ms, KERNEL_CALLS);
    }
}

impl std::ops::AddAssign for KernelTimes {
    fn add_assign(&mut self, o: Self) {
        self.contract_o_ms += o.contract_o_ms;
        self.contract_r_ms += o.contract_r_ms;
        self.walk_apply_ms += o.walk_apply_ms;
    }
}

/// Calls per kernel in [`kernel_times`]; the median is reported.
const KERNEL_CALLS: usize = 15;

pub fn kernel_times(
    stoch: &StochasticTensors,
    walk: &FeatureWalk,
    result: &TMarkResult,
) -> Result<KernelTimes, String> {
    let n = result.num_nodes();
    let q = result.num_classes();
    let m = result.num_link_types();
    let mut xs = vec![0.0; n * q];
    let mut zs = vec![0.0; m * q];
    for c in 0..q {
        for v in 0..n {
            xs[c * n + v] = result.confidence(v, c);
        }
        for k in 0..m {
            zs[c * m + k] = result.link_scores().get(k, c);
        }
    }
    let mut ys = vec![0.0; n * q];
    let mut zb = vec![0.0; m * q];
    let (mut o, mut r, mut w) = (Samples::new(), Samples::new(), Samples::new());
    for _ in 0..KERNEL_CALLS {
        let (ms, res) = time_ms(|| stoch.contract_o_multi_into(&xs, &zs, &mut ys, q));
        res.map_err(|e| format!("contract_o_multi_into: {e}"))?;
        o.push(ms);
        let (ms, res) = time_ms(|| stoch.contract_r_multi_into(&xs, &mut zb, q));
        res.map_err(|e| format!("contract_r_multi_into: {e}"))?;
        r.push(ms);
        let (ms, ()) = time_ms(|| walk.apply_multi_into(&xs, q, &mut ys));
        w.push(ms);
        black_box((&ys, &zb));
    }
    Ok(KernelTimes {
        contract_o_ms: o.median().unwrap_or(0.0),
        contract_r_ms: r.median().unwrap_or(0.0),
        walk_apply_ms: w.median().unwrap_or(0.0),
    })
}

/// Calls per mutation kind and network in [`hin_probe`].
const HIN_CALLS: usize = 20;
/// Labels revealed by one write (of `serve-mutate` and [`hin_probe`]).
pub const LABELS_PER_WRITE: usize = 2;
/// Stored edges re-weighted by one write.
const EDGES_PER_WRITE: usize = 4;
/// Weight added to each re-weighted edge.
const REWEIGHT_DELTA: f64 = 0.5;

/// Times `Hin::add_labels` (a reveal of [`LABELS_PER_WRITE`] labels) and
/// `Hin::add_edges` (a value-only re-weight of [`EDGES_PER_WRITE`] stored
/// edges, which patches a built `(O, R)` in place) on a fitted network,
/// in microseconds per call.
pub fn hin_probe(
    hin: &mut Hin,
    reveal: &[usize],
    rng: &mut SplitMix,
    labels_us: &mut Samples,
    edges_us: &mut Samples,
) -> Result<(), String> {
    for nodes in reveal.chunks(LABELS_PER_WRITE).take(HIN_CALLS) {
        let labels: Vec<(usize, usize)> = nodes
            .iter()
            .filter_map(|&v| hin.labels().labels_of(v).first().map(|&c| (v, c)))
            .collect();
        let (ms, r) = time_ms(|| hin.add_labels(&labels));
        r.map_err(|e| format!("add_labels: {e}"))?;
        labels_us.push(ms * 1e3);
        let edges = reweights(hin.tensor(), rng);
        let (ms, r) = time_ms(|| hin.add_edges(&edges));
        r.map_err(|e| format!("add_edges: {e}"))?;
        edges_us.push(ms * 1e3);
    }
    Ok(())
}

/// A value-only re-weight of [`EDGES_PER_WRITE`] stored edges drawn from
/// `tensor`, as `(from, to, link type, weight)`.
pub fn reweights(tensor: &SparseTensor3, rng: &mut SplitMix) -> Vec<(usize, usize, usize, f64)> {
    let entries = tensor.entries();
    (0..EDGES_PER_WRITE)
        .map(|_| {
            let e = entries[rng.below(entries.len())];
            // Tensor entry a_{i,j,k} is the walk edge j -> i.
            (e.j, e.i, e.k, REWEIGHT_DELTA)
        })
        .collect()
}

/// Neighbourhood size of the recall check (the ANN walks' `k`).
const RECALL_K: usize = 8;
/// Nodes whose neighbourhood the recall check compares.
const RECALL_SAMPLE: usize = 200;

/// Mean share of the exact cosine top-[`RECALL_K`] neighbours (self
/// excluded) that a sparse walk keeps, over a seeded sample of columns.
/// A dense walk keeps every neighbour.
pub fn recall_at_k(walk: &FeatureWalk, features: &DenseMatrix, seed: u64) -> f64 {
    let Some(w) = walk.as_sparse() else {
        return 1.0;
    };
    let n = features.rows();
    let mut rng = SplitMix::new(seed ^ 0x7ecb_a11a);
    let mut sample: Vec<usize> = (0..RECALL_SAMPLE).map(|_| rng.below(n)).collect();
    sample.sort_unstable();
    sample.dedup();
    let mut slot = vec![usize::MAX; n];
    for (s, &j) in sample.iter().enumerate() {
        slot[j] = s;
    }
    let mut approx = vec![Vec::new(); sample.len()];
    for i in 0..n {
        for (j, _) in w.row_iter(i) {
            if i != j && slot[j] != usize::MAX {
                approx[slot[j]].push(i);
            }
        }
    }
    let norm = |v: usize| features.row(v).iter().map(|x| x * x).sum::<f64>().sqrt();
    let norms: Vec<f64> = (0..n).map(norm).collect();
    let mut total = 0.0;
    for (s, &j) in sample.iter().enumerate() {
        let fj = features.row(j);
        let mut sims: Vec<(f64, usize)> = (0..n)
            .filter(|&i| i != j)
            .map(|i| {
                let dot: f64 = features.row(i).iter().zip(fj).map(|(a, b)| a * b).sum();
                (dot / (norms[i] * norms[j]).max(f64::MIN_POSITIVE), i)
            })
            .collect();
        sims.select_nth_unstable_by(RECALL_K - 1, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let hits = sims[..RECALL_K]
            .iter()
            .filter(|(_, i)| approx[s].contains(i))
            .count();
        total += hits as f64 / RECALL_K as f64;
    }
    total / sample.len() as f64
}

/// A deterministic pseudo-random stream (SplitMix64) for the benchmark's
/// own choices: which nodes to reveal, which edges to re-weight.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmark_bench::Dataset;
    use tmark_feature_walk::{KnnBackend, WalkBackend};

    fn small() -> (Hin, Vec<usize>, TMarkModel) {
        let hin = tmark_datasets::dblp::dblp_with_size(120, 3);
        let (train, _) = tmark_datasets::stratified_split(&hin, 0.3, 1);
        (hin, train, TMarkModel::new(Dataset::Dblp.tmark_config()))
    }

    #[test]
    fn the_heap_peak_counts_a_held_buffer() {
        let buf = vec![1u8; 64 << 20];
        assert!(peak_heap_mb() >= 64.0);
        black_box(buf);
    }

    #[test]
    fn traced_fit_accepts_a_fresh_copy_and_matches_an_untraced_fit() {
        let (hin, train, model) = small();
        let template = Template::new(hin);
        let (layers, traced) =
            traced_fit(&template.fresh(), &model, FeatureWalkMode::Auto, &train).unwrap();
        assert!(layers.build_ms > 0.0);
        let plain = model.fit(&template.fresh(), &train).unwrap();
        assert!(bitwise_equal(&traced, &plain));
        assert!(confidences_valid(&plain));
    }

    #[test]
    fn carried_over_walk_cache_is_caught() {
        let (hin, train, model) = small();
        model.fit(&hin, &train).unwrap();
        // `Hin::clone` carries the fitted network's operator caches.
        let carried = hin.clone();
        let err = traced_fit(&carried, &model, FeatureWalkMode::Auto, &train).unwrap_err();
        assert!(err.contains("reused"), "{err}");
    }

    #[test]
    fn cold_guard_thresholds() {
        assert!(check_cold_build(5.0, 0.001).is_ok());
        assert!(check_cold_build(0.002, 0.001).is_err());
        assert!(check_cold_build(0.0, 0.0).is_err());
    }

    #[test]
    fn template_copies_never_share_caches() {
        let (hin, train, model) = small();
        let template = Template::new(hin);
        let first = template.fresh();
        model.fit(&first, &train).unwrap();
        let second = template.fresh();
        let a = first.feature_walk(FeatureWalkMode::Auto, SimilarityMetric::Cosine);
        let b = second.feature_walk(FeatureWalkMode::Auto, SimilarityMetric::Cosine);
        assert!(!std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fresh_rebuild_fits_bitwise_like_the_original() {
        let (hin, train, model) = small();
        let rebuilt = rebuild_fresh(&hin).unwrap();
        let a = model.fit(&hin, &train).unwrap();
        let b = model.fit(&rebuilt, &train).unwrap();
        assert!(bitwise_equal(&a, &b));
    }

    #[test]
    fn invalid_confidence_columns_are_rejected() {
        let ok = DenseMatrix::from_rows(&[vec![0.25, 1.0], vec![0.75, 0.0]]).unwrap();
        assert!(columns_on_simplex(&ok));
        let off = DenseMatrix::from_rows(&[vec![0.25, 1.0], vec![0.75 + 1e-8, 0.0]]).unwrap();
        assert!(!columns_on_simplex(&off));
        let nan = DenseMatrix::from_rows(&[vec![f64::NAN, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(!columns_on_simplex(&nan));
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffle_is_a_permutation() {
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<usize> = (0..50).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn drift_markers_are_positive() {
        assert!(calib_once_ms() > 0.0);
        assert!(stream_ms() > 0.0);
    }

    fn small_features() -> DenseMatrix {
        let mut g = crate::scale_ann::generator(3);
        g.num_nodes = 400;
        g.relations.iter_mut().for_each(|r| r.num_edges = 2_000);
        g.generate().features().clone()
    }

    #[test]
    fn exact_knn_walk_has_full_recall() {
        let features = small_features();
        let exact = KnnBackend::new(SimilarityMetric::Cosine, RECALL_K)
            .build(&features)
            .unwrap();
        assert!(recall_at_k(&exact, &features, 1) > 0.99);
    }

    #[test]
    fn a_walk_missing_neighbours_has_lower_recall() {
        let features = small_features();
        let exact = KnnBackend::new(SimilarityMetric::Cosine, RECALL_K / 2)
            .build(&features)
            .unwrap();
        let r = recall_at_k(&exact, &features, 1);
        assert!(r > 0.45 && r < 0.55, "{r}");
    }
}
