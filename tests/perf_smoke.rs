//! Non-flaky perf smoke: the tiled kernel must not be slower than the
//! scalar kernel on the fused assignment sweep it was built for, the
//! batched expected-distance (ED) sweep must not be slower than the
//! per-pair loop it replaces, and the flat radix-ordered `E[max]` fold
//! must not be slower than the comparator-sorted fold it replaces.
//!
//! `#[ignore]`d because it is only meaningful in release mode; CI runs
//! it explicitly via
//! `cargo test --release --test perf_smoke -- --ignored`.
//!
//! The assertion floor is deliberately **1.0×** (parity), not the ≥3×
//! the benches demonstrate at `n = 100k`: a loaded CI box can halve any
//! single measurement, but best-of-N against best-of-N crossing below
//! parity would mean the tiled path has genuinely regressed to worse
//! than the code it replaces. The dispatch cutoffs guarantee the tiled
//! kernel falls back to scalar below the profitable size, so parity is
//! the true floor everywhere.

use std::time::Instant;

use ukc_uncertain::SortedAtoms;
use uncertain_kcenter::prelude::*;

const N: usize = 10_000;
const DIM: usize = 32;
const K: usize = 16;
const ROUNDS: usize = 5;

fn store(seed: u64) -> PointStore {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut store = PointStore::new(DIM);
    for _ in 0..N {
        let row: Vec<f64> = (0..DIM).map(|_| rnd() * 10.0).collect();
        store.try_push(&row).unwrap();
    }
    store
}

/// Best-of-N seconds for one full `nearest_each` assignment sweep.
fn best_sweep_secs(store: &PointStore, kernel: Kernel) -> f64 {
    let queries = store.ids();
    let centers: Vec<PointId> = (0..K).map(|i| PointId(i * (N / K))).collect();
    let oracle = StoreOracle::new(store, kernel);
    let mut out = vec![(0usize, 0.0f64); N];
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        oracle.nearest_each(&queries, &centers, None, &mut out);
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Keep the result observable so the sweep cannot be optimized out.
    assert!(out.iter().all(|(i, d)| *i < K && d.is_finite()));
    best
}

/// Best-of-N seconds for one full additively-weighted
/// (`nearest_each` with weights) assignment sweep.
fn best_weighted_sweep_secs(store: &PointStore, kernel: Kernel) -> f64 {
    let queries = store.ids();
    let centers: Vec<PointId> = (0..K).map(|i| PointId(i * (N / K))).collect();
    let weights: Vec<f64> = (0..K).map(|i| i as f64 * 0.25).collect();
    let oracle = StoreOracle::new(store, kernel);
    let mut out = vec![(0usize, 0.0f64); N];
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        oracle.nearest_each(&queries, &centers, Some(&weights), &mut out);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(out.iter().all(|(i, d)| *i < K && d.is_finite()));
    best
}

#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn tiled_assignment_is_not_slower_than_scalar() {
    let store = store(4242);
    let scalar = best_sweep_secs(&store, Kernel::Scalar);
    let tiled = best_sweep_secs(&store, Kernel::Tiled);
    let speedup = scalar / tiled;
    eprintln!(
        "perf-smoke assign n={N} d={DIM} k={K}: scalar {scalar:.6}s, \
         tiled {tiled:.6}s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.0,
        "tiled kernel regressed below scalar parity: {speedup:.2}x"
    );
}

/// The weighted (Apollonius) sweep gets the same floor: the tiled
/// weighted path must never be slower than the weighted scalar loop it
/// replaces. The per-center subtraction is O(k) bookkeeping on top of
/// the same distance panels, so the dispatch cutoffs and the parity
/// argument above carry over unchanged.
#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn weighted_tiled_assignment_is_not_slower_than_weighted_scalar() {
    let store = store(4243);
    let scalar = best_weighted_sweep_secs(&store, Kernel::Scalar);
    let tiled = best_weighted_sweep_secs(&store, Kernel::Tiled);
    let speedup = scalar / tiled;
    eprintln!(
        "perf-smoke weighted assign n={N} d={DIM} k={K}: scalar {scalar:.6}s, \
         tiled {tiled:.6}s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 1.0,
        "weighted tiled kernel regressed below weighted scalar parity: {speedup:.2}x"
    );
}

/// The trait-default ED loop over a `StoreOracle`'s pair arithmetic:
/// one `Metric::dist` call (and one counter tick) per pair.
struct PerPair<'a>(StoreOracle<'a>);

impl Metric<PointId> for PerPair<'_> {
    fn dist(&self, a: &PointId, b: &PointId) -> f64 {
        self.0.dist(a, b)
    }
}

impl DistanceOracle<PointId> for PerPair<'_> {}

/// Best-of-N seconds for one sequential ED assignment sweep through
/// `metric`.
fn best_ed_secs<M: DistanceOracle<PointId>>(
    set_ids: &UncertainSet<PointId>,
    centers: &[PointId],
    metric: &M,
) -> f64 {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        out = assign_ed(set_ids, centers, metric);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(out.iter().all(|&c| c < centers.len()));
    best
}

/// The batched ED sweep (`StoreOracle::expected_nearest_each`) against
/// the default per-pair loop it overrides. Both evaluate the same pairs
/// with the same arithmetic; the override does it four centers per step
/// with one counter tally per call, so it has no work the loop skips and
/// parity is the floor here too.
#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn batched_ed_sweep_is_not_slower_than_the_per_pair_loop() {
    const ED_N: usize = 5_000;
    const ED_Z: usize = 4;
    const ED_DIM: usize = 8;
    const ED_K: usize = 64;
    let set = clustered(4244, ED_N, ED_Z, ED_DIM, 16, 5.0, 1.0, ProbModel::Random);
    let (store, set_ids) = set.indexed_store();
    assert!(store.len() >= 20_000);
    let centers: Vec<PointId> = (0..ED_K)
        .map(|i| PointId(i * (store.len() / ED_K)))
        .collect();
    let kernel = Kernel::default();
    let counter = DistCounter::new();
    let batched = best_ed_secs(
        &set_ids,
        &centers,
        &StoreOracle::new(&store, kernel).with_counter(&counter),
    );
    let per_pair = best_ed_secs(
        &set_ids,
        &centers,
        &PerPair(StoreOracle::new(&store, kernel).with_counter(&counter)),
    );
    let speedup = per_pair / batched;
    eprintln!(
        "perf-smoke ED sweep locations={} d={ED_DIM} k={ED_K} kernel={}: per-pair {per_pair:.6}s, \
         batched {batched:.6}s, speedup {speedup:.2}x",
        store.len(),
        kernel.name()
    );
    assert!(
        speedup >= 1.0,
        "batched ED sweep regressed below the per-pair loop: {speedup:.2}x"
    );
}

/// The `E[max]` fold as it stood before the flat radix-ordered form: one
/// `(value, variable, prob)` tuple per atom gathered from per-variable
/// lists, a stable comparator sort, and the cached-log sweep. Inputs are
/// assumed valid, so it does less work than the validating fold it is
/// timed against.
fn expected_max_comparator_sorted(vars: &[Vec<(f64, f64)>]) -> f64 {
    let n = vars.len();
    let mut atoms: Vec<(f64, usize, f64)> = Vec::new();
    for (i, var) in vars.iter().enumerate() {
        for &(v, p) in var {
            if p > 0.0 {
                atoms.push((v, i, p));
            }
        }
    }
    atoms.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut cdf = vec![0.0f64; n];
    let mut ln_cdf = vec![0.0f64; n];
    let mut log_product = 0.0f64;
    let mut zeros = n;
    let mut prev_g = 0.0f64;
    let mut expectation = 0.0f64;
    let mut updates_since_rebuild = 0usize;
    let mut t = 0;
    while t < atoms.len() {
        let v = atoms[t].0;
        while t < atoms.len() && atoms[t].0 == v {
            let (_, i, p) = atoms[t];
            let old = cdf[i];
            let new = old + p;
            let ln_new = new.ln();
            if old == 0.0 {
                zeros -= 1;
                log_product += ln_new;
            } else {
                log_product += ln_new - ln_cdf[i];
            }
            cdf[i] = new;
            ln_cdf[i] = ln_new;
            updates_since_rebuild += 1;
            t += 1;
        }
        if updates_since_rebuild >= 4096 {
            log_product = cdf
                .iter()
                .zip(&ln_cdf)
                .filter(|&(&c, _)| c > 0.0)
                .map(|(_, &l)| l)
                .sum();
            updates_since_rebuild = 0;
        }
        let g = if zeros == 0 {
            log_product.exp().min(1.0)
        } else {
            0.0
        };
        let delta = g - prev_g;
        if delta > 0.0 {
            expectation += v * delta;
        }
        prev_g = g;
    }
    expectation
}

/// The cost stage's `E[max]` at the `solve_assign` shape — 20k variables
/// of 4 distance-like atoms, 80k atoms — through the flat radix-ordered
/// fold (validation, order keys, radix sort, sweep) against the
/// comparator-sorted fold over the same atoms as per-variable lists.
#[test]
#[ignore = "perf assertion; run in release mode via CI's perf-smoke step"]
fn flat_radix_fold_is_not_slower_than_the_comparator_sorted_fold() {
    const VARS: usize = 20_000;
    const Z: usize = 4;
    let mut s: u64 = 4245;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let vars: Vec<Vec<(f64, f64)>> = (0..VARS)
        .map(|_| {
            let ps: Vec<f64> = (0..Z).map(|_| rnd() + 0.05).collect();
            let total: f64 = ps.iter().sum();
            ps.iter().map(|&p| (rnd() * 20.0, p / total)).collect()
        })
        .collect();
    let values: Vec<f64> = vars.iter().flatten().map(|a| a.0).collect();
    let probs: Vec<f64> = vars.iter().flatten().map(|a| a.1).collect();
    let offsets: Vec<usize> = (0..=VARS).map(|i| i * Z).collect();

    let (mut flat, mut reference) = (f64::INFINITY, f64::INFINITY);
    let (mut e_flat, mut e_ref) = (0.0, 0.0);
    for _ in 0..ROUNDS {
        let (vs, ps) = (values.clone(), probs.clone());
        let t = Instant::now();
        e_flat = SortedAtoms::try_from_flat(vs, ps, &offsets)
            .unwrap()
            .expected_max();
        flat = flat.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        e_ref = expected_max_comparator_sorted(&vars);
        reference = reference.min(t.elapsed().as_secs_f64());
    }
    assert_eq!(e_flat.to_bits(), e_ref.to_bits());
    let speedup = reference / flat;
    eprintln!(
        "perf-smoke E[max] atoms={}: comparator-sorted {reference:.6}s, \
         flat radix {flat:.6}s, speedup {speedup:.2}x",
        VARS * Z
    );
    assert!(
        speedup >= 1.0,
        "flat radix fold regressed below the comparator-sorted fold: {speedup:.2}x"
    );
}
