//! Bit-identity of the batched expected-distance (ED) sweep.
//!
//! `StoreOracle` overrides `DistanceOracle::expected_nearest_each` with a
//! batched kernel: one counter tally per call, center rows hoisted out of
//! the loop, and the tiled kernel's packed center panels. This suite pins
//! it against the trait's default per-pair loop over the *same* oracle
//! arithmetic, which is exactly the loop the ED rule ran before the
//! override existed:
//!
//! * identical assignments for every kernel, plain and weighted,
//!   sequential and pooled, on an instance past `PAR_MIN_POINTS` with
//!   mixed support sizes;
//! * exact ties between centers (duplicated center ids and duplicated
//!   coordinate rows) break toward the lower index;
//! * the evaluation counter advances by exactly `Σᵢ zᵢ·k`.

use uncertain_kcenter::core::assignments::{assign_ed_exec, assign_ed_weighted_exec};
use uncertain_kcenter::metric::PAR_MIN_POINTS;
use uncertain_kcenter::pool::{self, Exec};
use uncertain_kcenter::prelude::*;

/// The trait-default ED loop over a `StoreOracle`'s pair arithmetic:
/// forwards `dist` and inherits every batched method's default.
struct PerPair<'a>(StoreOracle<'a>);

impl Metric<PointId> for PerPair<'_> {
    fn dist(&self, a: &PointId, b: &PointId) -> f64 {
        self.0.dist(a, b)
    }
}

impl DistanceOracle<PointId> for PerPair<'_> {}

fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` uncertain points in dimension `dim` with support sizes cycling
/// through 1..=6 (so the tiled sweep sees full four-row blocks and every
/// remainder), random probabilities, and every 7th point repeating an
/// earlier point's coordinates (duplicate rows tie exactly).
fn instance(seed: u64, n: usize, dim: usize) -> UncertainSet<Point> {
    let mut rnd = rng(seed);
    let mut points: Vec<UncertainPoint<Point>> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 7 == 6 {
            points.push(points[i / 2].clone());
            continue;
        }
        let z = 1 + i % 6;
        let base: Vec<f64> = (0..dim).map(|_| rnd() * 20.0 - 10.0).collect();
        let locs = (0..z)
            .map(|_| Point::new(base.iter().map(|b| b + rnd() - 0.5).collect()))
            .collect();
        let probs = (0..z).map(|_| rnd() + 0.05).collect::<Vec<f64>>();
        let total: f64 = probs.iter().sum();
        let probs = probs.iter().map(|p| p / total).collect();
        points.push(UncertainPoint::new(locs, probs).unwrap());
    }
    UncertainSet::new(points)
}

/// Centers drawn from the stored locations, with exact ties built in.
/// Points 6 and 13 repeat point 3's coordinates (see `instance`), so
/// centers 0 (point 3's first row), 1 (point 6's) and k - 2 (point 13's)
/// are distinct rows at one spot; center k - 1 repeats center 0's id.
fn centers_of(set_ids: &UncertainSet<PointId>, k: usize) -> Vec<PointId> {
    let n = set_ids.n();
    let mut centers: Vec<PointId> = (0..k - 2)
        .map(|c| set_ids[(c * 7919 + 3) % n].locations()[0])
        .collect();
    centers.push(set_ids[13].locations()[0]);
    centers.insert(1, set_ids[6].locations()[0]);
    centers.push(centers[0]);
    centers
}

fn weights_of(k: usize, seed: u64) -> Vec<f64> {
    let mut rnd = rng(seed);
    let mut w: Vec<f64> = (0..k).map(|_| rnd() * 2.0).collect();
    // The tied centers (see `centers_of`) carry one shared weight, the
    // largest, so their weighted values tie too and still win nearby.
    for c in [0, 1, k - 2, k - 1] {
        w[c] = 2.0;
    }
    w
}

fn evals_of(set_ids: &UncertainSet<PointId>, k: usize) -> u64 {
    set_ids.iter().map(|up| (up.z() * k) as u64).sum()
}

/// Runs the override and the default loop under every exec and kernel
/// on one store and checks assignments, ties, and counts.
fn check_store(store: &PointStore, set_ids: &UncertainSet<PointId>, kernels: &[Kernel], k: usize) {
    let centers = centers_of(set_ids, k);
    let k = centers.len();
    let weights = weights_of(k, 99);
    let execs = [
        Exec::sequential(),
        Exec::pooled(pool::global(), 2),
        Exec::pooled(pool::global(), 4),
    ];
    for &kernel in kernels {
        let reference = PerPair(StoreOracle::new(store, kernel));
        let plain_ref = assign_ed(set_ids, &centers, &reference);
        let weighted_ref = assign_ed_weighted(set_ids, &centers, &weights, &reference);
        for &w in [None, Some(weights.as_slice())].iter() {
            let expected = if w.is_some() {
                &weighted_ref
            } else {
                &plain_ref
            };
            // Centers 0, 1 and k - 2 are three rows with identical
            // coordinates and k - 1 repeats center 0's id: only the
            // lowest index of the four may ever win, and it does.
            assert!(expected.contains(&0), "{kernel:?}: the tied rows are used");
            assert!(
                expected.iter().all(|&c| c != 1 && c < k - 2),
                "{kernel:?}: a tie went to a higher index"
            );
            for exec in execs {
                let counter = DistCounter::new();
                let oracle = StoreOracle::new(store, kernel)
                    .with_counter(&counter)
                    .with_exec(exec);
                let got = match w {
                    None => assign_ed_exec(set_ids, &centers, &oracle, exec),
                    Some(w) => assign_ed_weighted_exec(set_ids, &centers, w, &oracle, exec),
                };
                assert_eq!(
                    &got,
                    expected,
                    "{kernel:?} weighted={} lanes={}",
                    w.is_some(),
                    exec.lanes()
                );
                assert_eq!(counter.count(), evals_of(set_ids, k), "{kernel:?}");
            }
        }
    }
}

#[test]
fn ed_sweep_matches_the_per_pair_loop_past_the_parallel_cutoff() {
    let n = PAR_MIN_POINTS + 37;
    let set = instance(7, n, 8);
    let (store, set_ids) = set.indexed_store();
    check_store(&store, &set_ids, &Kernel::ALL, 19);
}

#[test]
fn ed_sweep_matches_the_per_pair_loop_in_odd_dimensions() {
    // Odd widths leave partial panels and dimension tails; d = 2 sits
    // below every dispatch cutoff, which the per-pair arithmetic ignores.
    for dim in [2usize, 3, 11, 16] {
        let set = instance(dim as u64, 600, dim);
        let (store, set_ids) = set.indexed_store();
        check_store(&store, &set_ids, &Kernel::ALL, 9);
    }
}

#[test]
fn ed_sweep_breaks_exact_ties_toward_the_lower_index() {
    // One certain point equidistant from two centers, one two-location
    // point whose expected distances tie, under every kernel.
    let set = UncertainSet::new(vec![
        UncertainPoint::certain(Point::new(vec![0.0, 0.0, 0.0])),
        UncertainPoint::new(
            vec![
                Point::new(vec![1.0, 0.0, 0.0]),
                Point::new(vec![-1.0, 0.0, 0.0]),
            ],
            vec![0.5, 0.5],
        )
        .unwrap(),
    ]);
    let (mut store, set_ids) = set.indexed_store();
    let a = store.push(&[2.0, 0.0, 0.0]);
    let b = store.push(&[-2.0, 0.0, 0.0]);
    for kernel in Kernel::ALL {
        let oracle = StoreOracle::new(&store, kernel);
        let reference = PerPair(StoreOracle::new(&store, kernel));
        for centers in [[a, b], [b, a]] {
            let got = assign_ed(&set_ids, &centers, &oracle);
            assert_eq!(got, vec![0, 0], "{kernel:?}");
            assert_eq!(got, assign_ed(&set_ids, &centers, &reference));
            let w = [0.5, 0.5];
            assert_eq!(
                assign_ed_weighted(&set_ids, &centers, &w, &oracle),
                vec![0, 0]
            );
        }
    }
}
