//! Expected k-center costs: exact, enumerated, and Monte-Carlo.
//!
//! For fixed centers (and, in the assigned versions, a fixed assignment)
//! the per-point distance variables are independent, so the paper's
//! expected costs are `E[max]` of independent discrete variables and the
//! sweep of [`crate::expected_max()`] computes them exactly. The enumerated
//! and Monte-Carlo versions exist to cross-validate that exactness and to
//! support the sampling baseline.

use std::ops::Range;

use crate::expected_max::{expected_max_enumerate, SortedAtoms};
use crate::realization::sample_realization;
use crate::set::UncertainSet;
use rand::Rng;
use ukc_metric::{DistanceOracle, PAR_CHUNK, PAR_MIN_POINTS};
use ukc_pool::Exec;

/// The per-point distance variables of a cost, laid out flat: point
/// `i`'s location `j` sits at `offsets[i] + j`, with its distance in
/// `values` and its probability in `probs`.
struct CostVars {
    values: Vec<f64>,
    probs: Vec<f64>,
    offsets: Vec<usize>,
}

impl CostVars {
    /// Fills every point's distances through `fill(i, out)`, which writes
    /// point `i`'s location distances (one per location, in support
    /// order) into `out`.
    fn build<P>(set: &UncertainSet<P>, fill: impl Fn(usize, &mut [f64])) -> Self {
        let mut vars = Self::layout(set);
        fill_points(0..set.n(), &vars.offsets, &mut vars.values, &fill);
        vars
    }

    /// [`CostVars::build`] with an execution context: from
    /// [`PAR_MIN_POINTS`] points up, [`PAR_CHUNK`]-point blocks run on
    /// pool lanes, each writing its own contiguous range of the one flat
    /// buffer. Every distance depends on its own point alone, so the
    /// buffer is bit-identical for every [`Exec`].
    fn build_exec<P: Sync>(
        set: &UncertainSet<P>,
        exec: Exec<'_>,
        fill: impl Fn(usize, &mut [f64]) + Sync,
    ) -> Self {
        let n = set.n();
        if !exec.is_parallel() || n < PAR_MIN_POINTS {
            return Self::build(set, fill);
        }
        let mut vars = Self::layout(set);
        let offsets = &vars.offsets;
        let mut blocks: Vec<(usize, &mut [f64])> = Vec::with_capacity(n.div_ceil(PAR_CHUNK));
        let mut rest = vars.values.as_mut_slice();
        for start in (0..n).step_by(PAR_CHUNK) {
            let end = (start + PAR_CHUNK).min(n);
            let (block, tail) = rest.split_at_mut(offsets[end] - offsets[start]);
            blocks.push((start, block));
            rest = tail;
        }
        ukc_pool::for_each_slice(exec, &mut blocks, 1, |_, block| {
            let (start, out) = &mut block[0];
            let points = *start..(*start + PAR_CHUNK).min(n);
            fill_points(points, offsets, out, &fill);
        });
        vars
    }

    /// The flat layout of `set`: offsets, probabilities copied, distances
    /// zeroed.
    fn layout<P>(set: &UncertainSet<P>) -> Self {
        let total = set.total_locations();
        let mut probs = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(set.n() + 1);
        offsets.push(0);
        for up in set.iter() {
            probs.extend_from_slice(up.probs());
            offsets.push(probs.len());
        }
        Self {
            values: vec![0.0; total],
            probs,
            offsets,
        }
    }

    /// The variables validated and sorted for the `E[max]` fold.
    ///
    /// # Panics
    /// Panics with [`crate::expected_max()`]'s messages on malformed
    /// variables (e.g. a non-finite distance).
    fn sorted(self) -> SortedAtoms {
        SortedAtoms::try_from_flat(self.values, self.probs, &self.offsets)
            .unwrap_or_else(|e| panic!("expected_max {e}"))
    }

    /// The variables as per-point atom lists.
    fn nested(&self) -> Vec<Vec<(f64, f64)>> {
        self.offsets
            .windows(2)
            .map(|r| {
                let (vs, ps) = (&self.values[r[0]..r[1]], &self.probs[r[0]..r[1]]);
                vs.iter().copied().zip(ps.iter().copied()).collect()
            })
            .collect()
    }
}

/// Fills the distances of `points` into `out`, their contiguous flat
/// range (which starts at `offsets[points.start]`).
fn fill_points(
    points: Range<usize>,
    offsets: &[usize],
    out: &mut [f64],
    fill: &impl Fn(usize, &mut [f64]),
) {
    let base = offsets[points.start];
    for i in points {
        fill(i, &mut out[offsets[i] - base..offsets[i + 1] - base]);
    }
}

/// The *assigned* cost's distance fill: point `i`'s variable takes value
/// `d(Pᵢⱼ, centers[assignment[i]])` with probability `pᵢⱼ`, one batched
/// sweep per point.
fn assigned_fill<'a, P, M: DistanceOracle<P>>(
    set: &'a UncertainSet<P>,
    centers: &'a [P],
    assignment: &'a [usize],
    metric: &'a M,
) -> impl Fn(usize, &mut [f64]) + 'a {
    assert_eq!(
        assignment.len(),
        set.n(),
        "assignment must name a center for every point"
    );
    move |i, out| {
        let a = assignment[i];
        assert!(a < centers.len(), "assignment index out of range");
        metric.dists_to_one(set[i].locations(), &centers[a], out);
    }
}

/// The *unassigned* cost's distance fill: point `i`'s variable takes
/// value `d(Pᵢⱼ, C) = min_c d(Pᵢⱼ, c)`. Center-major batched sweeps:
/// identical values and evaluation count (z·k) as the location-major
/// `dist_to_set` loop — min is order-free.
fn unassigned_fill<'a, P, M: DistanceOracle<P>>(
    set: &'a UncertainSet<P>,
    centers: &'a [P],
    metric: &'a M,
) -> impl Fn(usize, &mut [f64]) + 'a {
    assert!(!centers.is_empty(), "need at least one center");
    move |i, out| {
        out.fill(f64::INFINITY);
        for c in centers {
            metric.dists_to_set_min(set[i].locations(), c, None, out);
        }
    }
}

/// The assigned cost's variables as per-point atom lists.
fn assigned_vars<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> Vec<Vec<(f64, f64)>> {
    CostVars::build(set, assigned_fill(set, centers, assignment, metric)).nested()
}

/// The unassigned cost's variables as per-point atom lists.
fn unassigned_vars<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
) -> Vec<Vec<(f64, f64)>> {
    CostVars::build(set, unassigned_fill(set, centers, metric)).nested()
}

/// Exact `EcostA(c₁..c_k)` for a fixed assignment:
/// `Σ_R prob(R)·max_i d(P̂ᵢ, A(Pᵢ))`, in O(N log N).
pub fn ecost_assigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> f64 {
    assigned_atoms(set, centers, assignment, metric).expected_max()
}

/// The assigned cost's per-point distance variables, validated and sorted
/// once: [`SortedAtoms::expected_max`] is [`ecost_assigned`], and
/// [`SortedAtoms::expected_max_without`] is the assigned cost of the same
/// centers and assignment with one point left out — the leave-one-out
/// recombination.
pub fn assigned_atoms<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> SortedAtoms {
    CostVars::build(set, assigned_fill(set, centers, assignment, metric)).sorted()
}

/// [`ecost_assigned`] with an execution context: the per-point distance
/// sweep runs block-parallel on the pool into one flat buffer, the
/// `E[max]` fold stays sequential. Bit-identical to [`ecost_assigned`]
/// for every `exec`.
pub fn ecost_assigned_exec<P: Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    exec: Exec<'_>,
) -> f64 {
    let fill = assigned_fill(set, centers, assignment, metric);
    CostVars::build_exec(set, exec, fill)
        .sorted()
        .expected_max()
}

/// Exact unassigned `Ecost(c₁..c_k) = Σ_R prob(R)·max_i d(P̂ᵢ, C)`.
pub fn ecost_unassigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
) -> f64 {
    CostVars::build(set, unassigned_fill(set, centers, metric))
        .sorted()
        .expected_max()
}

/// [`ecost_unassigned`] with an execution context (see
/// [`ecost_assigned_exec`]).
pub fn ecost_unassigned_exec<P: Sync, M: DistanceOracle<P> + Sync>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    exec: Exec<'_>,
) -> f64 {
    CostVars::build_exec(set, exec, unassigned_fill(set, centers, metric))
        .sorted()
        .expected_max()
}

/// Assigned cost by full realization enumeration (tests/baselines only).
///
/// # Panics
/// Panics when `|Ω| > 10^7`.
pub fn ecost_assigned_enumerate<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
) -> f64 {
    expected_max_enumerate(&assigned_vars(set, centers, assignment, metric))
}

/// Unassigned cost by full realization enumeration (tests/baselines only).
///
/// # Panics
/// Panics when `|Ω| > 10^7`.
pub fn ecost_unassigned_enumerate<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
) -> f64 {
    expected_max_enumerate(&unassigned_vars(set, centers, metric))
}

/// Exact `Pr[cost ≤ t]` of an assigned solution: the probability that no
/// point's realized distance to its assigned center exceeds `t`.
pub fn cost_cdf_assigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    t: f64,
) -> f64 {
    crate::expected_max::max_cdf(&assigned_vars(set, centers, assignment, metric), t)
}

/// Exact `q`-quantile (value-at-risk) of an assigned solution's cost: the
/// smallest radius `t` such that with probability at least `q` every point
/// realizes within `t` of its assigned center.
///
/// Complements [`ecost_assigned`]: the expectation summarizes the average
/// realization, the quantile summarizes the tail — uncertain database
/// applications routinely need both.
pub fn cost_quantile_assigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: &[usize],
    metric: &M,
    q: f64,
) -> f64 {
    crate::expected_max::max_quantile(&assigned_vars(set, centers, assignment, metric), q)
}

/// Exact `Pr[cost ≤ t]` of an unassigned solution (each realization served
/// by its nearest center).
pub fn cost_cdf_unassigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    t: f64,
) -> f64 {
    crate::expected_max::max_cdf(&unassigned_vars(set, centers, metric), t)
}

/// Exact `q`-quantile of an unassigned solution's cost.
pub fn cost_quantile_unassigned<P, M: DistanceOracle<P>>(
    set: &UncertainSet<P>,
    centers: &[P],
    metric: &M,
    q: f64,
) -> f64 {
    crate::expected_max::max_quantile(&unassigned_vars(set, centers, metric), q)
}

/// A Monte-Carlo estimate with its standard error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloEstimate {
    /// Sample mean of the cost.
    pub mean: f64,
    /// Standard error of the mean (`σ̂/√samples`).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

/// Monte-Carlo estimate of the expected cost. With `assignment = Some(A)`
/// estimates the assigned cost, otherwise the unassigned cost.
///
/// # Panics
/// Panics when `samples == 0` or the assignment is malformed.
pub fn ecost_monte_carlo<P, M: DistanceOracle<P>, R: Rng>(
    set: &UncertainSet<P>,
    centers: &[P],
    assignment: Option<&[usize]>,
    metric: &M,
    samples: usize,
    rng: &mut R,
) -> MonteCarloEstimate {
    assert!(samples > 0, "need at least one sample");
    if let Some(a) = assignment {
        assert_eq!(a.len(), set.n(), "assignment length mismatch");
    }
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..samples {
        let r = sample_realization(set, rng);
        let mut max = 0.0f64;
        for (i, &j) in r.iter().enumerate() {
            let loc = &set[i].locations()[j];
            let d = match assignment {
                Some(a) => metric.dist(loc, &centers[a[i]]),
                None => metric.dist_to_set(loc, centers),
            };
            max = max.max(d);
        }
        sum += max;
        sum_sq += max * max;
    }
    let n = samples as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    MonteCarloEstimate {
        mean,
        std_error: (var / n).sqrt(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::UncertainPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ukc_metric::{Euclidean, Metric, Point};

    fn set2d() -> UncertainSet<Point> {
        UncertainSet::new(vec![
            UncertainPoint::new(
                vec![Point::new(vec![0.0, 0.0]), Point::new(vec![1.0, 0.0])],
                vec![0.5, 0.5],
            )
            .unwrap(),
            UncertainPoint::new(
                vec![Point::new(vec![5.0, 0.0]), Point::new(vec![6.0, 1.0])],
                vec![0.25, 0.75],
            )
            .unwrap(),
        ])
    }

    #[test]
    fn exact_matches_enumeration_assigned() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let assignment = vec![0usize, 1];
        let fast = ecost_assigned(&s, &centers, &assignment, &Euclidean);
        let slow = ecost_assigned_enumerate(&s, &centers, &assignment, &Euclidean);
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
    }

    #[test]
    fn exact_matches_enumeration_unassigned() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let fast = ecost_unassigned(&s, &centers, &Euclidean);
        let slow = ecost_unassigned_enumerate(&s, &centers, &Euclidean);
        assert!((fast - slow).abs() < 1e-12);
    }

    #[test]
    fn unassigned_never_exceeds_assigned() {
        // The unassigned cost picks the best center per realization point,
        // so it lower-bounds every fixed assignment.
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let un = ecost_unassigned(&s, &centers, &Euclidean);
        for assignment in [[0usize, 0], [0, 1], [1, 0], [1, 1]] {
            let a = ecost_assigned(&s, &centers, &assignment, &Euclidean);
            assert!(un <= a + 1e-12, "assignment {assignment:?}");
        }
    }

    #[test]
    fn certain_points_reduce_to_deterministic_cost() {
        let s = UncertainSet::new(vec![
            UncertainPoint::certain(Point::scalar(0.0)),
            UncertainPoint::certain(Point::scalar(10.0)),
        ]);
        let centers = vec![Point::scalar(1.0)];
        let e = ecost_unassigned(&s, &centers, &Euclidean);
        assert!((e - 9.0).abs() < 1e-12);
        let ea = ecost_assigned(&s, &centers, &[0, 0], &Euclidean);
        assert!((ea - 9.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let exact = ecost_unassigned(&s, &centers, &Euclidean);
        let mut rng = StdRng::seed_from_u64(7);
        let mc = ecost_monte_carlo(&s, &centers, None, &Euclidean, 100_000, &mut rng);
        assert!(
            (mc.mean - exact).abs() < 5.0 * mc.std_error + 1e-3,
            "mc {} vs exact {exact} (se {})",
            mc.mean,
            mc.std_error
        );
    }

    #[test]
    fn monte_carlo_assigned_converges() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let assignment = vec![0usize, 1];
        let exact = ecost_assigned(&s, &centers, &assignment, &Euclidean);
        let mut rng = StdRng::seed_from_u64(11);
        let mc = ecost_monte_carlo(
            &s,
            &centers,
            Some(&assignment),
            &Euclidean,
            100_000,
            &mut rng,
        );
        assert!((mc.mean - exact).abs() < 5.0 * mc.std_error + 1e-3);
    }

    #[test]
    fn hand_computed_example() {
        // One point on a line, locations 0 (p=0.5) and 2 (p=0.5), center 0:
        // Ecost = 0.5*0 + 0.5*2 = 1.
        let s = UncertainSet::new(vec![UncertainPoint::new(
            vec![Point::scalar(0.0), Point::scalar(2.0)],
            vec![0.5, 0.5],
        )
        .unwrap()]);
        let c = vec![Point::scalar(0.0)];
        assert!((ecost_unassigned(&s, &c, &Euclidean) - 1.0).abs() < 1e-12);

        // Two iid points, same setup: max is 2 unless both realize at 0:
        // E = 0.75*2 = 1.5.
        let s2 = UncertainSet::new(vec![s[0].clone(), s[0].clone()]);
        assert!((ecost_unassigned(&s2, &c, &Euclidean) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_and_cdf_consistency() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        let assignment = vec![0usize, 1];
        // CDF at the 1.0-quantile must be 1; CDF is monotone in t.
        let worst = cost_quantile_assigned(&s, &centers, &assignment, &Euclidean, 1.0);
        assert!(
            (cost_cdf_assigned(&s, &centers, &assignment, &Euclidean, worst) - 1.0).abs() < 1e-12
        );
        let med = cost_quantile_assigned(&s, &centers, &assignment, &Euclidean, 0.5);
        assert!(med <= worst + 1e-12);
        assert!(cost_cdf_assigned(&s, &centers, &assignment, &Euclidean, med) >= 0.5);
        // Just below the median the CDF must be < 0.5 (med is the smallest
        // atom reaching it).
        assert!(cost_cdf_assigned(&s, &centers, &assignment, &Euclidean, med - 1e-9) < 0.5);
        // The expectation lies between the 0+ quantile and the worst case.
        let e = ecost_assigned(&s, &centers, &assignment, &Euclidean);
        assert!(e <= worst + 1e-12);
    }

    #[test]
    fn cdf_matches_enumeration() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.5, 0.0]), Point::new(vec![5.5, 0.5])];
        for t in [0.5f64, 1.0, 2.0, 5.0] {
            let fast = cost_cdf_unassigned(&s, &centers, &Euclidean, t);
            // Enumerate: sum prob of realizations whose max distance <= t.
            let mut slow = 0.0;
            for (idx, prob) in crate::realization::RealizationIter::new(&s) {
                let max = idx
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| Euclidean.dist_to_set(&s[i].locations()[j], &centers))
                    .fold(0.0f64, f64::max);
                if max <= t {
                    slow += prob;
                }
            }
            assert!((fast - slow).abs() < 1e-12, "t={t}: {fast} vs {slow}");
        }
    }

    #[test]
    #[should_panic(expected = "assignment index out of range")]
    fn bad_assignment_panics() {
        let s = set2d();
        let centers = vec![Point::new(vec![0.0, 0.0])];
        let _ = ecost_assigned(&s, &centers, &[0, 5], &Euclidean);
    }
}
