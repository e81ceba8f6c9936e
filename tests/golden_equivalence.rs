//! Golden-equivalence suite. `Problem::solve` must reproduce, **bit for
//! bit**, what the 0.1 free functions (the Euclidean and the metric
//! solve) returned for every rule × strategy combination, and
//! `solve_batch` must be bit-identical to the sequential loop. All float comparisons
//! here are exact (`to_bits`), not tolerance-based.
//!
//! The 0.1 functions are gone. Their outputs survive as one 64-bit
//! FNV-1a digest per combination ([`digest`]), recorded from them before
//! their removal: the bits of every center coordinate, the assignment,
//! the bits of every representative, `ecost` and `certain_radius`.

use std::sync::Arc;
use uncertain_kcenter::prelude::AssignmentRule::{
    ExpectedDistance as ED, ExpectedPoint as EP, OneCenter as OC,
};
use uncertain_kcenter::prelude::*;

/// The certain strategies the 0.1 API offered, with the options the pins
/// were recorded under.
#[derive(Clone, Copy, Debug)]
enum Strategy {
    Gonzalez,
    LocalSearch,
    Grid,
    Exact,
}

/// The configuration the 0.1 wrappers ran `strategy` under: the lower
/// bound off, caller options forwarded.
fn config(rule: AssignmentRule, strategy: Strategy) -> SolverConfig {
    let builder = SolverConfig::builder().rule(rule).lower_bound(false);
    match strategy {
        Strategy::Gonzalez => builder.strategy(CertainStrategy::Gonzalez),
        Strategy::LocalSearch => {
            builder.strategy(CertainStrategy::GonzalezLocalSearch { rounds: 25 })
        }
        Strategy::Grid => builder
            .strategy(CertainStrategy::Grid)
            .grid_limits(GridOptions {
                eps: 0.5,
                ..Default::default()
            }),
        Strategy::Exact => builder
            .strategy(CertainStrategy::ExactDiscrete)
            .exact_limits(ExactOptions::default()),
    }
    .build()
    .expect("the pinned configs are valid")
}

/// The 64-bit words a center or representative contributes to a digest.
trait Words {
    fn words(&self) -> Vec<u64>;
}

impl Words for Point {
    fn words(&self) -> Vec<u64> {
        self.coords().iter().map(|c| c.to_bits()).collect()
    }
}

impl Words for usize {
    fn words(&self) -> Vec<u64> {
        vec![*self as u64]
    }
}

/// 64-bit FNV-1a over the little-endian bytes of, in order: every center
/// word, every assignment entry, every representative word,
/// `ecost.to_bits()` and `certain_radius.to_bits()`.
fn digest<P: Words>(sol: &Solution<P>) -> u64 {
    let mut words: Vec<u64> = sol.centers.iter().flat_map(Words::words).collect();
    words.extend(sol.assignment.iter().map(|&a| a as u64));
    words.extend(sol.representatives.iter().flat_map(Words::words));
    words.push(sol.ecost.to_bits());
    words.push(sol.certain_radius.to_bits());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(seed, rule, strategy, digest)` of the 0.1 Euclidean solve with
/// `k = 3` on `clustered(seed, 14, 3, 2, 3, 5.0, 1.2, ProbModel::Random)`.
const EUCLIDEAN_PINS: [(u64, AssignmentRule, Strategy, u64); 36] = [
    (1, ED, Strategy::Gonzalez, 0x9b97_1d33_a368_ecb0),
    (1, ED, Strategy::LocalSearch, 0x57a3_ebde_4f21_206d),
    (1, ED, Strategy::Grid, 0xa13b_39a4_1aad_0aae),
    (1, ED, Strategy::Exact, 0x57a3_ebde_4f21_206d),
    (1, EP, Strategy::Gonzalez, 0x9b97_1d33_a368_ecb0),
    (1, EP, Strategy::LocalSearch, 0x57a3_ebde_4f21_206d),
    (1, EP, Strategy::Grid, 0xa13b_39a4_1aad_0aae),
    (1, EP, Strategy::Exact, 0x57a3_ebde_4f21_206d),
    (1, OC, Strategy::Gonzalez, 0xdec9_6ed6_2056_5ea3),
    (1, OC, Strategy::LocalSearch, 0xc67e_9aa7_5e2e_c8ab),
    (1, OC, Strategy::Grid, 0x821c_2e06_a1f1_e4ac),
    (1, OC, Strategy::Exact, 0xc67e_9aa7_5e2e_c8ab),
    (7, ED, Strategy::Gonzalez, 0xb643_f045_0e4d_395f),
    (7, ED, Strategy::LocalSearch, 0x9df7_8bff_71a7_e72d),
    (7, ED, Strategy::Grid, 0x0e69_d47a_ef98_dc9e),
    (7, ED, Strategy::Exact, 0xdea2_93bd_0670_2131),
    (7, EP, Strategy::Gonzalez, 0xb643_f045_0e4d_395f),
    (7, EP, Strategy::LocalSearch, 0x9df7_8bff_71a7_e72d),
    (7, EP, Strategy::Grid, 0x0e69_d47a_ef98_dc9e),
    (7, EP, Strategy::Exact, 0xdea2_93bd_0670_2131),
    (7, OC, Strategy::Gonzalez, 0x96b0_e794_e576_5684),
    (7, OC, Strategy::LocalSearch, 0xd00b_5920_6e43_c6e0),
    (7, OC, Strategy::Grid, 0xffd5_a82c_5e00_cdfe),
    (7, OC, Strategy::Exact, 0x5cc4_e9b0_348e_973f),
    (23, ED, Strategy::Gonzalez, 0xd01e_605f_0d21_e37e),
    (23, ED, Strategy::LocalSearch, 0x4e05_abd8_ffda_0551),
    (23, ED, Strategy::Grid, 0xdb12_d80d_da72_dfe0),
    (23, ED, Strategy::Exact, 0x4e05_abd8_ffda_0551),
    (23, EP, Strategy::Gonzalez, 0xd01e_605f_0d21_e37e),
    (23, EP, Strategy::LocalSearch, 0x4e05_abd8_ffda_0551),
    (23, EP, Strategy::Grid, 0xdb12_d80d_da72_dfe0),
    (23, EP, Strategy::Exact, 0x4e05_abd8_ffda_0551),
    (23, OC, Strategy::Gonzalez, 0x1eb6_f2ac_9900_036a),
    (23, OC, Strategy::LocalSearch, 0xbc61_f43a_c702_4fb7),
    (23, OC, Strategy::Grid, 0x1033_6337_c98c_37aa),
    (23, OC, Strategy::Exact, 0xbc61_f43a_c702_4fb7),
];

/// `(seed, rule, strategy, digest)` of the 0.1 metric solve with `k = 2`
/// over the 4 × 5 grid graph with every vertex as candidate, on
/// `on_finite_metric(seed, 20, 8, 3, ProbModel::Random)`.
const METRIC_PINS: [(u64, AssignmentRule, Strategy, u64); 12] = [
    (2, ED, Strategy::Gonzalez, 0xdfee_9fc3_2266_336a),
    (2, ED, Strategy::LocalSearch, 0xe158_e7f5_2611_d046),
    (2, ED, Strategy::Exact, 0x0f4c_6478_ab28_be5b),
    (2, OC, Strategy::Gonzalez, 0xdfee_9fc3_2266_336a),
    (2, OC, Strategy::LocalSearch, 0x340d_3cd9_3038_6a28),
    (2, OC, Strategy::Exact, 0xc228_917f_8c6a_0610),
    (11, ED, Strategy::Gonzalez, 0x2f17_8a1f_d42f_6397),
    (11, ED, Strategy::LocalSearch, 0xfce0_3398_187c_058b),
    (11, ED, Strategy::Exact, 0xc53a_93a1_9809_a86c),
    (11, OC, Strategy::Gonzalez, 0xcb36_c1dd_5a33_9adb),
    (11, OC, Strategy::LocalSearch, 0xd405_9c2c_571d_6417),
    (11, OC, Strategy::Exact, 0xc53a_93a1_9809_a86c),
];

fn assert_pinned(got: u64, pin: u64, ctx: &str) {
    assert!(got == pin, "{ctx}: digest {got:#018x}, pinned {pin:#018x}");
}

fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

#[test]
fn euclidean_problem_solve_matches_legacy_bit_for_bit() {
    for (seed, rule, strategy, pin) in EUCLIDEAN_PINS {
        let set = clustered(seed, 14, 3, 2, 3, 5.0, 1.2, ProbModel::Random);
        let sol = Problem::euclidean(set, 3)
            .unwrap()
            .solve(&config(rule, strategy))
            .unwrap();
        let ctx = format!("seed {seed} rule {rule:?} strategy {strategy:?}");
        assert_pinned(digest(&sol), pin, &ctx);
    }
}

#[test]
fn metric_problem_solve_matches_legacy_bit_for_bit() {
    let fm = WeightedGraph::grid(4, 5, 1.0)
        .shortest_path_metric()
        .unwrap();
    let ids = fm.ids();
    for (seed, rule, strategy, pin) in METRIC_PINS {
        let set = on_finite_metric(seed, fm.len(), 8, 3, ProbModel::Random);
        let sol = Problem::in_metric(set, 2, fm.clone(), ids.clone())
            .unwrap()
            .solve(&config(rule, strategy))
            .unwrap();
        let ctx = format!("seed {seed} rule {rule:?} strategy {strategy:?}");
        assert_pinned(digest(&sol), pin, &ctx);
    }
}

#[test]
fn solve_batch_is_bit_identical_to_sequential_euclidean() {
    let config = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedPoint)
        .build()
        .unwrap();
    let problems: Vec<Problem<Point>> = (0..12)
        .map(|seed| {
            let set = clustered(
                seed,
                10 + seed as usize,
                3,
                2,
                2,
                4.0,
                1.0,
                ProbModel::Random,
            );
            Problem::euclidean(set, 2).unwrap()
        })
        .collect();
    let sequential: Vec<_> = problems.iter().map(|p| p.solve(&config)).collect();
    for threads in [2usize, 4, 8] {
        let batch = solve_batch_threads(&problems, &config, threads);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
            let ctx = format!("problem {i}, {threads} threads");
            assert_eq!(b.centers, s.centers, "centers: {ctx}");
            assert_eq!(b.assignment, s.assignment, "assignment: {ctx}");
            assert_bits_eq(b.ecost, s.ecost, &format!("ecost: {ctx}"));
            assert_eq!(
                b.report.lower_bound.map(f64::to_bits),
                s.report.lower_bound.map(f64::to_bits),
                "lower bound: {ctx}"
            );
        }
    }
}

#[test]
fn solve_batch_is_bit_identical_to_sequential_metric() {
    let fm = WeightedGraph::cycle(14, 1.0)
        .shortest_path_metric()
        .unwrap();
    let pool: Arc<[usize]> = Arc::from(fm.ids());
    let metric: Arc<dyn Metric<usize> + Send + Sync> = Arc::new(fm.clone());
    let config = SolverConfig::builder()
        .rule(AssignmentRule::OneCenter)
        .build()
        .unwrap();
    let problems: Vec<Problem<usize>> = (0..8)
        .map(|seed| {
            let set = on_finite_metric(seed, fm.len(), 6, 3, ProbModel::Random);
            Problem::in_metric_shared(set, 2, Arc::clone(&metric), Arc::clone(&pool)).unwrap()
        })
        .collect();
    let sequential: Vec<_> = problems.iter().map(|p| p.solve(&config)).collect();
    let batch = solve_batch_threads(&problems, &config, 4);
    for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
        let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
        assert_eq!(b.centers, s.centers, "centers: problem {i}");
        assert_eq!(b.assignment, s.assignment, "assignment: problem {i}");
        assert_bits_eq(b.ecost, s.ecost, &format!("ecost: problem {i}"));
    }
}

#[test]
fn batch_surfaces_per_problem_errors_in_order() {
    let good = clustered(1, 6, 2, 2, 2, 4.0, 1.0, ProbModel::Random);
    // An EP-rule config against a discrete problem: the batch reports the
    // typed error in that slot without disturbing its neighbors.
    let fm = WeightedGraph::cycle(6, 1.0).shortest_path_metric().unwrap();
    let discrete = Problem::in_metric(
        on_finite_metric(3, fm.len(), 4, 2, ProbModel::Random),
        2,
        fm,
        (0..6).collect(),
    )
    .unwrap();
    let config = SolverConfig::builder()
        .rule(AssignmentRule::ExpectedPoint)
        .build()
        .unwrap();
    // Mixed batches are possible per-space; here both problems are
    // discrete so every slot fails the same way deterministically.
    let problems = vec![discrete.clone(), discrete];
    let results = solve_batch_threads(&problems, &config, 4);
    for r in &results {
        assert_eq!(
            r.as_ref().err(),
            Some(&SolveError::RuleUnsupported {
                rule: AssignmentRule::ExpectedPoint,
                space: "discrete"
            })
        );
    }
    // And a Euclidean problem under the same config succeeds.
    let ok = Problem::euclidean(good, 2).unwrap().solve(&config);
    assert!(ok.is_ok());
}
