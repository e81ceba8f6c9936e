//! Gonzalez reads its radius off the coverage array its greedy already
//! maintains instead of re-sweeping every point against every center.
//! These tests pin that radius to the re-sweep it replaces —
//! `kcenter_cost` / `kcenter_cost_weighted` of the chosen centers — bit
//! for bit, for both kernels, 1 and 4 lanes, zero and nonzero weights,
//! `k >= n`, and duplicate points (the greedy's early exit).

use ukc_pool::{Exec, Pool};
use uncertain_kcenter::prelude::*;

/// Distinct rows of a store built with duplicates.
const DISTINCT: usize = 6;

/// `n` random rows in `[-5, 5)^d`; with `dups`, every row repeats one of
/// the first [`DISTINCT`] rows, so the greedy runs out of distinct points.
fn store(seed: u64, n: usize, d: usize, dups: bool) -> PointStore {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rnd() * 10.0 - 5.0).collect())
        .collect();
    let mut st = PointStore::new(d);
    for (i, row) in rows.iter().enumerate() {
        st.push(if dups { &rows[i % DISTINCT] } else { row });
    }
    st
}

/// The kernel the greedy's per-center sweeps run. Each dispatches on its
/// own `n` pairs, while the fused `kcenter_cost` sweep dispatches on
/// `n·k`; in the band `n·d < FACTORIZED_MIN_WORK <= n·k·d` (e.g. n = 300,
/// d = 8, k = 16) a tiled re-sweep would round differently from the
/// scalar sweeps that chose the centers, and the coverage radius is the
/// re-sweep under the sweep kernel.
fn sweep_kernel(kernel: Kernel, n: usize, d: usize) -> Kernel {
    kernel.dispatch(n, d)
}

#[test]
fn gonzalez_radius_equals_the_kcenter_cost_re_sweep_bitwise() {
    let pool = Pool::new(4);
    let shapes = [
        (1, 8, 1, false),
        (6, 8, 9, false),
        (40, 2, 40, false),
        (300, 8, 16, false),
        (300, 8, 16, true),
        (2_500, 8, 24, false),
        (9_000, 8, 12, false),
        (9_000, 3, 12, true),
    ];
    for (case, &(n, d, k, dups)) in shapes.iter().enumerate() {
        let st = store(case as u64 + 7, n, d, dups);
        let ids = st.ids();
        let spreads: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.3).collect();
        let zeros = vec![0.0; n];
        for kernel in Kernel::ALL {
            for lanes in [1, 4] {
                let exec = Exec::pooled(&pool, lanes);
                let oracle = StoreOracle::new(&st, kernel).with_exec(exec);
                let reference = StoreOracle::new(&st, sweep_kernel(kernel, n, d)).with_exec(exec);
                let ctx = format!("n={n} d={d} k={k} dups={dups} {kernel:?} lanes={lanes}");

                let gz = gonzalez(&ids, k, &oracle, 0);
                let cost = kcenter_cost(&ids, &gz.centers, &reference);
                assert_eq!(gz.radius.to_bits(), cost.to_bits(), "plain {ctx}");
                if dups {
                    assert_eq!(gz.centers.len(), DISTINCT, "early exit {ctx}");
                }

                for weights in [&zeros, &spreads] {
                    let gw = gonzalez_weighted(&ids, weights, k, &oracle, 0);
                    assert_eq!(
                        gw.center_indices,
                        gonzalez_indices_weighted(&ids, weights, k, &oracle, 0),
                        "indices {ctx}"
                    );
                    let cw: Vec<f64> = gw.center_indices.iter().map(|&i| weights[i]).collect();
                    let cost = kcenter_cost_weighted(&ids, &gw.centers, &cw, &reference);
                    assert_eq!(gw.radius.to_bits(), cost.to_bits(), "weighted {ctx}");
                }
            }
        }
    }
}

#[test]
fn gonzalez_spends_one_sweep_per_center() {
    // k·n evaluations: the radius costs none.
    let st = store(3, 5_000, 8, false);
    let ids = st.ids();
    for kernel in Kernel::ALL {
        let counter = DistCounter::new();
        let oracle = StoreOracle::new(&st, kernel).with_counter(&counter);
        let gz = gonzalez(&ids, 10, &oracle, 0);
        assert_eq!(gz.centers.len(), 10);
        assert_eq!(counter.count(), 10 * 5_000, "{kernel:?}");
    }
}
