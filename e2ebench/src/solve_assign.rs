//! `solve_assign`: a closed loop with one caller repeating a cold
//! `Problem::solve` on one generated clustered instance (n = 20,000
//! uncertain points, z = 4, d = 8, 16 clusters, k = 64) under the ED rule
//! with the lower bound off and the default kernel and strategy.
//!
//! The kernel, k-center, cost-sweep and pool layers do nearly all the
//! work here; geometry, JSON, HTTP and durability do none.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ukc_core::assignments::assign_ed_exec;
use ukc_core::{AssignmentRule, Problem, Solution, SolverConfig};
use ukc_kcenter::gonzalez;
use ukc_metric::batch::{dists_to_one, dists_to_set_min, nearest_center_each};
use ukc_metric::{DistCounter, Kernel, Point, PointId, PointStore, StoreOracle};
use ukc_pool::Exec;
use ukc_uncertain::generators::{clustered, ProbModel};
use ukc_uncertain::{ecost_assigned_exec, expected_point, UncertainPoint, UncertainSet};

use crate::host;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const N: usize = 20_000;
const Z: usize = 4;
const DIM: usize = 8;
const CLUSTERS: usize = 16;
const K: usize = 64;
/// Factor of the ED rule over the optimum (paper Theorem 2.2 with the
/// Gonzalez certain solver). The check `ecost <= ED_FACTOR * bound` is
/// stricter than the theorem, since the certified bound is at most the
/// optimum; on these instances the ratio is about 2.1, so it only trips on
/// a gross regression of the answer or of the bound.
const ED_FACTOR: f64 = 6.0;
/// Set-up repetitions behind the reported median.
const SETUP_REPS: usize = 7;
/// The timed loop runs as this many equal segments of `--seconds`...
const SEGMENTS: usize = 5;
/// ...plus up to this many more when the host disturbed some of them.
const EXTRA_SEGMENTS: usize = 2;

/// The workload's instance, a pure function of the seed.
pub fn instance(seed: u64) -> UncertainSet<Point> {
    clustered(seed, N, Z, DIM, CLUSTERS, 5.0, 1.0, ProbModel::Random)
}

fn config(kernel: Kernel) -> SolverConfig {
    SolverConfig::builder()
        .rule(AssignmentRule::ExpectedDistance)
        .lower_bound(false)
        .kernel(kernel)
        .build()
        .expect("valid config")
}

/// FNV-1a over the centers' coordinate bits and the assignment.
fn solution_digest(sol: &Solution<Point>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in &sol.centers {
        for &x in c.coords() {
            eat(x.to_bits());
        }
    }
    for &a in &sol.assignment {
        eat(a as u64);
    }
    h
}

/// The offset-precision probe: the instance's locations translated by
/// 1e6 in every coordinate, `dists_to_one` under the default kernel
/// against `Kernel::Scalar`, for 16 query rows; the maximum relative
/// error over all nonzero distances.
pub fn offset_rel_err(set: &UncertainSet<Point>) -> f64 {
    let mut store = PointStore::with_capacity(DIM, set.total_locations());
    for up in set.iter() {
        for loc in up.locations() {
            let shifted: Vec<f64> = loc.coords().iter().map(|c| c + 1e6).collect();
            store.push(&shifted);
        }
    }
    let ids = store.ids();
    let mut fast = vec![0.0; ids.len()];
    let mut exact = vec![0.0; ids.len()];
    let mut worst = 0.0f64;
    for q in (0..16).map(|i| ids[i * ids.len() / 16]) {
        dists_to_one(&store, &ids, q, Kernel::default(), &mut fast);
        dists_to_one(&store, &ids, q, Kernel::Scalar, &mut exact);
        for (f, e) in fast.iter().zip(&exact) {
            if *e > 0.0 {
                worst = worst.max((f - e).abs() / e);
            }
        }
    }
    worst
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let set = instance(ctx.seed);
    if ctx.trace {
        return traced(ctx, set);
    }
    let mut out = Outcome::default();

    // Set-up: pool start (once per process), then loading the instance
    // from raw coordinates — point and distribution validation,
    // `UncertainSet::new`, `Problem::euclidean` — repeated; the median
    // load is reported.
    let t = Instant::now();
    let pool = ukc_pool::global();
    let pool_start = t.elapsed().as_secs_f64();
    let raw: Vec<(Vec<Vec<f64>>, Vec<f64>)> = set
        .iter()
        .map(|up| {
            let locs = up.locations().iter().map(|p| p.coords().to_vec()).collect();
            (locs, up.probs().to_vec())
        })
        .collect();
    let mut builds = Vec::new();
    let mut problem = None;
    for _ in 0..SETUP_REPS {
        let owned = raw.clone();
        let t = Instant::now();
        let points = owned
            .into_iter()
            .map(|(locs, probs)| {
                let locs = locs
                    .into_iter()
                    .map(Point::try_new)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                UncertainPoint::new(locs, probs).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let p = Problem::euclidean(UncertainSet::new(points), K).map_err(|e| e.to_string())?;
        builds.push(t.elapsed().as_secs_f64());
        problem = Some(p);
    }
    let problem = problem.expect("built at least once");
    let setup_s = pool_start + median(&builds);
    let set = problem.set().clone();

    // Reference answer (scalar kernel) and the certified bound, both
    // outside every timed span.
    let cfg = config(Kernel::default());
    let reference = problem
        .solve(&config(Kernel::Scalar))
        .map_err(|e| e.to_string())?;
    let ref_digest = solution_digest(&reference);
    let lb = ukc_core::lower_bound_euclidean(&set, K);

    // The timed closed loop, in segments. Segments the host disturbed
    // (CPU stolen by its neighbours) are made up with up to
    // EXTRA_SEGMENTS more, and the least disturbed SEGMENTS are reported.
    let seg_secs = ctx.seconds / SEGMENTS as f64;
    let mut ecost = f64::NAN;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let segment = || -> Result<(Vec<f64>, f64), String> {
        let steal = host::StealMeter::start();
        let mut lat = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seg_secs {
            attempted += 1;
            let t = Instant::now();
            let sol = std::hint::black_box(problem.solve(&cfg));
            let dt = t.elapsed().as_secs_f64() * 1e3;
            match sol {
                Ok(sol) => {
                    lat.push(dt);
                    let same = solution_digest(&sol) == ref_digest
                        || ((sol.ecost - reference.ecost).abs() <= 1e-9 * reference.ecost.abs());
                    out.check(same, || {
                        format!(
                            "solve {attempted}: ecost {} differs from the scalar reference {}",
                            sol.ecost, reference.ecost
                        )
                    });
                    ecost = sol.ecost;
                }
                Err(e) => {
                    failed += 1;
                    out.check(false, || format!("solve {attempted} failed: {e}"));
                }
            }
        }
        Ok((lat, steal.share()))
    };
    let (segments, stamp) =
        host::keep_calm(Vec::new(), SEGMENTS, EXTRA_SEGMENTS, |s| s.1, segment)?;
    out.stamp("segments", stamp);
    out.check(ecost <= ED_FACTOR * lb, || {
        format!("ecost {ecost} exceeds {ED_FACTOR} x the certified bound {lb}")
    });
    let lat: Vec<f64> = segments.into_iter().flat_map(|s| s.0).collect();
    let s = stats::summarize(&lat);

    let rss = crate::http::peak_rss_mb("/proc/self/status");
    out.attempted = attempted;
    out.failed = failed;
    out.set("setup_s", setup_s);
    out.set("p50_ms", s.p50);
    out.set("cost_over_lb", ecost / lb);
    out.set("peak_rss_mb", rss);
    out.timing("solve_p50_ms", "solve_tail_ms", &s);
    out.line(format!(
        "ecost_over_lb = {:.6} ratio (ecost {ecost}, bound {lb})",
        ecost / lb
    ));
    out.line(format!(
        "solves_per_s = {:.4} 1/s (kept segments)",
        lat.len() as f64 / (seg_secs * SEGMENTS as f64)
    ));
    out.line(format!(
        "error_share = {} ratio ({failed} of {attempted})",
        failed as f64 / attempted as f64
    ));
    out.line(format!("peak_rss_mb = {rss:.2} MiB (benchmark process)"));
    out.line(format!(
        "setup_s = {setup_s:.6} s (pool start {pool_start:.6} s + median of {} loads from raw coordinates)",
        builds.len()
    ));
    out.stamp("pool_threads", pool.threads().to_string());
    out.stamp(
        "instance",
        format!("{{\"n\":{N},\"z\":{Z},\"dim\":{DIM},\"clusters\":{CLUSTERS},\"k\":{K}}}"),
    );
    Ok(out)
}

/// Samples the pool's busy-lane gauge while `active` is set.
struct BusySampler {
    stop: AtomicBool,
    active: AtomicBool,
    busy_sum: AtomicU64,
    samples: AtomicU64,
}

fn traced(ctx: &Ctx, set: UncertainSet<Point>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool = ukc_pool::global();
    let problem = Problem::euclidean(set.clone(), K).map_err(|e| e.to_string())?;
    let kernel = Kernel::default();
    let cfg = config(kernel);
    let exec = Exec::auto(cfg.resolved_threads());
    let sampler = BusySampler {
        stop: AtomicBool::new(false),
        active: AtomicBool::new(false),
        busy_sum: AtomicU64::new(0),
        samples: AtomicU64::new(0),
    };
    let mut tr = Tracer::new();
    let (mut untraced, mut tasks, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut assign_sweep, mut gonzalez_sweep) = (Vec::new(), Vec::new());
    let mut pair_evals = 0u64;
    let mut replay_matches = true;
    let mut attempted = 0u64;

    std::thread::scope(|scope| -> Result<(), String> {
        scope.spawn(|| {
            while !sampler.stop.load(Ordering::Relaxed) {
                if sampler.active.load(Ordering::Relaxed) {
                    sampler
                        .busy_sum
                        .fetch_add(pool.stats().busy as u64, Ordering::Relaxed);
                    sampler.samples.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_micros(250));
            }
        });
        let start = Instant::now();
        let result = (|| {
            let mut r = 0u64;
            while start.elapsed().as_secs_f64() < ctx.seconds {
                attempted += 1;
                // Untraced twin of the traced solve, for the overhead share.
                let t = Instant::now();
                let _ = std::hint::black_box(problem.solve(&cfg));
                untraced.push(t.elapsed().as_secs_f64() * 1e3);

                let before = pool.stats();
                sampler.active.store(true, Ordering::Relaxed);
                let sol = tr
                    .span("core.solve", "solve", r, |_| problem.solve(&cfg))
                    .map_err(|e| e.to_string())?;
                sampler.active.store(false, Ordering::Relaxed);
                let after = pool.stats();
                tasks.push((after.tasks - before.tasks) as f64);
                chunks.push((after.chunks - before.chunks) as f64);

                // Stage-by-stage replay of the same pipeline through each
                // layer's public functions.
                let counter = DistCounter::new();
                let (store, set_ids, rep_ids, centers) = tr.span("request", "staged", r, |tr| {
                    let (mut store, set_ids) =
                        tr.span("metric.store", "staged", r, |_| set.indexed_store());
                    let reps: Vec<Point> = tr.span("uncertain.reps", "staged", r, |_| {
                        set.iter().map(expected_point).collect()
                    });
                    let rep_ids: Vec<PointId> = tr.span("metric.store", "staged", r, |_| {
                        reps.iter().map(|p| store.push_point(p)).collect()
                    });
                    let oracle = StoreOracle::new(&store, kernel)
                        .with_counter(&counter)
                        .with_exec(exec);
                    let certain = tr.span("kcenter.gonzalez", "staged", r, |_| {
                        gonzalez(&rep_ids, K, &oracle, 0)
                    });
                    let assignment = tr.span("core.assignment", "staged", r, |_| {
                        assign_ed_exec(&set_ids, &certain.centers, &oracle, exec)
                    });
                    let ecost = tr.span("uncertain.cost", "staged", r, |_| {
                        ecost_assigned_exec(&set_ids, &certain.centers, &assignment, &oracle, exec)
                    });
                    replay_matches &= ecost.to_bits() == sol.ecost.to_bits();
                    (store, set_ids, rep_ids, certain.centers)
                });
                pair_evals = counter.count();

                // The two kernel sweep shapes on the same store, sequential:
                // every location against the centers, and Gonzalez's
                // k min-updates over the representatives.
                let locs: Vec<PointId> = set_ids
                    .iter()
                    .flat_map(|up| up.locations().to_vec())
                    .collect();
                let mut near = vec![(0usize, 0.0f64); locs.len()];
                let t = Instant::now();
                nearest_center_each(&store, &locs, &centers, kernel, &mut near);
                assign_sweep.push(t.elapsed().as_secs_f64() * 1e3);
                let mut min = vec![f64::INFINITY; rep_ids.len()];
                let t = Instant::now();
                for &c in &centers {
                    dists_to_set_min(&store, &rep_ids, c, kernel, &mut min);
                }
                gonzalez_sweep.push(t.elapsed().as_secs_f64() * 1e3);
                r += 1;
            }
            Ok(())
        })();
        sampler.stop.store(true, Ordering::Relaxed);
        result
    })?;

    let solve_ms = tr.median_ms("core.solve", Some("solve"));
    let attributed_ms = median(&tr.attributed("staged").into_values().collect::<Vec<_>>()) * 1e3;
    let kc = tr.median_ms("kcenter.gonzalez", Some("staged"));
    let asg = tr.median_ms("core.assignment", Some("staged"));
    let cost = tr.median_ms("uncertain.cost", Some("staged"));
    let busy = sampler.busy_sum.load(Ordering::Relaxed) as f64
        / sampler.samples.load(Ordering::Relaxed).max(1) as f64
        / pool.threads() as f64;
    let unattributed = 1.0 - attributed_ms / solve_ms;
    out.attempted = attempted;
    out.set("metric.pair_evals", pair_evals as f64);
    out.set(
        "metric.pair_evals_per_s",
        pair_evals as f64 / ((kc + asg + cost) * 1e-3),
    );
    out.set("metric.assign_sweep_ms", median(&assign_sweep));
    out.set("metric.gonzalez_sweep_ms", median(&gonzalez_sweep));
    out.set("metric.offset_rel_err", offset_rel_err(&set));
    out.set("kcenter.gonzalez_ms", kc);
    out.set(
        "uncertain.reps_ms",
        tr.median_ms("uncertain.reps", Some("staged")),
    );
    out.set("uncertain.cost_ms", cost);
    out.set("core.assignment_ms", asg);
    out.set("core.solve_ms", solve_ms);
    out.set("pool.busy_share", busy);
    out.set("pool.tasks", median(&tasks));
    out.set("pool.chunks", median(&chunks));
    out.set("trace.overhead_share", solve_ms / median(&untraced) - 1.0);
    out.set("trace.unattributed_share", unattributed);
    for name in [
        "core.lower_bound_ms",
        "core.warm_evals_saved",
        "core.warm_fallback_share",
        "geometry.weiszfeld_ms",
        "json.parse_ms",
        "json.render_ms",
        "json.bytes_in",
        "json.bytes_out",
        "server.cache_hit_rate",
        "server.waves",
        "server.jobs_per_wave",
        "server.coalesced_jobs",
        "server.overloaded",
        "server.overhead_ms",
        "server.ingest_accepted",
        "server.ingest_rejected",
        "stream.push_chunk_ms",
        "stream.solution_ms",
        "durable.fsync_ms",
        "durable.append_push_ms",
        "durable.wal_bytes_per_push",
        "durable.replayed_epochs",
        "durable.snapshot_restores",
        "loadgen.late_ms_tail",
    ] {
        out.set(name, 0.0);
    }
    out.line(format!(
        "trace: solve p50 {solve_ms:.3} ms; layer self times sum to {attributed_ms:.3} ms \
         (metric.store {:.3}, uncertain.reps {:.3}, kcenter.gonzalez {kc:.3}, core.assignment {asg:.3}, \
         uncertain.cost {cost:.3}); the rest is inside Problem::solve between its stages \
         (id mirror, report assembly), which no public function exposes; {attempted} solves",
        tr.median_ms("metric.store", Some("staged")),
        tr.median_ms("uncertain.reps", Some("staged")),
    ));
    out.check(replay_matches, || {
        "the staged replay's ecost differs from Problem::solve's, so its attribution is not of the same work".into()
    });
    let spans = ctx
        .out_dir
        .join(format!("spans-solve_assign-{}.jsonl", ctx.seed));
    tr.write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    out.stamp("spans_file", format!("\"{}\"", spans.display()));
    Ok(out)
}
