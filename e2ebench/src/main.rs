//! `ukc-e2ebench`: the end-to-end benchmark of the uncertain k-center
//! stack, with a separate traced run that attributes time to layers.
//!
//! ```text
//! ukc-e2ebench --workload <solve_assign|serve_mixed|stream_durable>
//!              --seed <n> --seconds <s> --trace <0|1> --ukc <path to ukc>
//! ```
//!
//! Every workload's inputs come from `--seed`. The untraced run
//! (`--trace 0`) drives the system from outside — `ukc-core` in-process
//! and the release `ukc serve` binary over loopback — checks the answers,
//! and prints the end-to-end metrics. The traced run (`--trace 1`)
//! replays the same inputs in-process with a span around every call into
//! a layer's public functions and prints the per-layer metrics. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! give every metric by the name the workload notes in `WORKLOADS.md`
//! use, with sample counts, plus a run stamp. A failed correctness check
//! prints `"correct": false` and exits with status 1.

mod gen;
mod host;
mod http;
mod loadgen;
mod serve_mixed;
mod solve_assign;
mod stats;
mod stream_durable;
mod trace;

use std::path::PathBuf;

/// End-to-end metrics every untraced run reports in its result, with
/// units. Each workload maps its own headline figures onto these names
/// (see `WORKLOADS.md`); its tails and capacities are printed by name but
/// not part of the result, because on this kind of host they do not
/// repeat closely enough to gate on.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("cost_over_lb", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports. A layer that does no work
/// on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("metric.pair_evals", "count"),
    ("metric.pair_evals_per_s", "1/s"),
    ("metric.assign_sweep_ms", "ms"),
    ("metric.gonzalez_sweep_ms", "ms"),
    ("metric.offset_rel_err", "ratio"),
    ("kcenter.gonzalez_ms", "ms"),
    ("uncertain.reps_ms", "ms"),
    ("uncertain.cost_ms", "ms"),
    ("core.assignment_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.lower_bound_ms", "ms"),
    ("core.warm_evals_saved", "count"),
    ("core.warm_fallback_share", "ratio"),
    ("geometry.weiszfeld_ms", "ms"),
    ("pool.busy_share", "ratio"),
    ("pool.tasks", "count"),
    ("pool.chunks", "count"),
    ("json.parse_ms", "ms"),
    ("json.render_ms", "ms"),
    ("json.bytes_in", "B"),
    ("json.bytes_out", "B"),
    ("server.cache_hit_rate", "ratio"),
    ("server.waves", "count"),
    ("server.jobs_per_wave", "count"),
    ("server.coalesced_jobs", "count"),
    ("server.overloaded", "count"),
    ("server.overhead_ms", "ms"),
    ("server.ingest_accepted", "count"),
    ("server.ingest_rejected", "count"),
    ("stream.push_chunk_ms", "ms"),
    ("stream.solution_ms", "ms"),
    ("durable.fsync_ms", "ms"),
    ("durable.append_push_ms", "ms"),
    ("durable.wal_bytes_per_push", "B"),
    ("durable.replayed_epochs", "count"),
    ("durable.snapshot_restores", "count"),
    ("loadgen.late_ms_tail", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// What one workload run hands back to the printer.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness failure, as a message; empty means correct.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines: the workload's own metric names, sample
    /// counts, and where traced time went missing.
    pub lines: Vec<String>,
    /// Run-stamp entries as `(key, JSON value)`.
    pub stamp: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn stamp(&mut self, key: &str, json_value: impl Into<String>) {
        self.stamp.push((key.to_string(), json_value.into()));
    }

    /// Prints a timing summary under the workload's own metric names.
    pub fn timing(&mut self, p50_name: &str, tail_name: &str, s: &stats::Summary) {
        self.line(format!("{p50_name} = {:.4} ms (n={})", s.p50, s.n));
        self.line(format!(
            "{tail_name} = {:.4} ms (p{:.1}, n={}, {} beyond)",
            s.tail,
            s.tail_pct,
            s.n,
            stats::TAIL_BEYOND
        ));
        self.stamp(
            &format!("samples.{p50_name}"),
            format!("{{\"n\":{},\"tail_pct\":{:.2}}}", s.n, s.tail_pct),
        );
    }
}

/// Parsed command line plus the run's environment.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ukc: PathBuf,
    /// Scratch root inside the checkout (logs, data dirs, span files).
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ukc = PathBuf::from(get("--ukc").ok_or("missing --ukc")?);
    let out_dir = PathBuf::from(".bench_out");
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        ukc,
        out_dir,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run_stamp(ctx: &Ctx) -> Vec<(String, String)> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let q = |s: String| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'"));
    vec![
        ("workload".into(), q(ctx.workload.clone())),
        ("seed".into(), ctx.seed.to_string()),
        ("seconds".into(), json_num(ctx.seconds)),
        ("trace".into(), (ctx.trace as u8).to_string()),
        ("host_cpus".into(), cpus.to_string()),
        ("UKC_THREADS".into(), q(env("UKC_THREADS"))),
        ("rustc".into(), q(env("E2E_RUSTC"))),
        ("target_cpu".into(), q(env("E2E_TARGET_CPU"))),
        ("git_rev".into(), q(env("E2E_GIT_REV"))),
    ]
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ukc-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("ukc-e2ebench: {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    let steal = host::StealMeter::start();
    let result = match ctx.workload.as_str() {
        "solve_assign" => solve_assign::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        "stream_durable" => stream_durable::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ukc-e2ebench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };

    let table: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = out.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        let value = match value.filter(|v| v.is_finite()) {
            Some(v) => v,
            // A layer figure with nothing to measure this run (no sample
            // of its kind) reads 0, like a layer that did no work.
            None if ctx.trace => {
                println!("{name}: no sample this run");
                0.0
            }
            None => {
                out.failures.push(format!("metric {name} was not measured"));
                continue;
            }
        };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(value)
        ));
    }
    for l in &out.lines {
        println!("{l}");
    }
    let mut stamp = run_stamp(&ctx);
    // A run that reads slow with a high share was slowed by neighbours.
    stamp.push(("cpu_steal_share".into(), format!("{:.4}", steal.share())));
    stamp.append(&mut out.stamp);
    let stamp: Vec<String> = stamp.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("stamp {{{}}}", stamp.join(","));
    for f in &out.failures {
        eprintln!("ukc-e2ebench: check failed: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
