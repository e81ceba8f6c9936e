//! `serve_mixed`: independent clients against one in-memory `ukc serve`
//! node with default flags, as an open loop at fixed offered rates over
//! two connections. Every request uses the wire defaults (so the
//! certified lower bound is on) with k = 4. The mix:
//!
//! | share | request |
//! |---|---|
//! | 10% | `POST /instances`, a fresh instance (n 100–400, z 3–5, d 2–8) |
//! | 55% | `POST /instances/{id}/solve`, ids by Zipf popularity |
//! | 15% | one-shot `POST /solve` of a Zipf-chosen instance, inline |
//! | 10% | `POST /instances/{id}/append?k=4`, 8 fresh points, uniform ids |
//! | 10% | `POST /solve_batch` of 4 Zipf-chosen ids |
//!
//! Each measured phase runs on a freshly started server primed with the
//! same uploads, so every phase (the reference rate and each ladder rung)
//! sees the same request sequence from the same state.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ukc_core::{digest_hex, digest_set, Problem, Solution, SolverConfig};
use ukc_geometry::{geometric_median, WeiszfeldOptions};
use ukc_json::format::{solution_document, JsonInstance};
use ukc_json::Json;
use ukc_metric::Point;
use ukc_uncertain::UncertainSet;

use crate::gen::{instance_doc, Rng, Shape};
use crate::host;
use crate::http::{get_json, num, Conn, ScratchDir, Server};
use crate::loadgen::{self, Phase};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const K: usize = 4;
/// Instances uploaded and solved once during set-up, before the first
/// timed request, so each phase starts from a warm cache.
const PRIME: usize = 24;
/// A request only names uploads made at least this many requests earlier.
const LAG: usize = 8;
/// Points per append chunk.
const APPEND_POINTS: usize = 8;
/// Latency limit on `req_tail_ms` for a rung to count as sustained. An
/// append here runs two solves with their certified bounds (the parent's,
/// cold, and the grown instance's), about 30 ms, so the tail of a lightly
/// loaded server already sits at 30–60 ms wherever two heavy requests
/// meet; a 50 ms limit falls on that plateau and the crossing rate swings
/// with every collision. 150 ms lies past the plateau, at the knee where
/// the server stops keeping up.
const TAIL_LIMIT_MS: f64 = 150.0;
/// The fixed reference rate (requests/s) for `req_p50_ms` / `req_tail_ms`.
const REF_RATE: f64 = 60.0;
/// Share of `--seconds` spent at the reference rate, split into
/// `SEGMENTS` equal segments.
const REF_SHARE: f64 = 0.36;
const SEGMENTS: usize = 3;
/// Extra reference segments a run may measure when the host disturbed
/// some of the first ones.
const EXTRA_SEGMENTS: usize = 2;
/// Share of `--seconds` each ladder probe runs.
const PROBE_SHARE: f64 = 0.1;
/// The rate ladder for `max_rps`: 24 rungs, 8% apart, from 60 req/s.
const LADDER_LO: f64 = 60.0;
const LADDER_STEP: f64 = 1.08;
const LADDER_RUNGS: usize = 24;
const LADDER_PROBES: usize = 5;
/// Untraced/traced replay pairs behind `trace.overhead_share`.
const TRACE_PASSES: usize = 3;

const KINDS: [&str; 5] = ["upload", "solve", "oneshot", "append", "batch"];
const UPLOAD: usize = 0;
const SOLVE: usize = 1;
const ONESHOT: usize = 2;
const APPEND: usize = 3;
const BATCH: usize = 4;

#[derive(Clone, Debug)]
enum Op {
    Upload(usize),
    Solve(usize),
    OneShot(usize),
    Append(usize, String),
    Batch([usize; 4]),
}

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Upload(_) => UPLOAD,
            Op::Solve(_) => SOLVE,
            Op::OneShot(_) => ONESHOT,
            Op::Append(..) => APPEND,
            Op::Batch(_) => BATCH,
        }
    }
}

/// Requests come in blocks of 20 with the mix's exact counts, shuffled
/// within each block by the seed: every phase sees the same proportions.
const BLOCK: [usize; 20] = [
    UPLOAD, UPLOAD, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE, SOLVE,
    ONESHOT, ONESHOT, ONESHOT, APPEND, APPEND, BATCH, BATCH,
];

/// The shape of instance `j`: fixed by its index, so the cost of the
/// mix does not swing with the seed; the seed moves the points.
fn shape(j: usize) -> Shape {
    Shape {
        n: 100 + (j * 131) % 301,
        z: 3 + j % 3,
        dim: 2 + (j * 3) % 7,
    }
}

/// The seeded request sequence. Its prefix does not depend on its
/// length, so every phase replays the same first requests.
struct Plan {
    docs: Vec<String>,
    dims: Vec<usize>,
    ops: Vec<Op>,
}

impl Plan {
    fn new(seed: u64, count: usize) -> Plan {
        let root = Rng::new(seed);
        let mut plan = Plan {
            docs: Vec::new(),
            dims: Vec::new(),
            ops: Vec::with_capacity(count),
        };
        let new_doc = |plan: &mut Plan| {
            let j = plan.docs.len();
            let mut r = root.fork(1000 + j as u64);
            plan.docs.push(instance_doc(&mut r, shape(j)));
            plan.dims.push(shape(j).dim);
            j
        };
        for _ in 0..PRIME {
            new_doc(&mut plan);
        }
        let mut rng = root.fork(1);
        // upload_at[j]: request index that uploads mix instance j.
        let mut upload_at: Vec<usize> = Vec::new();
        let mut block = BLOCK;
        for i in 0..count {
            if i % BLOCK.len() == 0 {
                for a in (1..block.len()).rev() {
                    block.swap(a, rng.range(0, a));
                }
            }
            let available = PRIME + upload_at.iter().filter(|&&at| at + LAG <= i).count();
            let op = match block[i % BLOCK.len()] {
                UPLOAD => {
                    upload_at.push(i);
                    Op::Upload(new_doc(&mut plan))
                }
                SOLVE => Op::Solve(rng.zipf(available)),
                ONESHOT => Op::OneShot(rng.zipf(available)),
                APPEND => {
                    let target = rng.range(0, available - 1);
                    let mut r = root.fork(500_000 + i as u64);
                    let chunk = Shape {
                        n: APPEND_POINTS,
                        z: 3,
                        dim: plan.dims[target],
                    };
                    Op::Append(target, instance_doc(&mut r, chunk))
                }
                _ => Op::Batch([0; 4].map(|_| rng.zipf(available))),
            };
            plan.ops.push(op);
        }
        plan
    }
}

/// Instance ids as the server assigned them, filled in as uploads
/// complete; a request naming an id waits for its upload.
struct Ids {
    v: Mutex<Vec<Option<String>>>,
    cv: Condvar,
}

impl Ids {
    fn new(n: usize) -> Ids {
        Ids {
            v: Mutex::new(vec![None; n]),
            cv: Condvar::new(),
        }
    }

    fn set(&self, j: usize, id: String) {
        self.v.lock().expect("ids lock")[j] = Some(id);
        self.cv.notify_all();
    }

    fn get(&self, j: usize) -> Option<String> {
        let guard = self.v.lock().expect("ids lock");
        let (guard, _) = self
            .cv
            .wait_timeout_while(guard, Duration::from_secs(20), |v| v[j].is_none())
            .expect("ids lock");
        guard[j].clone()
    }

    /// A complete id table, for replaying recorded requests.
    fn filled(v: &[Option<String>]) -> Ids {
        Ids {
            v: Mutex::new(v.to_vec()),
            cv: Condvar::new(),
        }
    }

    fn snapshot(&self) -> Vec<Option<String>> {
        self.v.lock().expect("ids lock").clone()
    }
}

fn parse_id(body: &[u8]) -> Option<String> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("id")?.as_str().map(str::to_string)
}

/// One request's wire form: method, path, body.
fn request(plan: &Plan, op: &Op, ids: &Ids) -> Option<(&'static str, String, String)> {
    Some(match op {
        Op::Upload(j) => ("POST", "/instances".into(), plan.docs[*j].clone()),
        Op::Solve(j) => (
            "POST",
            format!("/instances/{}/solve", ids.get(*j)?),
            format!("{{\"k\":{K}}}"),
        ),
        Op::OneShot(j) => (
            "POST",
            "/solve".into(),
            format!("{{\"k\":{K},\"instance\":{}}}", plan.docs[*j]),
        ),
        Op::Append(j, chunk) => (
            "POST",
            format!("/instances/{}/append?k={K}", ids.get(*j)?),
            chunk.clone(),
        ),
        Op::Batch(js) => {
            let mut names = Vec::new();
            for j in js {
                names.push(format!("\"{}\"", ids.get(*j)?));
            }
            (
                "POST",
                "/solve_batch".into(),
                format!("{{\"ids\":[{}],\"k\":{K}}}", names.join(",")),
            )
        }
    })
}

/// One measured phase on a fresh server.
struct PhaseRun {
    phase: Phase,
    /// `(request index, body)` of every successful response.
    bodies: Vec<(usize, Vec<u8>)>,
    /// The set-up solve of each primed instance.
    primed: Vec<Vec<u8>>,
    ids: Vec<Option<String>>,
    metrics: Json,
    setup_s: f64,
    rss_mb: f64,
}

fn run_phase(
    ctx: &Ctx,
    plan: &Plan,
    dir: &ScratchDir,
    tag: &str,
    rate: f64,
    count: usize,
) -> Result<PhaseRun, String> {
    // Set-up: boot, then the priming uploads and their solves.
    let t = Instant::now();
    let server = Server::start(&ctx.ukc, &[], &dir.join(&format!("{tag}.log")))?;
    let ids = Ids::new(plan.docs.len());
    let mut conn = Conn::new(&server.addr);
    let mut primed = Vec::with_capacity(PRIME);
    for j in 0..PRIME {
        let body = conn.expect_ok("POST", "/instances", plan.docs[j].as_bytes())?;
        let id = parse_id(&body).ok_or("upload response without id")?;
        primed.push(conn.expect_ok(
            "POST",
            &format!("/instances/{id}/solve"),
            format!("{{\"k\":{K}}}").as_bytes(),
        )?);
        ids.set(j, id);
    }
    let setup_s = t.elapsed().as_secs_f64();

    let bodies = Mutex::new(Vec::new());
    let mut lanes = vec![conn, Conn::new(&server.addr)];
    let send = |c: &mut Conn, i: usize| -> (usize, bool) {
        let op = &plan.ops[i];
        let Some((method, path, body)) = request(plan, op, &ids) else {
            return (op.kind(), false);
        };
        match c.request(method, &path, body.as_bytes()) {
            Ok((status, resp)) if (200..300).contains(&status) => {
                if let Op::Upload(j) = op {
                    match parse_id(&resp) {
                        Some(id) => ids.set(*j, id),
                        None => return (op.kind(), false),
                    }
                }
                bodies.lock().expect("bodies lock").push((i, resp));
                (op.kind(), true)
            }
            _ => (op.kind(), false),
        }
    };
    let phase = loadgen::open_loop(&mut lanes, count, rate, &send);
    let metrics = get_json(&mut lanes[0], "/metrics")?;
    let rss_mb = server.peak_rss_mb();
    server.kill();
    let mut bodies = bodies.into_inner().expect("bodies lock");
    bodies.sort_by_key(|(i, _)| *i);
    Ok(PhaseRun {
        phase,
        bodies,
        primed,
        ids: ids.snapshot(),
        metrics,
        setup_s,
        rss_mb,
    })
}

/// The solution documents inside one response (one, or a batch's slots).
fn solution_docs(plan: &Plan, index: usize, body: &[u8]) -> Vec<Json> {
    let Ok(doc) = Json::parse(&String::from_utf8_lossy(body)) else {
        return Vec::new();
    };
    match plan.ops[index] {
        Op::Solve(_) | Op::OneShot(_) => vec![doc],
        Op::Batch(_) => doc
            .get("solutions")
            .and_then(Json::as_array)
            .map(|a| a.to_vec())
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Every solution document of a phase with its raw body when it was a
/// response of its own (`None` for a batch slot): the set-up solves, then
/// the timed requests.
fn all_solution_docs<'a>(
    plan: &'a Plan,
    run: &'a PhaseRun,
) -> impl Iterator<Item = (Json, Option<&'a [u8]>)> + 'a {
    let primed = run.primed.iter().filter_map(|b| {
        Json::parse(&String::from_utf8_lossy(b))
            .ok()
            .map(|d| (d, Some(b.as_slice())))
    });
    let timed = run.bodies.iter().flat_map(move |(i, b)| {
        let single = !matches!(plan.ops[*i], Op::Batch(_));
        solution_docs(plan, *i, b)
            .into_iter()
            .map(move |d| (d, single.then_some(b.as_slice())))
    });
    primed.chain(timed)
}

/// In-process reference: the uploaded text, parsed the way the server
/// parses it.
fn parse_set(doc: &str) -> Result<UncertainSet<Point>, String> {
    JsonInstance::parse(doc)
        .and_then(|i| i.to_set())
        .map_err(|e| e.to_string())
}

/// The correctness checks on one phase: cache hits are byte-identical to
/// a miss of the same instance, and sampled misses equal an in-process
/// `Problem::solve` with the wire-default configuration. Returns the
/// median ecost / lower bound over the cold misses.
fn check_phase(plan: &Plan, run: &PhaseRun, out: &mut Outcome) -> f64 {
    let mut misses: HashMap<String, Vec<String>> = HashMap::new();
    let mut hits: Vec<(String, String)> = Vec::new();
    let mut ratios: BTreeMap<String, f64> = BTreeMap::new();
    let mut unfaithful = 0;
    for (doc, raw) in all_solution_docs(plan, run) {
        let Some(digest) = doc.get("instance_digest").and_then(Json::as_str) else {
            continue;
        };
        let digest = digest.to_string();
        // Compared as rendered by the server's serializer with the
        // `cached` flag cleared; parse(render(x)) is bit-exact, so equal
        // renders are equal documents. A response of its own must also be
        // exactly that render, byte for byte.
        if raw.is_some_and(|b| doc.pretty().as_bytes() != b) {
            unfaithful += 1;
        }
        let hit = doc.get("cached").and_then(Json::as_bool) == Some(true);
        let mut doc = doc;
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "cached" {
                    *v = Json::from(false);
                }
            }
        }
        let text = doc.pretty();
        if hit {
            hits.push((digest, text));
        } else {
            ratios.insert(
                digest.clone(),
                num(&doc, &["ecost"]) / num(&doc, &["lower_bound"]),
            );
            misses.entry(digest).or_default().push(text);
        }
    }
    out.check(unfaithful == 0, || {
        format!("{unfaithful} response bodies are not the serializer's rendering of themselves")
    });
    let mut bad_hits = 0;
    for (digest, text) in &hits {
        if !misses.get(digest).is_some_and(|m| m.contains(text)) {
            bad_hits += 1;
        }
    }
    out.check(bad_hits == 0, || {
        format!(
            "{bad_hits} of {} cache hits differ from every miss of their instance",
            hits.len()
        )
    });
    out.check(!hits.is_empty() && !misses.is_empty(), || {
        "the phase produced no cache hit or no miss to compare".into()
    });

    // Sampled misses against an in-process solve of the same text.
    let mut sampled = 0;
    for (j, id) in run.ids.iter().enumerate() {
        if sampled == 6 {
            break;
        }
        let Some(id) = id else { continue };
        let Some(miss_doc) = all_solution_docs(plan, run).map(|(d, _)| d).find(|d| {
            d.get("instance_digest").and_then(Json::as_str) == Some(id.as_str())
                && d.get("cached").and_then(Json::as_bool) == Some(false)
        }) else {
            continue;
        };
        sampled += 1;
        let set = match parse_set(&plan.docs[j]) {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || {
                    format!("instance {j} does not parse in-process: {e}")
                });
                continue;
            }
        };
        out.check(digest_hex(digest_set(&set)) == *id, || {
            format!("instance {j}: server id {id} differs from the in-process digest")
        });
        let local = Problem::euclidean(set, K).and_then(|p| p.solve(&SolverConfig::default()));
        let served = num(&miss_doc, &["ecost"]);
        match local {
            Ok(sol) => out.check(sol.ecost.to_bits() == served.to_bits(), || {
                format!(
                    "instance {id}: served ecost {served} != in-process {}",
                    sol.ecost
                )
            }),
            Err(e) => out.check(false, || {
                format!("instance {id}: in-process solve failed: {e}")
            }),
        }
    }
    out.check(sampled > 0, || {
        "no miss could be sampled for the in-process check".into()
    });
    median(&ratios.into_values().collect::<Vec<_>>())
}

/// One reference segment's figures.
struct Segment {
    all: stats::Summary,
    by_kind: Vec<Vec<f64>>,
    cost_over_lb: f64,
    rss_mb: f64,
    late_ms: f64,
    steal: f64,
}

/// A reference segment: a phase at the reference rate on a fresh server,
/// checked. A segment whose generator fell behind is re-run once and
/// otherwise makes the run invalid.
fn reference_segment(
    ctx: &Ctx,
    plan: &Plan,
    dir: &ScratchDir,
    count: usize,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<Segment, String> {
    let mut steal = host::StealMeter::start();
    let mut run = run_phase(ctx, plan, dir, "ref", REF_RATE, count)?;
    let mut steal_share = steal.share();
    tally.add(&run);
    if run.phase.late_tail_ms() > loadgen::MAX_GENERATOR_LATE_MS {
        steal = host::StealMeter::start();
        run = run_phase(ctx, plan, dir, "ref-retry", REF_RATE, count)?;
        steal_share = steal.share();
        tally.add(&run);
    }
    let late_ms = run.phase.late_tail_ms();
    if late_ms > loadgen::MAX_GENERATOR_LATE_MS {
        return Err(format!(
            "invalid run: the load generator woke up {late_ms:.1} ms late (tail), above {} ms",
            loadgen::MAX_GENERATOR_LATE_MS
        ));
    }
    let cost_over_lb = check_phase(plan, &run, out);
    Ok(Segment {
        all: stats::summarize(&run.phase.latencies(None)),
        by_kind: (0..KINDS.len())
            .map(|k| run.phase.latencies(Some(k)))
            .collect(),
        cost_over_lb,
        rss_mb: run.rss_mb,
        late_ms,
        steal: steal_share,
    })
}

/// Attempts, failures and set-up times over every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    setups: Vec<f64>,
}

impl Tally {
    fn add(&mut self, run: &PhaseRun) {
        self.attempted += run.phase.attempted();
        self.failed += run.phase.failed();
        self.setups.push(run.setup_s);
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ScratchDir::new(&ctx.out_dir, "serve_mixed")?;
    let seg_secs = REF_SHARE * ctx.seconds / SEGMENTS as f64;
    let probe_secs = PROBE_SHARE * ctx.seconds;
    let rungs = loadgen::ladder(LADDER_LO, LADDER_STEP, LADDER_RUNGS);
    let count = loadgen::count(REF_RATE, seg_secs);
    let plan = Plan::new(
        ctx.seed,
        loadgen::count(rungs[LADDER_RUNGS - 1], probe_secs).max(count),
    );
    if ctx.trace {
        return traced(ctx, &plan, &dir, count, seg_secs);
    }
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    // The reference segments are spread over the run — one before the
    // ladder, one inside it, one after — and reported by their median,
    // so one burst of host noise moves one segment, not the figure.
    let mut segments = vec![reference_segment(
        ctx, &plan, &dir, count, &mut tally, &mut out,
    )?];
    // max_rps: the highest ladder rung with tail <= limit, no failure and
    // no growing backlog.
    let (mut probe_log, mut probes) = (Vec::new(), Vec::new());
    let best = loadgen::search(&rungs, LADDER_PROBES, |rate| {
        let run = run_phase(
            ctx,
            &plan,
            &dir,
            "probe",
            rate,
            loadgen::count(rate, probe_secs),
        )?;
        tally.add(&run);
        let tail = stats::summarize(&run.phase.latencies(None)).tail;
        let pass = tail <= TAIL_LIMIT_MS && run.phase.failed() == 0 && !run.phase.backlog_grew();
        probes.push(loadgen::Probe {
            rate,
            tail_ms: tail,
            pass,
        });
        probe_log.push(format!(
            "{{\"rate\":{rate:.3},\"tail_ms\":{tail:.3},\"n\":{},\"failed\":{},\"backlog_grew\":{},\"pass\":{pass}}}",
            run.phase.attempted(),
            run.phase.failed(),
            run.phase.backlog_grew()
        ));
        if probe_log.len() == 2 {
            segments.push(reference_segment(
                ctx, &plan, &dir, count, &mut tally, &mut out,
            )?);
        }
        Ok(pass)
    })?;
    // Segments the host disturbed (CPU stolen by its neighbours) are
    // made up with up to EXTRA_SEGMENTS more, and the least disturbed
    // SEGMENTS are reported.
    let (segments, stamp) = host::keep_calm(
        segments,
        SEGMENTS,
        EXTRA_SEGMENTS,
        |s| s.steal,
        || reference_segment(ctx, &plan, &dir, count, &mut tally, &mut out),
    )?;
    out.stamp("segments", stamp);
    let max_rps = loadgen::capacity(&rungs, best, &probes, TAIL_LIMIT_MS).unwrap_or_else(|| {
        out.line("max_rps: even the lowest probed rung failed; reporting half the ladder's base");
        LADDER_LO / 2.0
    });
    let rung = best.map_or(0.0, |i| rungs[i]);

    let of = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    let (p50, tail) = (of(&|s| s.all.p50), of(&|s| s.all.tail));
    let (cost_over_lb, rss) = (of(&|s| s.cost_over_lb), of(&|s| s.rss_mb));
    let late = segments.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    let setup_s = median(&tally.setups);
    let (attempted, failed) = (tally.attempted, tally.failed);
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.set("setup_s", setup_s);
    out.set("p50_ms", p50);
    out.set("cost_over_lb", cost_over_lb);
    out.set("peak_rss_mb", rss);
    let seg = &segments[0].all;
    out.line(format!(
        "req_p50_ms = {p50:.4} ms (median of {SEGMENTS} segments of n={})",
        seg.n
    ));
    out.line(format!(
        "req_tail_ms = {tail:.4} ms (median of {SEGMENTS} segments' p{:.1}, n={} each, {} beyond)",
        seg.tail_pct,
        seg.n,
        stats::TAIL_BEYOND
    ));
    for (k, name) in KINDS.iter().enumerate() {
        let pooled: Vec<f64> = segments
            .iter()
            .flat_map(|s| s.by_kind[k].iter().copied())
            .collect();
        let s = stats::summarize(&pooled);
        out.line(format!(
            "req_p50_ms[{name}] = {:.4} ms; tail {:.4} ms (p{:.1}, n={}, all segments)",
            s.p50, s.tail, s.tail_pct, s.n
        ));
    }
    out.line(format!(
        "max_rps = {max_rps:.3} req/s (highest passing rung {rung:.3}, refined toward the next; {} probes)",
        probe_log.len()
    ));
    out.line(format!(
        "ecost_over_lb = {cost_over_lb:.6} ratio (median over cold misses)"
    ));
    out.line(format!(
        "error_share = {} ratio ({failed} of {attempted}, every phase)",
        failed as f64 / attempted.max(1) as f64
    ));
    out.line(format!(
        "peak_rss_mb = {rss:.2} MiB (server VmHWM, median of the reference segments)"
    ));
    out.line(format!(
        "setup_s = {setup_s:.6} s (median of {} boots + {PRIME} priming uploads and solves)",
        tally.setups.len()
    ));
    out.line(format!(
        "loadgen.late_ms_tail = {late:.4} ms (worst reference segment)"
    ));
    out.stamp("reference_rate", format!("{REF_RATE}"));
    out.stamp(
        "reference_segments",
        format!(
            "{{\"count\":{SEGMENTS},\"seconds\":{seg_secs:.3},\"n\":{},\"tail_pct\":{:.2}}}",
            seg.n, seg.tail_pct
        ),
    );
    out.stamp(
        "ladder",
        format!(
            "{{\"lo\":{LADDER_LO},\"step\":{LADDER_STEP},\"rungs\":{LADDER_RUNGS},\"probe_s\":{probe_secs:.3},\"tail_limit_ms\":{TAIL_LIMIT_MS},\"probes\":[{}]}}",
            probe_log.join(",")
        ),
    );
    Ok(out)
}

/// What one replay pass over the traced phase's requests collected.
#[derive(Default)]
struct Replay {
    replayed: usize,
    bytes_in: Vec<f64>,
    bytes_out: Vec<f64>,
    /// Every instance the phase cold-missed, once, as parsed.
    misses: Vec<UncertainSet<Point>>,
    secs: f64,
}

/// The in-process twin of a server's set-up: the primed instances,
/// parsed and solved, as the replay starts from them.
struct Primed {
    sets: HashMap<usize, UncertainSet<Point>>,
    solved: HashMap<String, Solution<Point>>,
}

impl Primed {
    fn new(plan: &Plan, run: &PhaseRun) -> Primed {
        let mut primed = Primed {
            sets: HashMap::new(),
            solved: HashMap::new(),
        };
        for j in 0..PRIME {
            let set = parse_set(&plan.docs[j]).expect("generated text parses");
            let (Some(id), Ok(sol)) = (
                run.ids[j].clone(),
                Problem::euclidean(set.clone(), K).and_then(|p| p.solve(&SolverConfig::default())),
            ) else {
                continue;
            };
            primed.sets.insert(j, set);
            primed.solved.insert(id, sol);
        }
        primed
    }
}

/// Replays the first `limit` successful requests of `run` in-process —
/// parse, digest, solve on a miss, render — with a span around each call
/// into a layer. A request the server answered from its cache is
/// replayed as a cache hit (parse and render only). Stops early once
/// `budget_s` has passed; `replayed` says how far it got.
fn replay(
    plan: &Plan,
    run: &PhaseRun,
    primed: &Primed,
    limit: usize,
    budget_s: f64,
    tr: &mut Tracer,
) -> Replay {
    let cfg = SolverConfig::default();
    let mut rep = Replay::default();
    let (mut sets, mut solved) = (primed.sets.clone(), primed.solved.clone());
    let ids = Ids::filled(&run.ids);
    let id_of = |j: usize| run.ids[j].clone().unwrap_or_default();
    let start = Instant::now();
    for (i, body) in run.bodies.iter().take(limit) {
        if start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let op = &plan.ops[*i];
        let kind = KINDS[op.kind()];
        let req = *i as u64;
        let Some((_, _, req_body)) = request(plan, op, &ids) else {
            continue;
        };
        rep.bytes_in.push(req_body.len() as f64);
        let hits: Vec<bool> = solution_docs(plan, *i, body)
            .iter()
            .map(|d| d.get("cached").and_then(Json::as_bool) == Some(true))
            .collect();
        let mut out_len = 0usize;
        tr.span("request", kind, req, |tr| {
            let Ok(parsed) = tr.span("json.parse", kind, req, |_| Json::parse(&req_body)) else {
                return;
            };
            // A stored instance is parsed once, at its upload.
            let mut stored = |j: usize, tr: &mut Tracer| -> UncertainSet<Point> {
                sets.entry(j)
                    .or_insert_with(|| {
                        tr.span("json.parse", kind, req, |_| {
                            parse_set(&plan.docs[j]).expect("generated text parses")
                        })
                    })
                    .clone()
            };
            // Solve on a miss (or when this process has not solved the
            // instance yet), then render the response document.
            let mut answer =
                |digest: String, set: UncertainSet<Point>, hit: bool, tr: &mut Tracer| -> usize {
                    if !hit || !solved.contains_key(&digest) {
                        let sol = tr.span("core.solve", kind, req, |_| {
                            Problem::euclidean(set.clone(), K).and_then(|p| p.solve(&cfg))
                        });
                        let Ok(sol) = sol else { return 0 };
                        if !hit && !solved.contains_key(&digest) {
                            rep.misses.push(set);
                        }
                        solved.insert(digest.clone(), sol);
                    }
                    let sol = &solved[&digest];
                    tr.span("json.render", kind, req, |_| {
                        let mut doc = solution_document(sol);
                        if let Json::Obj(pairs) = &mut doc {
                            pairs.push(("instance_digest".into(), Json::from(digest.as_str())));
                            pairs.push(("cached".into(), Json::from(hit)));
                        }
                        doc.pretty().len()
                    })
                };
            match op {
                Op::Upload(j) => {
                    let set = tr.span("json.parse", kind, req, |_| {
                        JsonInstance::from_json(&parsed).and_then(|d| d.to_set())
                    });
                    if let Ok(set) = set {
                        tr.span("core.digest", kind, req, |_| digest_set(&set));
                        sets.insert(*j, set);
                    }
                }
                Op::Solve(j) => {
                    let set = stored(*j, tr);
                    out_len += answer(id_of(*j), set, hits[0], tr);
                }
                Op::OneShot(_) => {
                    let set = tr.span("json.parse", kind, req, |_| {
                        JsonInstance::from_json(parsed.get("instance").expect("inline instance"))
                            .and_then(|d| d.to_set())
                    });
                    let Ok(set) = set else { return };
                    let digest =
                        tr.span("core.digest", kind, req, |_| digest_hex(digest_set(&set)));
                    out_len += answer(digest, set, hits[0], tr);
                }
                Op::Batch(js) => {
                    for (slot, j) in js.iter().enumerate() {
                        let set = stored(*j, tr);
                        out_len += answer(id_of(*j), set, hits.get(slot) == Some(&true), tr);
                    }
                }
                Op::Append(j, _) => {
                    let Ok(chunk) = tr.span("json.parse", kind, req, |_| {
                        JsonInstance::from_json(&parsed).and_then(|d| d.to_set())
                    }) else {
                        return;
                    };
                    let base = stored(*j, tr);
                    let grown = tr.span("core.digest", kind, req, |_| {
                        let mut points = base.points().to_vec();
                        points.extend(chunk.points().iter().cloned());
                        let grown = UncertainSet::new(points);
                        let _ = digest_set(&grown);
                        grown
                    });
                    // The warm start needs the parent's solution; like the
                    // server, solve the parent cold once when none exists.
                    let parent = id_of(*j);
                    if !solved.contains_key(&parent) {
                        let sol = tr.span("core.solve", kind, req, |_| {
                            Problem::euclidean(base, K).and_then(|p| p.solve(&cfg))
                        });
                        let Ok(sol) = sol else { return };
                        solved.insert(parent.clone(), sol);
                    }
                    let prior = &solved[&parent];
                    let warm = tr.span("core.solve", kind, req, |_| {
                        Problem::euclidean(grown, K)
                            .and_then(|p| Solution::warm_start(&p, &cfg, prior))
                    });
                    if let Ok(sol) = warm {
                        out_len += tr.span("json.render", kind, req, |_| {
                            solution_document(&sol).pretty().len()
                        });
                    }
                }
            }
        });
        rep.bytes_out.push(out_len as f64);
        rep.replayed += 1;
    }
    rep.secs = start.elapsed().as_secs_f64();
    rep
}

/// The traced run: the reference phase over HTTP, then an in-process
/// replay of its requests, once untraced and once with a span around
/// every call into a layer.
fn traced(
    ctx: &Ctx,
    plan: &Plan,
    dir: &ScratchDir,
    count: usize,
    budget_s: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run = run_phase(ctx, plan, dir, "traced", REF_RATE, count)?;
    // A warm-up pass (untraced) fixes how many requests fit the budget;
    // then untraced and traced passes alternate, and the overhead share
    // compares their medians.
    let primed = Primed::new(plan, &run);
    let limit = replay(
        plan,
        &run,
        &primed,
        usize::MAX,
        budget_s,
        &mut Tracer::off(),
    )
    .replayed;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut tr = Tracer::new();
    let mut rep = Replay::default();
    for _ in 0..TRACE_PASSES {
        plain_s.push(
            replay(
                plan,
                &run,
                &primed,
                limit,
                f64::INFINITY,
                &mut Tracer::off(),
            )
            .secs,
        );
        tr = Tracer::new();
        rep = replay(plan, &run, &primed, limit, f64::INFINITY, &mut tr);
        traced_s.push(rep.secs);
    }

    // Stage timings, the lower bound and the Weiszfeld loops of every
    // cold miss, outside the request spans.
    let cfg = SolverConfig::default();
    let (mut lb_ms, mut weisz_ms, mut evals, mut sweep_s) =
        (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let (mut reps, mut gonz, mut asg, mut cost) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let pool = ukc_pool::global();
    let before = pool.stats();
    // The set-up's solves were cold misses too.
    let primed_sets = (0..PRIME).filter_map(|j| primed.sets.get(&j));
    for set in primed_sets.chain(&rep.misses) {
        let Ok(sol) = Problem::euclidean(set.clone(), K).and_then(|p| p.solve(&cfg)) else {
            continue;
        };
        let t = &sol.report.timings;
        reps.push(t.representatives.as_secs_f64() * 1e3);
        gonz.push(t.certain_solve.as_secs_f64() * 1e3);
        asg.push(t.assignment.as_secs_f64() * 1e3);
        cost.push(t.cost.as_secs_f64() * 1e3);
        evals.push(sol.report.distance_evals.total() as f64);
        sweep_s += (t.certain_solve + t.assignment + t.cost).as_secs_f64();
        let t0 = Instant::now();
        let _ = std::hint::black_box(ukc_core::lower_bound_euclidean(set, K));
        lb_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        for up in set.iter() {
            let _ = std::hint::black_box(geometric_median(
                up.locations(),
                up.probs(),
                WeiszfeldOptions::default(),
            ));
        }
        weisz_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let after = pool.stats();

    // Warm-start provenance as served: each append's embedded solution.
    let (mut warm_saved, mut warm_fallback, mut warm_n) = (Vec::new(), 0usize, 0usize);
    for (i, body) in &run.bodies {
        if !matches!(plan.ops[*i], Op::Append(..)) {
            continue;
        }
        let Ok(doc) = Json::parse(&String::from_utf8_lossy(body)) else {
            continue;
        };
        if let Some(w) = doc
            .get("solution")
            .and_then(|s| s.get("report"))
            .and_then(|r| r.get("warm"))
        {
            warm_n += 1;
            if w.get("fallback").is_some_and(|f| *f != Json::Null) {
                warm_fallback += 1;
            } else {
                warm_saved.push(num(w, &["evals_saved"]));
            }
        }
    }

    // Attribution per request kind: the client-observed median against
    // the layer self times of the same requests.
    let mut attributed: HashMap<u64, f64> = HashMap::new();
    for kind in KINDS {
        for (req, secs) in tr.attributed(kind) {
            attributed.insert(req, secs * 1e3);
        }
    }
    let (mut client_sum, mut attr_sum, mut gap_ms) = (0.0, 0.0, Vec::new());
    for (k, name) in KINDS.iter().enumerate() {
        let pairs: Vec<(f64, f64)> = run
            .phase
            .samples
            .iter()
            .filter(|s| s.kind == k && s.ok)
            .filter_map(|s| {
                attributed
                    .get(&(s.index as u64))
                    .map(|a| (s.latency_ms(), *a))
            })
            .collect();
        if pairs.is_empty() {
            continue;
        }
        gap_ms.extend(pairs.iter().map(|(c, a)| c - a));
        let c = median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let a = median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        client_sum += c * pairs.len() as f64;
        attr_sum += a * pairs.len() as f64;
        out.line(format!(
            "trace[{name}]: client p50 {c:.3} ms, layers {a:.3} ms, unattributed {:.3} of it \
             (HTTP framing, queue wait and wave dispatch have no span in this run), n={}",
            1.0 - a / c,
            pairs.len()
        ));
    }
    let m = &run.metrics;
    let waves = num(m, &["scheduler", "waves"]);
    let solves = evals.len().max(1) as f64;

    out.attempted = run.phase.attempted() as u64;
    out.failed = run.phase.failed() as u64;
    out.set("metric.pair_evals", median(&evals));
    out.set(
        "metric.pair_evals_per_s",
        evals.iter().sum::<f64>() / sweep_s,
    );
    out.set(
        "metric.offset_rel_err",
        crate::solve_assign::offset_rel_err(&crate::solve_assign::instance(ctx.seed)),
    );
    out.set("kcenter.gonzalez_ms", median(&gonz));
    out.set("uncertain.reps_ms", median(&reps));
    out.set("uncertain.cost_ms", median(&cost));
    out.set("core.assignment_ms", median(&asg));
    out.set("core.solve_ms", tr.median_ms("core.solve", None));
    out.set("core.lower_bound_ms", median(&lb_ms));
    out.set(
        "core.warm_evals_saved",
        if warm_saved.is_empty() {
            0.0
        } else {
            median(&warm_saved)
        },
    );
    out.set(
        "core.warm_fallback_share",
        warm_fallback as f64 / warm_n.max(1) as f64,
    );
    out.set("geometry.weiszfeld_ms", median(&weisz_ms));
    out.set("pool.tasks", (after.tasks - before.tasks) as f64 / solves);
    out.set(
        "pool.chunks",
        (after.chunks - before.chunks) as f64 / solves,
    );
    out.set("json.parse_ms", tr.median_ms("json.parse", None));
    out.set("json.render_ms", tr.median_ms("json.render", None));
    out.set("json.bytes_in", median(&rep.bytes_in));
    out.set("json.bytes_out", median(&rep.bytes_out));
    out.set("server.cache_hit_rate", num(m, &["cache", "hit_rate"]));
    out.set("server.waves", waves);
    out.set(
        "server.jobs_per_wave",
        num(m, &["scheduler", "wave_jobs"]) / waves.max(1.0),
    );
    out.set(
        "server.coalesced_jobs",
        num(m, &["scheduler", "coalesced_jobs"]),
    );
    out.set("server.overloaded", num(m, &["scheduler", "overloaded"]));
    out.set("server.overhead_ms", median(&gap_ms));
    out.set("server.ingest_accepted", num(m, &["ingest", "accepted"]));
    out.set("server.ingest_rejected", num(m, &["ingest", "rejected"]));
    for name in [
        "metric.assign_sweep_ms",
        "metric.gonzalez_sweep_ms",
        "pool.busy_share",
        "stream.push_chunk_ms",
        "stream.solution_ms",
        "durable.fsync_ms",
        "durable.append_push_ms",
        "durable.wal_bytes_per_push",
        "durable.replayed_epochs",
        "durable.snapshot_restores",
    ] {
        out.set(name, 0.0);
    }
    out.set("loadgen.late_ms_tail", run.phase.late_tail_ms());
    out.set(
        "trace.overhead_share",
        median(&traced_s) / median(&plain_s) - 1.0,
    );
    out.set("trace.unattributed_share", 1.0 - attr_sum / client_sum);
    out.line(format!(
        "trace: {} of {} requests replayed (median pass {:.3} s untraced, {:.3} s traced); {} cold misses after the {PRIME} set-up solves",
        rep.replayed,
        run.phase.attempted(),
        median(&plain_s),
        median(&traced_s),
        rep.misses.len()
    ));
    let spans = ctx
        .out_dir
        .join(format!("spans-serve_mixed-{}.jsonl", ctx.seed));
    tr.write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    out.stamp("spans_file", format!("\"{}\"", spans.display()));
    out.stamp("reference_rate", format!("{REF_RATE}"));
    Ok(out)
}
