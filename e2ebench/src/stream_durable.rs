//! `stream_durable`: `ukc serve --data-dir <fresh dir>` with two streams
//! (k = 4, budget 32). One connection pushes 256-point, d = 4 chunks on
//! an open-loop schedule, round-robin across the streams; the other is a
//! closed-loop reader alternating `GET /streams/{id}/solution` between
//! them, with 1 ms of think time. With no staleness budget the first
//! read after each push pays a warm-started solve. After each reference
//! segment the server is killed with SIGKILL and restarted on the same
//! directory.
//!
//! This is the only workload that exercises the fsync'd ack path, the
//! stream fold, warm starts on stream reads, and WAL recovery.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ukc_core::{digest_hex, SolverConfig};
use ukc_durable::DurableStore;
use ukc_json::format::JsonInstance;
use ukc_json::Json;
use ukc_kcenter::gonzalez;
use ukc_metric::{Euclidean, Metric, Point};
use ukc_stream::StreamSolver;
use ukc_uncertain::expected_point;

use crate::gen::{instance_doc_around, sites, Rng, Shape};
use crate::host;
use crate::http::{get_json, num, Conn, ScratchDir, Server};
use crate::loadgen::{self, Phase};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const K: usize = 4;
const BUDGET: usize = 32;
const CHUNK: Shape = Shape {
    n: 256,
    z: 3,
    dim: 4,
};
const CREATE_BODY: &str = "{\"k\":4,\"budget\":32}";
/// Latency limit on `push_ack_tail_ms` for a rung to count as sustained.
/// Single fsyncs on a shared disk stall for 15–20 ms now and then, and a
/// stall delays every push queued behind it, so a 25 ms limit is crossed
/// by a few stalls at any rate; 100 ms lies past them, at the knee where
/// the ingest path stops keeping up.
const ACK_TAIL_LIMIT_MS: f64 = 100.0;
/// The fixed reference push rate (pushes/s, i.e. 256 × points/s).
const REF_RATE: f64 = 80.0;
/// Share of `--seconds` spent at the reference rate, split into
/// `SEGMENTS` equal segments.
const REF_SHARE: f64 = 0.36;
const SEGMENTS: usize = 3;
/// Extra reference segments a run may measure when the host disturbed
/// some of the first ones.
const EXTRA_SEGMENTS: usize = 2;
/// Share of `--seconds` each ladder probe runs.
const PROBE_SHARE: f64 = 0.1;
/// The ingest ladder in pushes/s: 24 rungs, 8% apart, from 100/s.
const LADDER_LO: f64 = 100.0;
const LADDER_STEP: f64 = 1.08;
const LADDER_RUNGS: usize = 24;
const LADDER_PROBES: usize = 5;
/// Untraced/traced replay pairs behind `trace.overhead_share`.
const TRACE_PASSES: usize = 3;
/// Attempts per push when the server answers 429 (each 429 is a failed
/// attempt).
const PUSH_ATTEMPTS: usize = 5;
/// The reader's think time between reads. With none, the reader spends a
/// whole core on cache-hit reads (~10^5 per phase) and the push path's
/// latency mostly measures that contention; 1 ms still reads every
/// stream several times per push, so every push's warm solve is read.
const READ_THINK: Duration = Duration::from_millis(1);
/// The disk counts as healthy when a probe's median write + fsync takes
/// at most this long. The host's disk is shared: its fsync latency swings
/// from ~0.3 ms to several ms for tens of seconds at a time, whatever this
/// program does, and every push ack waits on an fsync.
const DISK_HEALTHY_MS: f64 = 1.5;
/// Longest a run waits, over all its reference segments, for the disk to
/// turn healthy before measuring anyway.
const DISK_WAIT: Duration = Duration::from_secs(10);
/// How a cache-served response marks itself (the server pretty-prints).
const CACHED_TRUE: &[u8] = b"\"cached\": true";

/// The seeded feed: chunk `i` goes to stream `i % 2`.
fn chunks(seed: u64, count: usize) -> Vec<String> {
    let root = Rng::new(seed);
    let sites = sites(&mut root.fork(7), 8, CHUNK.dim);
    (0..count)
        .map(|i| instance_doc_around(&mut root.fork(10_000 + i as u64), CHUNK, &sites))
        .collect()
}

/// One measured phase on a fresh server and data directory.
struct StreamPhase {
    pushes: Phase,
    /// Failed push attempts that were retried (429s), on top of `pushes`.
    retried_429: usize,
    /// Latency (ms) of each successful read, and whether the server's
    /// solution cache answered it.
    reads: Vec<(f64, bool)>,
    read_attempts: usize,
    read_failed: usize,
    /// Bodies of the successful reads that were solved, not cached (kept
    /// for the warm-start figures).
    fresh_bodies: Vec<Vec<u8>>,
    /// Chunk indices acknowledged per stream, in ack order.
    acked: [Vec<usize>; 2],
    stream_ids: [String; 2],
    setup_s: f64,
    server: Server,
    data: std::path::PathBuf,
}

impl StreamPhase {
    fn attempted(&self) -> usize {
        self.pushes.attempted() + self.retried_429 + self.read_attempts
    }

    fn failed(&self) -> usize {
        self.pushes.failed() + self.retried_429 + self.read_failed
    }
}

fn run_phase(
    ctx: &Ctx,
    feed: &[String],
    dir: &ScratchDir,
    tag: &str,
    rate: f64,
    count: usize,
) -> Result<StreamPhase, String> {
    // A fresh directory per phase; none is deleted before the run ends,
    // so no phase pays for freeing an earlier one's files.
    let data = dir.fresh(&format!("{tag}-data"));
    // Set-up: boot on a fresh data directory plus stream creation.
    let t = Instant::now();
    let data_arg = data.to_string_lossy().into_owned();
    let server = Server::start(
        &ctx.ukc,
        &["--data-dir", &data_arg],
        &dir.join(&format!("{tag}.log")),
    )?;
    let mut pusher = Conn::new(&server.addr);
    let mut stream_ids = [String::new(), String::new()];
    for id in &mut stream_ids {
        let body = pusher.expect_ok("POST", "/streams", CREATE_BODY.as_bytes())?;
        *id = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_string))
            .ok_or("stream create without id")?;
    }
    let setup_s = t.elapsed().as_secs_f64();

    let acked: [Mutex<Vec<usize>>; 2] = [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
    let retried = Mutex::new(0usize);
    let done = AtomicBool::new(false);
    let send = |c: &mut Conn, i: usize| -> (usize, bool) {
        let s = i % 2;
        let path = format!("/streams/{}/push", stream_ids[s]);
        for _ in 0..PUSH_ATTEMPTS {
            match c.request("POST", &path, feed[i].as_bytes()) {
                Ok((200, _)) => {
                    acked[s].lock().expect("acked lock").push(i);
                    return (0, true);
                }
                Ok((429, _)) => {
                    *retried.lock().expect("retry lock") += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return (0, false),
            }
        }
        (0, false)
    };
    let mut reads = Vec::new();
    let mut fresh_bodies = Vec::new();
    let (mut read_attempts, mut read_failed) = (0usize, 0usize);
    let mut lanes = [pusher];
    let pushes = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut conn = Conn::new(&server.addr);
            let mut s = 0;
            while !done.load(Ordering::Relaxed) {
                s = 1 - s;
                std::thread::sleep(READ_THINK);
                if acked[s].lock().expect("acked lock").is_empty() {
                    continue;
                }
                read_attempts += 1;
                let path = format!("/streams/{}/solution", stream_ids[s]);
                let t = Instant::now();
                match conn.request("GET", &path, b"") {
                    Ok((200, body)) => {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let cached = body.windows(CACHED_TRUE.len()).any(|w| w == CACHED_TRUE);
                        reads.push((ms, cached));
                        if !cached {
                            fresh_bodies.push(body);
                        }
                    }
                    _ => read_failed += 1,
                }
            }
        });
        let phase = loadgen::open_loop(&mut lanes, count, rate, &send);
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked");
        phase
    });
    let [a0, a1] = acked;
    Ok(StreamPhase {
        pushes,
        retried_429: retried.into_inner().expect("retry lock"),
        reads,
        read_attempts,
        read_failed,
        fresh_bodies,
        acked: [
            a0.into_inner().expect("acked lock"),
            a1.into_inner().expect("acked lock"),
        ],
        stream_ids,
        setup_s,
        server,
        data,
    })
}

/// The in-process reference for one stream: the digest of a
/// `StreamSolver` fed the acked chunks in ack order (parsed the way the
/// server parses them), and the expected points of everything streamed.
fn reference(feed: &[String], order: &[usize]) -> Result<(String, Vec<Point>), String> {
    let mut solver = StreamSolver::builder(K)
        .config(SolverConfig::default())
        .budget(BUDGET)
        .build()
        .map_err(|e| e.to_string())?;
    let mut expected = Vec::new();
    for &i in order {
        let set = JsonInstance::parse(&feed[i])
            .and_then(|d| d.to_set())
            .map_err(|e| e.to_string())?;
        solver.push_chunk(set.points()).map_err(|e| e.to_string())?;
        expected.extend(set.iter().map(expected_point));
    }
    Ok((digest_hex(solver.digest()), expected))
}

/// The covering radius of `centers` (a solution document's) over
/// `points`, and the certified lower bound on the optimal k-center
/// radius of `points` (half the Gonzalez radius).
fn radius_and_bound(solution: &Json, points: &[Point]) -> (f64, f64) {
    let centers: Vec<Point> = solution
        .get("centers")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| {
            let coords: Option<Vec<f64>> = c.as_array()?.iter().map(Json::as_f64).collect();
            Point::try_new(coords?).ok()
        })
        .collect();
    let radius = points
        .iter()
        .map(|p| {
            centers
                .iter()
                .map(|c| Euclidean.dist(p, c))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max);
    let bound = gonzalez(points, K, &Euclidean, 0).radius / 2.0;
    (radius, bound)
}

/// Stream summaries `(epochs, digest)` as a server reports them.
fn served_state(conn: &mut Conn, ids: &[String; 2]) -> Result<[(f64, String); 2], String> {
    let mut out = [(0.0, String::new()), (0.0, String::new())];
    for (s, id) in ids.iter().enumerate() {
        let doc = get_json(conn, &format!("/streams/{id}"))?;
        out[s] = (
            num(&doc, &["epochs"]),
            doc.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        );
    }
    Ok(out)
}

/// Restarts a server on `data` and times it until `/healthz` answers.
fn recover(
    ctx: &Ctx,
    data: &std::path::Path,
    log: &std::path::Path,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let data_arg = data.to_string_lossy().into_owned();
    let server = Server::start(&ctx.ukc, &["--data-dir", &data_arg], log)?;
    let mut conn = Conn::new(&server.addr);
    conn.expect_ok("GET", "/healthz", b"")?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// What the final checks of a phase measured.
struct Finish {
    recovery_s: f64,
    /// `/metrics` after the phase, and after the restart.
    metrics: Json,
    recovered_metrics: Json,
    /// Mean over both streams of the answer's covering radius over every
    /// streamed expected point, divided by the certified lower bound on
    /// the optimal radius.
    quality: f64,
    rss_mb: f64,
}

/// Final checks on a finished phase: no acked epoch lost, the digests
/// equal the in-process reference, each answer covers the stream within
/// its claimed radius bound, and after SIGKILL a restart on the same
/// directory reports the same epochs and digests.
fn finish(
    ctx: &Ctx,
    feed: &[String],
    dir: &ScratchDir,
    run: StreamPhase,
    out: &mut Outcome,
) -> Result<Finish, String> {
    let mut conn = Conn::new(&run.server.addr);
    let served = served_state(&mut conn, &run.stream_ids)?;
    let mut quality = Vec::new();
    for ((id, order), (epochs, served_digest)) in run.stream_ids.iter().zip(&run.acked).zip(&served)
    {
        let (digest, points) = reference(feed, order)?;
        let acked = order.len() as f64;
        out.check(*epochs == acked, || {
            format!("stream {id}: {epochs} epochs after {acked} acked pushes")
        });
        out.check(*served_digest == digest, || {
            format!("stream {id}: served digest {served_digest} != in-process {digest}")
        });
        let sol = get_json(&mut conn, &format!("/streams/{id}/solution"))?;
        let (radius, bound) = radius_and_bound(&sol, &points);
        let claimed = num(&sol, &["stream", "radius_bound"]);
        out.check(radius <= claimed * (1.0 + 1e-9), || {
            format!("stream {id}: covering radius {radius} exceeds the claimed bound {claimed}")
        });
        quality.push(radius / bound);
    }
    let metrics = get_json(&mut conn, "/metrics")?;
    let rss_mb = run.server.peak_rss_mb();
    run.server.kill();

    let (server, recovery_s) = recover(ctx, &run.data, &dir.join("recover.log"))?;
    let mut conn = Conn::new(&server.addr);
    let again = served_state(&mut conn, &run.stream_ids)?;
    for s in 0..2 {
        out.check(again[s] == served[s], || {
            format!(
                "stream {}: after restart {:?} != before {:?}",
                run.stream_ids[s], again[s], served[s]
            )
        });
    }
    let recovered_metrics = get_json(&mut conn, "/metrics")?;
    server.kill();
    Ok(Finish {
        recovery_s,
        metrics,
        recovered_metrics,
        quality: stats::mean(&quality),
        rss_mb,
    })
}

/// Median milliseconds of 16 appends of 32 KiB, each made durable with
/// fsync, to a fresh file under `dir`: the disk's state, measured apart
/// from the program.
fn disk_probe(dir: &ScratchDir) -> Result<f64, String> {
    let path = dir.fresh("disk-probe");
    let mut file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let block = vec![0u8; 32 * 1024];
    let mut ms = Vec::new();
    for _ in 0..16 {
        let t = Instant::now();
        file.write_all(&block)
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// Probes the disk until it reads healthy or the run's waiting budget is
/// spent, and returns the last probe.
fn await_healthy_disk(dir: &ScratchDir, waited: &mut Duration) -> Result<f64, String> {
    loop {
        let probe = disk_probe(dir)?;
        if probe <= DISK_HEALTHY_MS || *waited >= DISK_WAIT {
            return Ok(probe);
        }
        std::thread::sleep(Duration::from_secs(1));
        *waited += Duration::from_secs(1);
    }
}

/// One reference segment's figures.
struct Segment {
    ack: stats::Summary,
    reads: Vec<f64>,
    late_ms: f64,
    steal: f64,
    fin: Finish,
}

/// Attempts, failures and set-up times over every phase of a run, and
/// the disk gate's record.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    setups: Vec<f64>,
    disk_waited: Duration,
    disk_probes_ms: Vec<f64>,
}

impl Tally {
    fn add(&mut self, run: &StreamPhase) {
        self.attempted += run.attempted();
        self.failed += run.failed();
        self.setups.push(run.setup_s);
    }
}

/// A reference segment: a phase at the reference rate on a fresh server
/// and directory, checked and recovered. It starts once the disk probes
/// healthy (or the run's waiting budget is spent), so a spell of slow
/// disk on the shared host is not taken for the program's ack latency. A
/// segment whose generator fell behind is re-run once and otherwise makes
/// the run invalid.
fn reference_segment(
    ctx: &Ctx,
    feed: &[String],
    dir: &ScratchDir,
    count: usize,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<Segment, String> {
    let probe = await_healthy_disk(dir, &mut tally.disk_waited)?;
    tally.disk_probes_ms.push(probe);
    let mut steal = host::StealMeter::start();
    let mut run = run_phase(ctx, feed, dir, "ref", REF_RATE, count)?;
    let mut steal_share = steal.share();
    tally.add(&run);
    if run.pushes.late_tail_ms() > loadgen::MAX_GENERATOR_LATE_MS {
        run.server.kill();
        steal = host::StealMeter::start();
        run = run_phase(ctx, feed, dir, "ref-retry", REF_RATE, count)?;
        steal_share = steal.share();
        tally.add(&run);
    }
    let late_ms = run.pushes.late_tail_ms();
    if late_ms > loadgen::MAX_GENERATOR_LATE_MS {
        return Err(format!(
            "invalid run: the load generator woke up {late_ms:.1} ms late (tail), above {} ms",
            loadgen::MAX_GENERATOR_LATE_MS
        ));
    }
    let ack = stats::summarize(&run.pushes.latencies(None));
    let reads = run.reads.iter().map(|r| r.0).collect();
    let fin = finish(ctx, feed, dir, run, out)?;
    Ok(Segment {
        ack,
        reads,
        late_ms,
        steal: steal_share,
        fin,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ScratchDir::new(&ctx.out_dir, "stream_durable")?;
    let seg_secs = REF_SHARE * ctx.seconds / SEGMENTS as f64;
    let probe_secs = PROBE_SHARE * ctx.seconds;
    let rungs = loadgen::ladder(LADDER_LO, LADDER_STEP, LADDER_RUNGS);
    let count = loadgen::count(REF_RATE, seg_secs);
    let feed = chunks(
        ctx.seed,
        loadgen::count(rungs[LADDER_RUNGS - 1], probe_secs).max(count),
    );
    if ctx.trace {
        return traced(ctx, &feed, &dir, count);
    }
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    // The reference segments are spread over the run — one before the
    // ladder, one inside it, one after — and reported by their median,
    // so one burst of host noise (a slow disk, mostly) moves one segment,
    // not the figure.
    let mut segments = vec![reference_segment(
        ctx, &feed, &dir, count, &mut tally, &mut out,
    )?];
    let (mut probe_log, mut probes) = (Vec::new(), Vec::new());
    let best = loadgen::search(&rungs, LADDER_PROBES, |rate| {
        let run = run_phase(
            ctx,
            &feed,
            &dir,
            "probe",
            rate,
            loadgen::count(rate, probe_secs),
        )?;
        tally.add(&run);
        let tail = stats::summarize(&run.pushes.latencies(None)).tail;
        let pass = tail <= ACK_TAIL_LIMIT_MS
            && run.retried_429 == 0
            && run.pushes.failed() == 0
            && !run.pushes.backlog_grew();
        probes.push(loadgen::Probe {
            rate,
            tail_ms: tail,
            pass,
        });
        probe_log.push(format!(
            "{{\"rate\":{rate:.3},\"ack_tail_ms\":{tail:.3},\"n\":{},\"retried_429\":{},\"failed\":{},\"backlog_grew\":{},\"pass\":{pass}}}",
            run.pushes.attempted(),
            run.retried_429,
            run.failed(),
            run.pushes.backlog_grew()
        ));
        run.server.kill();
        if probe_log.len() == 2 {
            segments.push(reference_segment(
                ctx, &feed, &dir, count, &mut tally, &mut out,
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
        || reference_segment(ctx, &feed, &dir, count, &mut tally, &mut out),
    )?;
    out.stamp("segments", stamp);
    let max_pushes = loadgen::capacity(&rungs, best, &probes, ACK_TAIL_LIMIT_MS).unwrap_or_else(|| {
        out.line("max_ingest_pts_per_s: even the lowest probed rung failed; reporting half the ladder's base");
        LADDER_LO / 2.0
    });
    let max_pts = max_pushes * CHUNK.n as f64;
    let rung = best.map_or(0.0, |i| rungs[i]);

    let of = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    let (p50, tail) = (of(&|s| s.ack.p50), of(&|s| s.ack.tail));
    let read = stats::summarize(
        &segments
            .iter()
            .flat_map(|s| s.reads.iter().copied())
            .collect::<Vec<_>>(),
    );
    let (quality, rss, recovery_s) = (
        of(&|s| s.fin.quality),
        of(&|s| s.fin.rss_mb),
        of(&|s| s.fin.recovery_s),
    );
    let fsync_ms = of(&|s| {
        1e3 * num(&s.fin.metrics, &["durability", "fsync_seconds"])
            / num(&s.fin.metrics, &["durability", "fsync_count"])
    });
    let late = segments.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    let setup_s = median(&tally.setups);
    let (attempted, failed) = (tally.attempted, tally.failed);
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.set("setup_s", setup_s);
    out.set("p50_ms", p50);
    out.set("cost_over_lb", quality);
    out.set("peak_rss_mb", rss);
    let seg = &segments[0].ack;
    out.line(format!(
        "push_ack_p50_ms = {p50:.4} ms (median of {SEGMENTS} segments of n={})",
        seg.n
    ));
    out.line(format!(
        "push_ack_tail_ms = {tail:.4} ms (median of {SEGMENTS} segments' p{:.1}, n={} each, {} beyond)",
        seg.tail_pct,
        seg.n,
        stats::TAIL_BEYOND
    ));
    out.timing("read_p50_ms", "read_tail_ms", &read);
    out.line(format!(
        "max_ingest_pts_per_s = {max_pts:.1} points/s (highest passing rung {rung:.3} pushes/s, refined toward the next; {} probes)",
        probe_log.len()
    ));
    out.line(format!("recovery_s = {recovery_s:.6} s (median of {SEGMENTS} restarts after SIGKILL, one per segment)"));
    out.line(format!(
        "radius_over_lb = {quality:.6} ratio (final answers' covering radius over all streamed expected points / certified bound)"
    ));
    out.line(format!(
        "error_share = {} ratio ({failed} of {attempted}, every phase)",
        failed as f64 / attempted.max(1) as f64
    ));
    out.line(format!(
        "peak_rss_mb = {rss:.2} MiB (server VmHWM, median of the reference segments)"
    ));
    out.line(format!(
        "setup_s = {setup_s:.6} s (median of {} boots + 2 stream creations)",
        tally.setups.len()
    ));
    out.line(format!(
        "loadgen.late_ms_tail = {late:.4} ms (worst reference segment)"
    ));
    out.line(format!(
        "fsync: {fsync_ms:.3} ms per sync (median of the reference segments, server /metrics)"
    ));
    out.stamp("reference_rate_pushes_per_s", format!("{REF_RATE}"));
    out.stamp(
        "reference_segments",
        format!(
            "{{\"count\":{SEGMENTS},\"seconds\":{seg_secs:.3},\"n\":{},\"tail_pct\":{:.2}}}",
            seg.n, seg.tail_pct
        ),
    );
    out.stamp("samples.recovery_s", SEGMENTS.to_string());
    out.stamp(
        "disk_gate",
        format!(
            "{{\"healthy_ms\":{DISK_HEALTHY_MS},\"waited_s\":{},\"probes_ms\":[{}]}}",
            tally.disk_waited.as_secs(),
            tally
                .disk_probes_ms
                .iter()
                .map(|p| format!("{p:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.stamp(
        "ladder",
        format!(
            "{{\"unit\":\"pushes/s\",\"points_per_push\":{},\"lo\":{LADDER_LO},\"step\":{LADDER_STEP},\"rungs\":{LADDER_RUNGS},\"probe_s\":{probe_secs:.3},\"ack_tail_limit_ms\":{ACK_TAIL_LIMIT_MS},\"probes\":[{}]}}",
            CHUNK.n,
            probe_log.join(",")
        ),
    );
    Ok(out)
}

/// What one replay pass of the acknowledged pushes collected.
struct StreamReplay {
    evals: Vec<f64>,
    fold_s: f64,
    wal_bytes: f64,
    pool_tasks: u64,
    pool_chunks: u64,
    secs: f64,
}

/// Replays the acknowledged pushes in push order — parse, stream fold,
/// durable append (fsync'd, into `store_dir`, which must be new) — each
/// followed by a solution read, with a span around each call into a
/// layer.
fn replay(
    feed: &[String],
    order: &[(usize, usize)],
    store_dir: &std::path::Path,
    tr: &mut Tracer,
) -> Result<StreamReplay, String> {
    let (store, _) = DurableStore::open(store_dir).map_err(|e| e.to_string())?;
    let mut solvers = Vec::new();
    for seq in 1..=2 {
        store
            .create_stream(seq, CREATE_BODY.as_bytes())
            .map_err(|e| e.to_string())?;
        solvers.push(
            StreamSolver::builder(K)
                .config(SolverConfig::default())
                .budget(BUDGET)
                .build()
                .map_err(|e| e.to_string())?,
        );
    }
    let pool = ukc_pool::global();
    let before = pool.stats();
    let (mut evals, mut fold_s) = (Vec::new(), 0.0);
    let start = Instant::now();
    for &(i, s) in order {
        let req = i as u64;
        tr.span("request", "push", req, |tr| {
            let set = tr.span("json.parse", "push", req, |_| {
                JsonInstance::parse(&feed[i]).and_then(|d| d.to_set())
            });
            let Ok(set) = set else { return };
            let t = Instant::now();
            let epoch = tr.span("stream.push_chunk", "push", req, |_| {
                solvers[s].push_chunk(set.points())
            });
            fold_s += t.elapsed().as_secs_f64();
            let Ok(epoch) = epoch else { return };
            evals.push(epoch.distance_evals as f64);
            let _ = tr.span("durable.append_push", "push", req, |_| {
                store.append_push(s as u64 + 1, epoch.epoch, feed[i].as_bytes())
            });
        });
        tr.span("request", "read", req, |tr| {
            let _ = tr.span("stream.solution", "read", req, |_| solvers[s].solution());
        });
    }
    let secs = start.elapsed().as_secs_f64();
    let after = pool.stats();
    let wal_bytes = store.stats().wal_bytes as f64;
    Ok(StreamReplay {
        evals,
        fold_s,
        wal_bytes,
        pool_tasks: after.tasks - before.tasks,
        pool_chunks: after.chunks - before.chunks,
        secs,
    })
}

/// The traced run: the reference phase over HTTP (with the durability
/// figures from `/metrics` and a restart), then an in-process replay of
/// its acknowledged pushes and reads, once untraced and once with a span
/// around every call into a layer.
fn traced(ctx: &Ctx, feed: &[String], dir: &ScratchDir, count: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let run = run_phase(ctx, feed, dir, "traced", REF_RATE, count)?;
    let acks = run.pushes.latencies(None);
    let reads = run.reads.clone();
    let late = run.pushes.late_tail_ms();
    let (attempted, failed) = (run.attempted(), run.failed());
    let (mut warm_saved, mut warm_fallback, mut warm_n) = (Vec::new(), 0usize, 0usize);
    let bytes_out: Vec<f64> = run.fresh_bodies.iter().map(|b| b.len() as f64).collect();
    for body in &run.fresh_bodies {
        let Ok(doc) = Json::parse(&String::from_utf8_lossy(body)) else {
            continue;
        };
        if let Some(w) = doc.get("report").and_then(|r| r.get("warm")) {
            warm_n += 1;
            if w.get("fallback").is_some_and(|f| *f != Json::Null) {
                warm_fallback += 1;
            } else {
                warm_saved.push(num(w, &["evals_saved"]));
            }
        }
    }
    let mut order: Vec<(usize, usize)> = run
        .acked
        .iter()
        .enumerate()
        .flat_map(|(s, v)| v.iter().map(move |&i| (i, s)))
        .collect();
    order.sort();
    let fin = finish(ctx, feed, dir, run, &mut out)?;
    let m = &fin.metrics;

    // A warm-up pass, then untraced and traced passes alternate; the
    // overhead share compares their medians.
    replay(feed, &order, &dir.fresh("replay"), &mut Tracer::off())?;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut tr = Tracer::new();
    let mut rep = None;
    for _ in 0..TRACE_PASSES {
        plain_s.push(replay(feed, &order, &dir.fresh("replay"), &mut Tracer::off())?.secs);
        tr = Tracer::new();
        let r = replay(feed, &order, &dir.fresh("replay"), &mut tr)?;
        traced_s.push(r.secs);
        rep = Some(r);
    }
    let rep = rep.expect("at least one traced pass");

    // Attribution per request kind. A solved read is replayed as
    // `stream.solution`; a read the cache answered has no layer span
    // here, so all of its time is unattributed.
    let median_of =
        |kind: &str| median(&tr.attributed(kind).into_values().collect::<Vec<_>>()) * 1e3;
    let fresh: Vec<f64> = reads.iter().filter(|r| !r.1).map(|r| r.0).collect();
    let cached: Vec<f64> = reads.iter().filter(|r| r.1).map(|r| r.0).collect();
    let ack_p50 = median(&acks);
    let kinds = [
        ("push", ack_p50, median_of("push"), acks.len()),
        ("read", median(&fresh), median_of("read"), fresh.len()),
        ("read_cached", median(&cached), 0.0, cached.len()),
    ];
    let (mut client_sum, mut attr_sum) = (0.0, 0.0);
    for (name, client, attr, n) in kinds {
        if n == 0 {
            continue;
        }
        client_sum += client * n as f64;
        attr_sum += attr * n as f64;
        let rest = match name {
            "push" => "HTTP framing, the ingest queue and the periodic snapshot",
            "read" => {
                "HTTP framing, the cache lookup, the scheduler wave, the warm start and rendering"
            }
            _ => "HTTP framing, the cache lookup and rendering",
        };
        out.line(format!(
            "trace[{name}]: client p50 {client:.3} ms, layers {attr:.3} ms, unattributed {:.3} of it ({rest} have no span in this run), n={n}",
            1.0 - attr / client
        ));
    }
    let unattributed = 1.0 - attr_sum / client_sum;
    let push_attr = kinds[0].2;
    let pushes = order.len().max(1) as f64;
    let fsyncs = num(m, &["durability", "fsync_count"]);
    let waves = num(m, &["scheduler", "waves"]);

    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.set("metric.pair_evals", median(&rep.evals));
    out.set(
        "metric.pair_evals_per_s",
        rep.evals.iter().sum::<f64>() / rep.fold_s,
    );
    out.set(
        "metric.offset_rel_err",
        crate::solve_assign::offset_rel_err(&crate::solve_assign::instance(ctx.seed)),
    );
    for name in [
        "metric.assign_sweep_ms",
        "metric.gonzalez_sweep_ms",
        "kcenter.gonzalez_ms",
        "uncertain.reps_ms",
        "uncertain.cost_ms",
        "core.assignment_ms",
        "core.solve_ms",
        "core.lower_bound_ms",
        "geometry.weiszfeld_ms",
        "pool.busy_share",
        "json.render_ms",
    ] {
        out.set(name, 0.0);
    }
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
    out.set("pool.tasks", rep.pool_tasks as f64 / pushes);
    out.set("pool.chunks", rep.pool_chunks as f64 / pushes);
    out.set("json.parse_ms", tr.median_ms("json.parse", Some("push")));
    out.set(
        "json.bytes_in",
        median(
            &order
                .iter()
                .map(|(i, _)| feed[*i].len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("json.bytes_out", median(&bytes_out));
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
    out.set("server.overhead_ms", ack_p50 - push_attr);
    out.set("server.ingest_accepted", num(m, &["ingest", "accepted"]));
    out.set("server.ingest_rejected", num(m, &["ingest", "rejected"]));
    out.set(
        "stream.push_chunk_ms",
        tr.median_ms("stream.push_chunk", Some("push")),
    );
    out.set(
        "stream.solution_ms",
        tr.median_ms("stream.solution", Some("read")),
    );
    out.set(
        "durable.fsync_ms",
        1e3 * num(m, &["durability", "fsync_seconds"]) / fsyncs.max(1.0),
    );
    out.set(
        "durable.append_push_ms",
        tr.median_ms("durable.append_push", Some("push")),
    );
    out.set("durable.wal_bytes_per_push", rep.wal_bytes / pushes);
    out.set(
        "durable.replayed_epochs",
        num(
            &fin.recovered_metrics,
            &["durability", "recovery", "replayed_epochs"],
        ),
    );
    out.set(
        "durable.snapshot_restores",
        num(
            &fin.recovered_metrics,
            &["durability", "recovery", "snapshot_restores"],
        ),
    );
    out.set("loadgen.late_ms_tail", late);
    out.set(
        "trace.overhead_share",
        median(&traced_s) / median(&plain_s) - 1.0,
    );
    out.set("trace.unattributed_share", unattributed);
    out.line(format!(
        "trace: {} pushes and solved reads replayed (median pass {:.3} s untraced, {:.3} s traced)",
        order.len(),
        median(&plain_s),
        median(&traced_s)
    ));
    let spans = ctx
        .out_dir
        .join(format!("spans-stream_durable-{}.jsonl", ctx.seed));
    tr.write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    out.stamp("spans_file", format!("\"{}\"", spans.display()));
    Ok(out)
}
