//! Open-loop load generation and the rate ladder.
//!
//! Requests are due on a fixed schedule (`i / rate` after the start) that
//! does not slow down when the system does. Latency is timed from each
//! request's due time, so a stall is charged to every request it delays.
//! The generator's own lateness — how late a lane that was idle woke up
//! for a due request — is recorded separately: a run whose generator fell
//! behind is invalid, not a measurement of the system.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{self, median};

/// Generator lateness (tail, ms) above which a run is invalid.
pub const MAX_GENERATOR_LATE_MS: f64 = 20.0;

/// One completed (or failed) operation.
#[derive(Clone, Debug)]
pub struct Sample {
    pub index: usize,
    pub kind: usize,
    /// Due time, start of send, and completion, in seconds since the
    /// phase start.
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub ok: bool,
    /// Lateness of an idle lane's wake-up (`None` when the lane was busy
    /// past the due time, which is queueing in front of the system).
    pub late: Option<f64>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }
}

/// The outcome of one open-loop phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub rate: f64,
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Latencies of the successful samples of `kind` (all kinds if `None`).
    pub fn latencies(&self, kind: Option<usize>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .map(Sample::latency_ms)
            .collect()
    }

    /// Tail of the generator's wake-up lateness, ms.
    pub fn late_tail_ms(&self) -> f64 {
        let late: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.late)
            .map(|l| l * 1e3)
            .collect();
        if late.is_empty() {
            0.0
        } else {
            stats::summarize(&late).tail
        }
    }

    /// Whether requests queued in front of the system for longer at the
    /// end of the phase than at its start: the median send delay of the
    /// last quarter exceeds the first quarter's by more than 5% of the
    /// phase (and at least two inter-arrival periods plus 2 ms). Above
    /// capacity the queue grows for the whole phase; a passing stall (a
    /// slow fsync, say) delays only the requests right behind it.
    pub fn backlog_grew(&self) -> bool {
        // `samples` is in request order.
        let q = self.samples.len() / 4;
        if q == 0 {
            return false;
        }
        let delay = |s: &[Sample]| median(&s.iter().map(|x| x.start - x.due).collect::<Vec<_>>());
        let first = delay(&self.samples[..q]);
        let last = delay(&self.samples[self.samples.len() - q..]);
        let phase_s = self.samples.len() as f64 / self.rate;
        last - first > (0.05 * phase_s).max(2.0 / self.rate + 0.002)
    }
}

/// Requests in a phase of `secs` seconds at `rate` (at least 20).
pub fn count(rate: f64, secs: f64) -> usize {
    ((rate * secs).ceil() as usize).max(20)
}

/// Sleeps until `t0 + due` and returns the wake-up lateness in seconds,
/// or `None` when `due` had already passed.
fn wait_until(t0: Instant, due: f64) -> Option<f64> {
    let now = t0.elapsed().as_secs_f64();
    if now >= due {
        return None;
    }
    std::thread::sleep(Duration::from_secs_f64(due - now));
    Some((t0.elapsed().as_secs_f64() - due).max(0.0))
}

/// Runs `count` requests due at `i / rate`, spread over `lanes.len()`
/// lanes (one thread and one connection each; lane 0 runs on the calling
/// thread). `send(lane, i)` performs request `i` and returns
/// `(kind, ok)`.
pub fn open_loop<L: Send>(
    lanes: &mut [L],
    count: usize,
    rate: f64,
    send: &(dyn Fn(&mut L, usize) -> (usize, bool) + Sync),
) -> Phase {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let run_lane = |lane: &mut L| -> Vec<Sample> {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return out;
            }
            let due = i as f64 / rate;
            let late = wait_until(t0, due);
            let start = t0.elapsed().as_secs_f64();
            let (kind, ok) = send(lane, i);
            out.push(Sample {
                index: i,
                kind,
                due,
                start,
                end: t0.elapsed().as_secs_f64(),
                ok,
                late,
            });
        }
    };
    let mut samples = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let (first, rest) = lanes.split_first_mut().expect("at least one lane");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|l| scope.spawn(|| run_lane(l)))
            .collect();
        samples.extend(run_lane(first));
        for h in handles {
            samples.extend(h.join().expect("load lane panicked"));
        }
    });
    samples.sort_by_key(|s| s.index);
    Phase { samples, rate }
}

/// A geometric rate ladder: `rungs` rates from `lo`, each `step` times
/// the previous.
pub fn ladder(lo: f64, step: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|i| lo * step.powi(i as i32)).collect()
}

/// Binary search for the highest rung that passes `probe`, in at most
/// `max_probes` probes. Returns the rung index, `None` when even the
/// lowest probed rung failed.
pub fn search(
    rungs: &[f64],
    max_probes: usize,
    mut probe: impl FnMut(f64) -> Result<bool, String>,
) -> Result<Option<usize>, String> {
    let (mut lo, mut hi) = (-1isize, rungs.len() as isize);
    let mut probes = 0;
    while hi - lo > 1 && probes < max_probes {
        let mid = (lo + hi) / 2;
        probes += 1;
        if probe(rungs[mid as usize])? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo >= 0).then_some(lo as usize))
}

/// One ladder probe's outcome.
pub struct Probe {
    pub rate: f64,
    pub tail_ms: f64,
    pub pass: bool,
}

/// The capacity found by [`search`]: the highest passing rung, refined
/// toward the next rung when that one was probed and failed on the
/// latency limit alone — by where, interpolating the tail linearly in
/// log rate, it crosses `limit_ms`. `None` when no rung passed.
pub fn capacity(
    rungs: &[f64],
    best: Option<usize>,
    probes: &[Probe],
    limit_ms: f64,
) -> Option<f64> {
    let lo = best?;
    let r_lo = rungs[lo];
    let at = |r: f64| probes.iter().find(|p| (p.rate - r).abs() < 1e-9);
    let refined = (|| {
        let (pass, fail) = (at(r_lo)?, at(*rungs.get(lo + 1)?)?);
        if fail.pass || fail.tail_ms <= limit_ms || pass.tail_ms > limit_ms {
            return None;
        }
        let f = (limit_ms - pass.tail_ms) / (fail.tail_ms - pass.tail_ms);
        Some(r_lo * (fail.rate / r_lo).powf(f))
    })();
    Some(refined.unwrap_or(r_lo))
}
