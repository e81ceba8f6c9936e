//! The host's own noise, measured apart from the program.
//!
//! The host is shared: its hypervisor sometimes runs other machines on
//! this machine's CPUs (steal time), and then every latency reads slow.
//! Reference segments record the share of CPU time stolen while they ran;
//! a run measures a few extra segments when some were disturbed and
//! reports the least disturbed ones.

/// A segment whose steal share exceeds this counts as disturbed (an idle
/// host reads well under 1%).
pub const STEAL_DISTURBED: f64 = 0.03;

/// `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Measures the share of CPU time stolen from this machine since it was
/// started (0 where the kernel does not report steal time).
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Measures `planned` segments with `more`, and up to `extra` more while
/// fewer than `planned` are undisturbed; keeps the `planned` least
/// disturbed, in order. Returns them with a stamp entry listing every
/// segment's steal share and which were kept.
pub fn keep_calm<S>(
    mut segments: Vec<S>,
    planned: usize,
    extra: usize,
    steal: impl Fn(&S) -> f64,
    mut more: impl FnMut() -> Result<S, String>,
) -> Result<(Vec<S>, String), String> {
    while segments.len() < planned {
        segments.push(more()?);
    }
    for _ in 0..extra {
        if segments
            .iter()
            .filter(|s| steal(s) <= STEAL_DISTURBED)
            .count()
            >= planned
        {
            break;
        }
        segments.push(more()?);
    }
    let shares: Vec<f64> = segments.iter().map(&steal).collect();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]).then(a.cmp(&b)));
    order.truncate(planned);
    order.sort_unstable();
    let stamp = format!(
        "{{\"steal\":[{}],\"kept\":{order:?}}}",
        shares
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let kept = segments
        .into_iter()
        .enumerate()
        .filter(|(i, _)| order.contains(i))
        .map(|(_, s)| s)
        .collect();
    Ok((kept, stamp))
}
