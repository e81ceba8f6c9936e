//! Order statistics for latency samples.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples above it, together with the
//! sample count, so a tail figure never rests on one or two outliers.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one set of samples.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` stands for (e.g. 96.8), 0 when `n` is too
    /// small for any tail.
    pub tail_pct: f64,
}

/// Nearest-rank quantile of an ascending slice, `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median plus the highest percentile with [`TAIL_BEYOND`] samples
/// beyond it. With fewer than `2 * TAIL_BEYOND` samples there is no
/// meaningful tail, and the maximum is reported with `tail_pct` 100.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            n: 0,
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: 0.0,
        };
    }
    let p50 = median(&v);
    if n < 2 * TAIL_BEYOND {
        return Summary {
            n,
            p50,
            tail: v[n - 1],
            tail_pct: 100.0,
        };
    }
    let q = 1.0 - TAIL_BEYOND as f64 / n as f64;
    Summary {
        n,
        p50,
        tail: quantile_sorted(&v, q),
        tail_pct: 100.0 * q,
    }
}
