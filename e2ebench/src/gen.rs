//! Seeded input generation. The same seed always yields the same request
//! bodies; the program under test only ever sees the generated text.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent generator for sub-stream `tag` of this seed.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Approximately standard normal (sum of four uniforms, rescaled).
    pub fn gauss(&mut self) -> f64 {
        let s: f64 = (0..4).map(|_| self.unit()).sum();
        (s - 2.0) * 3f64.sqrt()
    }

    /// Zipf(1) rank in `0..n`: rank `r` has weight `1 / (r + 1)`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut u = self.unit() * h;
        for r in 0..n {
            u -= 1.0 / (r + 1) as f64;
            if u <= 0.0 {
                return r;
            }
        }
        n - 1
    }
}

/// Shape of one generated uncertain instance.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub z: usize,
    pub dim: usize,
}

/// Writes an instance document (the wire schema of `POST /instances`):
/// `n` uncertain points around a few cluster sites in `[0, 100]^dim`,
/// each with `z` (at most 16) locations and random probabilities.
/// Coordinates carry three decimals and probabilities are multiples of
/// 1/16, which keeps bodies small.
pub fn instance_doc(rng: &mut Rng, shape: Shape) -> String {
    let sites = sites(rng, 4, shape.dim);
    instance_doc_around(rng, shape, &sites)
}

/// `count` cluster sites uniform in `[0, 100]^dim`.
pub fn sites(rng: &mut Rng, count: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..dim).map(|_| rng.unit() * 100.0).collect())
        .collect()
}

/// [`instance_doc`] around given cluster sites (a stream's chunks share
/// one set of sites, so the feed is stationary).
pub fn instance_doc_around(rng: &mut Rng, shape: Shape, sites: &[Vec<f64>]) -> String {
    let mut out = String::with_capacity(shape.n * shape.z * shape.dim * 9 + 64);
    write!(out, "{{\"dim\":{},\"points\":[", shape.dim).expect("write to String");
    for i in 0..shape.n {
        if i > 0 {
            out.push(',');
        }
        let site = &sites[i % sites.len()];
        let nominal: Vec<f64> = site.iter().map(|c| c + 6.0 * rng.gauss()).collect();
        out.push_str("{\"locations\":[");
        for j in 0..shape.z {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            for (t, c) in nominal.iter().enumerate() {
                if t > 0 {
                    out.push(',');
                }
                write!(out, "{:.3}", c + rng.gauss()).expect("write to String");
            }
            out.push(']');
        }
        out.push_str("],\"probs\":[");
        // Sixteenths: short, exact in binary, and summing to exactly one.
        let mut parts = vec![1u32; shape.z];
        for _ in shape.z..16 {
            parts[rng.range(0, shape.z - 1)] += 1;
        }
        for (j, part) in parts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{}", *part as f64 / 16.0).expect("write to String");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}
