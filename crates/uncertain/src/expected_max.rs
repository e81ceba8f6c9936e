//! Exact expectation of the maximum of independent discrete variables.
//!
//! Given independent random variables `X₁..X_n`, each a finite list of
//! `(value, probability)` atoms, the paper's expected costs are
//! `E[max_i X_i]`. Enumerating the product space is exponential, but the
//! CDF of the max factorizes: `Pr[max ≤ v] = Π_i F_i(v)`, which changes
//! only at the N atom values. Sorting the atoms and sweeping once while
//! maintaining the running product gives the exact expectation in
//! `O(N log N)`:
//!
//! ```text
//! E[max] = Σ_t v_t · (G(v_t) − G(v_{t−1})),   G(v) = Π_i F_i(v).
//! ```
//!
//! The running product is maintained in log space with a zero-factor
//! counter (every `F_i` starts at 0, so the product is structurally 0 until
//! each variable has at least one atom at or below the sweep value); log
//! space both avoids underflow for large `n` and keeps the update drift
//! additive, and the log-sum is rebuilt from scratch every 4096 updates.
//!
//! The sweep runs over [`SortedAtoms`]: the atoms held flat (values,
//! probabilities, per-variable offsets) and ordered once by a stable LSD
//! radix sort on a total-order key of the value. That order is exactly
//! the stable `sort_by(partial_cmp)` order, so the fold — tie grouping,
//! cached logarithms, rebuilds — is bit-identical to sorting a list of
//! `(value, variable, prob)` tuples, and one order serves every
//! leave-one-variable-out fold as well.

/// What is wrong with an atom list handed to [`try_expected_max`] /
/// [`try_max_cdf`] / [`try_max_quantile`].
///
/// The panicking entry points ([`expected_max`] and friends) raise exactly
/// these conditions as messages; callers reachable from untrusted input
/// (extension entry points, servers) should prefer the `try_` variants and
/// dispatch on the variant instead of the panic string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AtomsError {
    /// The variable list is empty.
    NoVariables,
    /// A variable has no atoms.
    EmptyVariable {
        /// Index of the offending variable.
        index: usize,
    },
    /// An atom value is NaN or infinite.
    NonFiniteValue {
        /// Index of the offending variable.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An atom probability is negative or non-finite.
    BadProbability {
        /// Index of the offending variable.
        index: usize,
        /// The offending probability.
        value: f64,
    },
    /// A variable's probabilities do not sum to 1 within `1e-6`.
    BadSum {
        /// Index of the offending variable.
        index: usize,
        /// The actual sum.
        sum: f64,
    },
    /// The requested quantile is outside `(0, 1]`.
    BadQuantile {
        /// The rejected quantile.
        q: f64,
    },
}

impl std::fmt::Display for AtomsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtomsError::NoVariables => write!(f, "requires at least one variable"),
            AtomsError::EmptyVariable { index } => write!(f, "variable {index} has no atoms"),
            AtomsError::NonFiniteValue { index, value } => {
                write!(f, "variable {index} has non-finite value {value}")
            }
            AtomsError::BadProbability { index, value } => {
                write!(f, "variable {index} has bad probability {value}")
            }
            AtomsError::BadSum { index, sum } => {
                write!(f, "variable {index} probabilities sum to {sum}")
            }
            AtomsError::BadQuantile { q } => {
                write!(f, "quantile must be in (0, 1], got {q}")
            }
        }
    }
}

impl std::error::Error for AtomsError {}

/// Validates one variable's atoms, returning its probability sum.
fn validate_var(
    index: usize,
    mut atoms: impl ExactSizeIterator<Item = (f64, f64)>,
) -> Result<f64, AtomsError> {
    if atoms.len() == 0 {
        return Err(AtomsError::EmptyVariable { index });
    }
    let sum = atoms.try_fold(0.0, |sum, (v, p)| {
        if !v.is_finite() {
            return Err(AtomsError::NonFiniteValue { index, value: v });
        }
        if !(p >= 0.0 && p.is_finite()) {
            return Err(AtomsError::BadProbability { index, value: p });
        }
        Ok(sum + p)
    })?;
    if (sum - 1.0).abs() > 1e-6 {
        return Err(AtomsError::BadSum { index, sum });
    }
    Ok(sum)
}

/// One radix-sort record: the order key of a positive-probability
/// atom's value, split in two words so the record packs into 12 bytes,
/// and the atom's position in the flat buffers.
#[derive(Clone, Copy, Debug, Default)]
struct Record {
    key: [u32; 2],
    pos: u32,
}

impl Record {
    #[inline]
    fn new(key: u64, pos: usize) -> Self {
        Self {
            key: [key as u32, (key >> 32) as u32],
            pos: pos as u32,
        }
    }

    #[inline]
    fn key(self) -> u64 {
        u64::from(self.key[1]) << 32 | u64::from(self.key[0])
    }
}

/// The total-order key of a finite value: keys ascend with values, and
/// `-0.0` shares `+0.0`'s key, so two keys are equal exactly when
/// `partial_cmp` calls the values equal.
#[inline]
fn order_key(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The value of an [`order_key`], with a `-0.0` read back as `+0.0`.
#[inline]
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Stable LSD radix sort of `records` by key: 8-bit digits, low to high,
/// skipping every digit on which all keys agree. Stability makes the
/// result exactly the stable comparator order of the keys.
fn radix_sort(records: &mut Vec<Record>) {
    let n = records.len();
    let mut counts = [[0usize; 256]; 8];
    for r in records.iter() {
        let key = r.key();
        for (d, c) in counts.iter_mut().enumerate() {
            c[(key >> (8 * d)) as usize & 0xff] += 1;
        }
    }
    let mut buf: Vec<Record> = Vec::new();
    for (d, c) in counts.iter().enumerate() {
        if c.contains(&n) {
            continue;
        }
        buf.resize(n, Record::default());
        let mut next = [0usize; 256];
        let mut at = 0;
        for (slot, &m) in next.iter_mut().zip(c) {
            *slot = at;
            at += m;
        }
        for r in records.iter() {
            let b = (r.key() >> (8 * d)) as usize & 0xff;
            buf[next[b]] = *r;
            next[b] += 1;
        }
        std::mem::swap(records, &mut buf);
    }
}

/// Independent discrete variables, validated and put in sweep order
/// once: the input of the exact `E[max]` fold.
///
/// Construction takes the atoms flat — variable `i` owns
/// `values[offsets[i]..offsets[i + 1]]` and the parallel `probs` —
/// orders the positive-probability ones by a stable radix sort of their
/// values, and keeps them in that order as three parallel arrays (order
/// key, variable, probability) that the fold reads front to back. The
/// order is exactly the one a stable `sort_by(partial_cmp)` of the
/// `(value, variable, prob)` list gives, so [`SortedAtoms::expected_max`]
/// is bit-identical to sorting that list and sweeping it. The order
/// restricted to a subset of the variables is that subset's own stable
/// order, so [`SortedAtoms::expected_max_without`] is bit-identical to
/// sorting and sweeping the list with one variable removed.
///
/// ```
/// use ukc_uncertain::{expected_max, SortedAtoms};
/// let vars = vec![vec![(0.0, 0.5), (1.0, 0.5)], vec![(2.0, 1.0)], vec![(0.5, 1.0)]];
/// let atoms = SortedAtoms::try_new(&vars).unwrap();
/// assert_eq!(atoms.expected_max().to_bits(), expected_max(&vars).to_bits());
/// let without = expected_max(&[vars[0].clone(), vars[2].clone()]);
/// assert_eq!(atoms.expected_max_without(1).to_bits(), without.to_bits());
/// ```
#[derive(Clone, Debug)]
pub struct SortedAtoms {
    keys: Vec<u64>,
    var_of: Vec<u32>,
    probs: Vec<f64>,
    vars: usize,
}

impl SortedAtoms {
    /// Validates and orders `vars[i]`'s `(value, prob)` atoms, reporting
    /// malformed lists as [`try_expected_max`] does.
    pub fn try_new(vars: &[Vec<(f64, f64)>]) -> Result<Self, AtomsError> {
        let total = vars.iter().map(Vec::len).sum();
        let mut values = Vec::with_capacity(total);
        let mut probs = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(vars.len() + 1);
        offsets.push(0);
        for var in vars {
            values.extend(var.iter().map(|a| a.0));
            probs.extend(var.iter().map(|a| a.1));
            offsets.push(values.len());
        }
        Self::try_from_flat(values, probs, &offsets)
    }

    /// Validates and orders flat atoms: variable `i` takes value
    /// `values[j]` with probability `probs[j]` for `j` in
    /// `offsets[i]..offsets[i + 1]`. Malformed variables are reported as
    /// [`try_expected_max`] does.
    ///
    /// # Panics
    /// Panics when `values` and `probs` differ in length, when `offsets`
    /// is empty, does not start at 0, decreases, or does not end at
    /// `values.len()`, or when there are more than `u32::MAX` atoms.
    pub fn try_from_flat(
        values: Vec<f64>,
        probs: Vec<f64>,
        offsets: &[usize],
    ) -> Result<Self, AtomsError> {
        assert_eq!(values.len(), probs.len(), "one probability per value");
        assert!(
            offsets.first() == Some(&0) && offsets.last() == Some(&values.len()),
            "offsets must run from 0 to the atom count"
        );
        assert!(
            u32::try_from(values.len()).is_ok(),
            "at most u32::MAX atoms"
        );
        let vars = offsets.len() - 1;
        if vars == 0 {
            return Err(AtomsError::NoVariables);
        }
        let mut records = Vec::with_capacity(values.len());
        let mut var_at = vec![0u32; values.len()];
        for (i, r) in offsets.windows(2).enumerate() {
            assert!(r[0] <= r[1], "offsets must not decrease");
            let (vs, ps) = (&values[r[0]..r[1]], &probs[r[0]..r[1]]);
            validate_var(i, vs.iter().copied().zip(ps.iter().copied()))?;
            var_at[r[0]..r[1]].fill(i as u32);
            for (j, (&v, &p)) in (r[0]..).zip(vs.iter().zip(ps)) {
                if p > 0.0 {
                    records.push(Record::new(order_key(v), j));
                }
            }
        }
        drop(values);
        radix_sort(&mut records);
        Ok(Self {
            keys: records.iter().map(|r| r.key()).collect(),
            var_of: records.iter().map(|r| var_at[r.pos as usize]).collect(),
            probs: records.iter().map(|r| probs[r.pos as usize]).collect(),
            vars,
        })
    }

    /// Exact `E[max_i X_i]` over every variable.
    pub fn expected_max(&self) -> f64 {
        self.fold(None)
    }

    /// Exact `E[max_{i ≠ var} X_i]`: the fold with variable `var`'s atoms
    /// skipped, bit-identical to [`expected_max`] over the list without
    /// it.
    ///
    /// # Panics
    /// Panics when `var` is out of range or is the only variable.
    pub fn expected_max_without(&self, var: usize) -> f64 {
        assert!(var < self.vars, "variable {var} out of range");
        if self.vars == 1 {
            panic!("expected_max {}", AtomsError::NoVariables);
        }
        self.fold(Some(var))
    }

    /// The product-CDF sweep over the sorted atoms, passing over `skip`'s
    /// atoms as if they were absent.
    ///
    /// Per-variable running CDF. The product Π Fᵢ(v) underflows f64 for
    /// large n (e.g. 1000 factors of 0.1), so it is maintained in log
    /// space: log_product = Σ ln cᵢ over the non-zero CDFs, plus a count
    /// of the variables whose CDF is still exactly zero. The additive log
    /// updates drift slowly; a periodic rebuild cancels it. `ln_cdf[i]`
    /// caches `cdf[i].ln()` for every non-zero CDF, so each update takes
    /// one `ln` and the rebuild none. A skipped variable's CDF stays 0,
    /// so the rebuild sums the same terms in the same order as it would
    /// over the reduced list.
    fn fold(&self, skip: Option<usize>) -> f64 {
        let n = self.vars;
        // Variable indices are below `n <= u32::MAX`, so `u32::MAX` never
        // names one.
        let skip = skip.map_or(u32::MAX, |s| s as u32);
        let (keys, var_of, probs) = (&self.keys, &self.var_of, &self.probs);
        let mut cdf = vec![0.0f64; n];
        let mut ln_cdf = vec![0.0f64; n];
        let mut log_product = 0.0f64;
        let mut zeros = n - usize::from(skip != u32::MAX);
        let mut prev_g = 0.0f64;
        let mut expectation = 0.0f64;
        let mut updates_since_rebuild = 0usize;

        let mut t = 0;
        while t < keys.len() {
            if var_of[t] == skip {
                t += 1;
                continue;
            }
            let key = keys[t];
            // A zero value reads back as `+0.0` even where the atom held
            // `-0.0`; `v` only enters as `v · Δ` added to an expectation
            // that is never `-0.0`, so the sign of a zero cannot change a
            // bit of the result.
            let v = key_value(key);
            // Apply every atom with this exact value (ties must be grouped
            // so G jumps once per distinct value).
            while t < keys.len() && keys[t] == key {
                let (i, p) = (var_of[t], probs[t]);
                t += 1;
                if i == skip {
                    continue;
                }
                let i = i as usize;
                let old = cdf[i];
                let new = old + p;
                let ln_new = new.ln();
                if old == 0.0 {
                    zeros -= 1;
                    log_product += ln_new;
                } else {
                    log_product += ln_new - ln_cdf[i];
                }
                cdf[i] = new;
                ln_cdf[i] = ln_new;
                updates_since_rebuild += 1;
            }
            if updates_since_rebuild >= 4096 {
                // Rebuild the log-sum to cancel additive drift.
                log_product = cdf
                    .iter()
                    .zip(&ln_cdf)
                    .filter(|&(&c, _)| c > 0.0)
                    .map(|(_, &l)| l)
                    .sum();
                updates_since_rebuild = 0;
            }
            let g = if zeros == 0 {
                log_product.exp().min(1.0)
            } else {
                0.0
            };
            let delta = g - prev_g;
            if delta > 0.0 {
                expectation += v * delta;
            }
            prev_g = g;
        }
        debug_assert!(zeros == 0, "every variable must reach total probability 1");
        expectation
    }
}

/// Exact `E[max_i X_i]` for independent discrete `X_i`.
///
/// `vars[i]` lists the atoms `(value, prob)` of `X_i`; each variable's
/// probabilities must sum to 1 within `1e-6` (checked). Values may repeat
/// and need not be sorted. Atoms with probability 0 are ignored.
///
/// ```
/// use ukc_uncertain::expected_max;
/// // Two fair coins taking values {0, 1}: E[max] = 3/4.
/// let coin = vec![(0.0, 0.5), (1.0, 0.5)];
/// let e = expected_max(&[coin.clone(), coin]);
/// assert!((e - 0.75).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics when `vars` is empty, some variable has no atoms, a value is
/// non-finite, a probability is negative, or probabilities do not sum to 1
/// — see [`try_expected_max`] for the non-panicking form.
pub fn expected_max(vars: &[Vec<(f64, f64)>]) -> f64 {
    try_expected_max(vars).unwrap_or_else(|e| panic!("expected_max {e}"))
}

/// [`expected_max`] with malformed atom lists reported as a typed
/// [`AtomsError`] instead of a panic: the validating adapter onto
/// [`SortedAtoms`].
pub fn try_expected_max(vars: &[Vec<(f64, f64)>]) -> Result<f64, AtomsError> {
    SortedAtoms::try_new(vars).map(|atoms| atoms.expected_max())
}

/// `ln Fᵢ(t)` of one variable, or `None` when `Fᵢ(t) = 0`.
fn ln_cdf_at(var: &[(f64, f64)], t: f64) -> Option<f64> {
    let cdf: f64 = var.iter().filter(|(v, _)| *v <= t).map(|(_, p)| p).sum();
    (cdf > 0.0).then(|| cdf.min(1.0).ln())
}

/// [`try_max_cdf`] over variables already validated.
fn max_cdf_unchecked(vars: &[Vec<(f64, f64)>], t: f64) -> f64 {
    let mut log_sum = 0.0f64;
    for var in vars {
        match ln_cdf_at(var, t) {
            Some(l) => log_sum += l,
            None => return 0.0,
        }
    }
    log_sum.exp().min(1.0)
}

/// Exact `Pr[max_i X_i ≤ t]` for independent discrete `X_i`: the product
/// of the per-variable CDFs at `t`.
///
/// Input conventions as in [`expected_max`]. Computed in log space, so it
/// stays meaningful for thousands of variables.
///
/// # Panics
/// Panics on invalid inputs, as [`expected_max`] — see [`try_max_cdf`]
/// for the non-panicking form.
pub fn max_cdf(vars: &[Vec<(f64, f64)>], t: f64) -> f64 {
    try_max_cdf(vars, t).unwrap_or_else(|e| panic!("max_cdf {e}"))
}

/// [`max_cdf`] with malformed atom lists reported as a typed
/// [`AtomsError`] instead of a panic.
pub fn try_max_cdf(vars: &[Vec<(f64, f64)>], t: f64) -> Result<f64, AtomsError> {
    if vars.is_empty() {
        return Err(AtomsError::NoVariables);
    }
    let mut log_sum = 0.0f64;
    for (i, var) in vars.iter().enumerate() {
        validate_var(i, var.iter().copied())?;
        match ln_cdf_at(var, t) {
            Some(l) => log_sum += l,
            None => return Ok(0.0),
        }
    }
    Ok(log_sum.exp().min(1.0))
}

/// Exact `q`-quantile of `max_i X_i`: the smallest atom value `t` with
/// `Pr[max ≤ t] ≥ q`. This is the *value-at-risk* of the k-center cost —
/// "with probability ≥ q, no point exceeds distance `t`" — a robustness
/// summary the expectation alone cannot give.
///
/// Returns the largest atom value when `q = 1` (the worst case is always
/// one of the atoms).
///
/// # Panics
/// Panics when `q ∉ (0, 1]` or inputs are invalid per [`expected_max`] —
/// see [`try_max_quantile`] for the non-panicking form.
pub fn max_quantile(vars: &[Vec<(f64, f64)>], q: f64) -> f64 {
    try_max_quantile(vars, q).unwrap_or_else(|e| panic!("max_quantile {e}"))
}

/// [`max_quantile`] with bad quantiles and malformed atom lists reported
/// as a typed [`AtomsError`] instead of a panic.
pub fn try_max_quantile(vars: &[Vec<(f64, f64)>], q: f64) -> Result<f64, AtomsError> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(AtomsError::BadQuantile { q });
    }
    if vars.is_empty() {
        return Err(AtomsError::NoVariables);
    }
    for (i, var) in vars.iter().enumerate() {
        validate_var(i, var.iter().copied())?;
    }
    let mut values: Vec<f64> = vars
        .iter()
        .flat_map(|var| var.iter().filter(|(_, p)| *p > 0.0).map(|(v, _)| *v))
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("validated finite values"));
    values.dedup();
    // Pr[max <= t] is a step function jumping only at atom values; binary
    // search the smallest value reaching q. Validation already ran once,
    // so the probes skip it.
    let cdf_at = |t: f64| max_cdf_unchecked(vars, t);
    let mut lo = 0usize;
    let mut hi = values.len() - 1;
    if cdf_at(values[hi]) < q {
        // Only possible through rounding; the top value has CDF 1.
        return Ok(values[hi]);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cdf_at(values[mid]) >= q {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(values[hi])
}

/// Reference implementation by full product-space enumeration; exponential,
/// for tests only.
///
/// # Panics
/// Panics when the product space exceeds `10^7` realizations, or inputs are
/// invalid per [`expected_max`].
pub fn expected_max_enumerate(vars: &[Vec<(f64, f64)>]) -> f64 {
    assert!(!vars.is_empty(), "requires at least one variable");
    let count: u128 = vars
        .iter()
        .fold(1u128, |a, v| a.saturating_mul(v.len() as u128));
    assert!(count <= 10_000_000, "product space too large to enumerate");
    let mut idx = vec![0usize; vars.len()];
    let mut expectation = 0.0;
    loop {
        let mut prob = 1.0;
        let mut max = f64::NEG_INFINITY;
        for (i, var) in vars.iter().enumerate() {
            let (v, p) = var[idx[i]];
            prob *= p;
            max = max.max(v);
        }
        expectation += prob * max;
        // Odometer.
        let mut i = 0;
        loop {
            if i == vars.len() {
                return expectation;
            }
            idx[i] += 1;
            if idx[i] < vars[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_variable_is_plain_expectation() {
        let vars = vec![vec![(1.0, 0.25), (3.0, 0.75)]];
        assert!((expected_max(&vars) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_variables() {
        let vars = vec![vec![(2.0, 1.0)], vec![(5.0, 1.0)], vec![(3.0, 1.0)]];
        assert!((expected_max(&vars) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn two_coin_flips() {
        // X, Y each uniform on {0, 1}: E[max] = 3/4.
        let vars = vec![vec![(0.0, 0.5), (1.0, 0.5)], vec![(0.0, 0.5), (1.0, 0.5)]];
        assert!((expected_max(&vars) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn matches_enumeration_on_random_instances() {
        let mut s: u64 = 0xDEADBEEF;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..50 {
            let n = 1 + trial % 5;
            let vars: Vec<Vec<(f64, f64)>> = (0..n)
                .map(|_| {
                    let z = 1 + (rnd() * 4.0) as usize;
                    let mut ps: Vec<f64> = (0..z).map(|_| rnd() + 0.01).collect();
                    let total: f64 = ps.iter().sum();
                    for p in &mut ps {
                        *p /= total;
                    }
                    ps.iter().map(|&p| (rnd() * 100.0 - 50.0, p)).collect()
                })
                .collect();
            let fast = expected_max(&vars);
            let slow = expected_max_enumerate(&vars);
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial}: fast {fast} slow {slow}"
            );
        }
    }

    #[test]
    fn ties_across_variables() {
        // Both variables can take the same value; grouping must be exact.
        let vars = vec![vec![(1.0, 0.5), (2.0, 0.5)], vec![(1.0, 0.5), (2.0, 0.5)]];
        // E[max] = 2 * (1 - 1/4) + 1 * 1/4 = 1.75.
        assert!((expected_max(&vars) - 1.75).abs() < 1e-12);
        assert!((expected_max_enumerate(&vars) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_atoms_ignored() {
        let vars = vec![vec![(100.0, 0.0), (1.0, 1.0)]];
        assert!((expected_max(&vars) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_values_supported() {
        let vars = vec![vec![(-5.0, 0.5), (-1.0, 0.5)], vec![(-3.0, 1.0)]];
        // max is -1 w.p. 0.5, -3 w.p. 0.5.
        assert!((expected_max(&vars) - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_stochastic_dominance() {
        // Shifting one variable up cannot decrease E[max].
        let base = vec![vec![(0.0, 0.5), (2.0, 0.5)], vec![(1.0, 1.0)]];
        let shifted = vec![vec![(0.5, 0.5), (2.5, 0.5)], vec![(1.0, 1.0)]];
        assert!(expected_max(&shifted) >= expected_max(&base) - 1e-12);
    }

    #[test]
    fn expectation_bounds() {
        // max_i E[X_i] <= E[max] <= sum of positive parts bound: just check
        // the lower bound on a random instance.
        let vars = vec![vec![(0.0, 0.3), (10.0, 0.7)], vec![(5.0, 0.5), (6.0, 0.5)]];
        let e = expected_max(&vars);
        let max_mean = f64::max(0.0 * 0.3 + 10.0 * 0.7, 5.0 * 0.5 + 6.0 * 0.5);
        assert!(e >= max_mean - 1e-12);
        assert!(e <= 10.0 + 1e-12);
    }

    #[test]
    fn large_instance_is_stable() {
        // 1000 variables, 8 atoms each; compare against a coarse Monte-Carlo
        // style bound: E[max] must lie within [max mean, max value].
        let mut s: u64 = 7;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let vars: Vec<Vec<(f64, f64)>> = (0..1000)
            .map(|_| {
                let z = 8;
                let ps: Vec<f64> = (0..z).map(|_| rnd() + 0.01).collect();
                let total: f64 = ps.iter().sum();
                ps.iter().map(|&p| (rnd(), p / total)).collect()
            })
            .collect();
        let e = expected_max(&vars);
        assert!(
            e > 0.9,
            "with 8000 uniform atoms the max should be near 1, got {e}"
        );
        assert!(e <= 1.0 + 1e-9);
    }

    /// The sweep as it stood before `ln_cdf` cached the logarithms: two
    /// `ln` calls per update and a full `ln` pass per rebuild. Inputs
    /// are assumed valid.
    fn expected_max_uncached(vars: &[Vec<(f64, f64)>]) -> f64 {
        let n = vars.len();
        let mut atoms: Vec<(f64, usize, f64)> = Vec::new();
        for (i, var) in vars.iter().enumerate() {
            for &(v, p) in var {
                if p > 0.0 {
                    atoms.push((v, i, p));
                }
            }
        }
        atoms.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut cdf = vec![0.0f64; n];
        let mut log_product = 0.0f64;
        let mut zeros = n;
        let mut prev_g = 0.0f64;
        let mut expectation = 0.0f64;
        let mut updates_since_rebuild = 0usize;
        let mut t = 0;
        while t < atoms.len() {
            let v = atoms[t].0;
            while t < atoms.len() && atoms[t].0 == v {
                let (_, i, p) = atoms[t];
                let old = cdf[i];
                let new = old + p;
                if old == 0.0 {
                    zeros -= 1;
                    log_product += new.ln();
                } else {
                    log_product += new.ln() - old.ln();
                }
                cdf[i] = new;
                updates_since_rebuild += 1;
                t += 1;
            }
            if updates_since_rebuild >= 4096 {
                log_product = cdf.iter().filter(|&&c| c > 0.0).map(|c| c.ln()).sum();
                updates_since_rebuild = 0;
            }
            let g = if zeros == 0 {
                log_product.exp().min(1.0)
            } else {
                0.0
            };
            let delta = g - prev_g;
            if delta > 0.0 {
                expectation += v * delta;
            }
            prev_g = g;
        }
        expectation
    }

    #[test]
    fn cached_logs_are_bit_identical_to_the_uncached_sweep() {
        let mut s: u64 = 0x5EED;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for (trial, n) in [1usize, 7, 900, 3_000, 6_000].into_iter().enumerate() {
            let vars: Vec<Vec<(f64, f64)>> = (0..n)
                .map(|i| {
                    let z = 1 + i % 6;
                    let mut ps: Vec<f64> = (0..z).map(|_| rnd() + 0.01).collect();
                    // Every third variable carries a zero-probability atom.
                    if i % 3 == 0 && z > 1 {
                        ps[0] = 0.0;
                    }
                    let total: f64 = ps.iter().sum();
                    // Values on a coarse grid, so many atoms tie across
                    // variables.
                    ps.iter()
                        .map(|&p| ((rnd() * 400.0).floor() / 8.0, p / total))
                        .collect()
                })
                .collect();
            let updates: usize = vars
                .iter()
                .map(|v| v.iter().filter(|a| a.1 > 0.0).count())
                .sum();
            if n >= 3_000 {
                assert!(updates > 2 * 4096, "trial {trial}: rebuilds must run");
            }
            let cached = expected_max(&vars);
            let uncached = expected_max_uncached(&vars);
            assert_eq!(
                cached.to_bits(),
                uncached.to_bits(),
                "trial {trial}, n = {n}"
            );
        }
    }

    /// The fold as it stood before the flat radix-ordered form: one
    /// `(value, variable, prob)` tuple per positive atom, ordered by a
    /// stable comparator sort, swept with cached logarithms. Inputs are
    /// assumed valid.
    fn expected_max_comparator_sorted(vars: &[Vec<(f64, f64)>]) -> f64 {
        let n = vars.len();
        let mut atoms: Vec<(f64, usize, f64)> = Vec::new();
        for (i, var) in vars.iter().enumerate() {
            for &(v, p) in var {
                if p > 0.0 {
                    atoms.push((v, i, p));
                }
            }
        }
        atoms.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut cdf = vec![0.0f64; n];
        let mut ln_cdf = vec![0.0f64; n];
        let mut log_product = 0.0f64;
        let mut zeros = n;
        let mut prev_g = 0.0f64;
        let mut expectation = 0.0f64;
        let mut updates_since_rebuild = 0usize;
        let mut t = 0;
        while t < atoms.len() {
            let v = atoms[t].0;
            while t < atoms.len() && atoms[t].0 == v {
                let (_, i, p) = atoms[t];
                let old = cdf[i];
                let new = old + p;
                let ln_new = new.ln();
                if old == 0.0 {
                    zeros -= 1;
                    log_product += ln_new;
                } else {
                    log_product += ln_new - ln_cdf[i];
                }
                cdf[i] = new;
                ln_cdf[i] = ln_new;
                updates_since_rebuild += 1;
                t += 1;
            }
            if updates_since_rebuild >= 4096 {
                log_product = cdf
                    .iter()
                    .zip(&ln_cdf)
                    .filter(|&(&c, _)| c > 0.0)
                    .map(|(_, &l)| l)
                    .sum();
                updates_since_rebuild = 0;
            }
            let g = if zeros == 0 {
                log_product.exp().min(1.0)
            } else {
                0.0
            };
            let delta = g - prev_g;
            if delta > 0.0 {
                expectation += v * delta;
            }
            prev_g = g;
        }
        expectation
    }

    /// Values that stress the order key: both zeros, subnormals, the
    /// extremes, and a coarse grid of negatives and positives (so atoms
    /// tie within and across variables).
    fn atom_value(code: usize) -> f64 {
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-310,
            -1e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::MAX / 3.0,
            1.0,
            -1.0,
        ];
        SPECIAL
            .get(code)
            .copied()
            .unwrap_or_else(|| ((code - SPECIAL.len()) as f64 - 8.0) / 4.0)
    }

    /// Variables from `(value code, weight)` pairs: weights normalized,
    /// weight 0 kept as a zero-probability atom.
    fn vars_from(raw: Vec<Vec<(usize, u32)>>) -> Vec<Vec<(f64, f64)>> {
        raw.into_iter()
            .map(|pairs| {
                let mut total: u32 = pairs.iter().map(|a| a.1).sum();
                let mut pairs = pairs;
                if total == 0 {
                    pairs[0].1 = 1;
                    total = 1;
                }
                pairs
                    .into_iter()
                    .map(|(c, w)| (atom_value(c), w as f64 / total as f64))
                    .collect()
            })
            .collect()
    }

    /// Checks the radix order against the stable comparator order, and
    /// the full and leave-one-out folds against the comparator-sorted
    /// fold, bit for bit.
    fn check_against_comparator(vars: &[Vec<(f64, f64)>], without: impl Iterator<Item = usize>) {
        let atoms = SortedAtoms::try_new(vars).unwrap();
        let mut reference: Vec<(f64, u32, f64)> = Vec::new();
        for (i, var) in vars.iter().enumerate() {
            for &(v, p) in var {
                if p > 0.0 {
                    reference.push((v, i as u32, p));
                }
            }
        }
        reference.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let radix: Vec<(u64, u32, u64)> = (0..atoms.keys.len())
            .map(|t| (atoms.keys[t], atoms.var_of[t], atoms.probs[t].to_bits()))
            .collect();
        let stable: Vec<(u64, u32, u64)> = reference
            .iter()
            .map(|&(v, i, p)| (order_key(v), i, p.to_bits()))
            .collect();
        assert_eq!(radix, stable, "radix order differs from the stable sort");
        assert_eq!(
            atoms.expected_max().to_bits(),
            expected_max_comparator_sorted(vars).to_bits()
        );
        for i in without {
            let mut reduced = vars.to_vec();
            reduced.remove(i);
            let want = expected_max_comparator_sorted(&reduced);
            assert_eq!(
                atoms.expected_max_without(i).to_bits(),
                want.to_bits(),
                "without {i}"
            );
            assert_eq!(expected_max(&reduced).to_bits(), want.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn radix_fold_matches_the_comparator_fold(
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..40, 0u32..4), 1..=5), 1..=6),
        ) {
            let vars = vars_from(raw);
            let n = vars.len();
            check_against_comparator(&vars, (0..n).filter(|_| n > 1));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        #[test]
        fn radix_fold_matches_the_comparator_fold_across_rebuilds(
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..400, 1u32..6), 4..=6), 1_000..=1_500),
        ) {
            let vars = vars_from(raw);
            let atoms: usize = vars.iter().map(Vec::len).sum();
            assert!(atoms > 4096, "rebuilds must run");
            let n = vars.len();
            check_against_comparator(&vars, [0, 1, n / 2, n - 1].into_iter());
        }
    }

    #[test]
    fn order_key_is_monotone_and_merges_the_zeros() {
        let ascending = [
            -f64::MAX,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
        ];
        for w in ascending.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(order_key(-0.0), order_key(0.0));
        for v in ascending {
            assert_eq!(key_value(order_key(v)).to_bits(), v.to_bits());
        }
        assert_eq!(key_value(order_key(-0.0)).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn leave_one_out_fold_equals_the_reduced_list() {
        let mut s: u64 = 0xB0B;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let vars: Vec<Vec<(f64, f64)>> = (0..2_000)
            .map(|_| {
                let ps: Vec<f64> = (0..4).map(|_| rnd() + 0.01).collect();
                let total: f64 = ps.iter().sum();
                ps.iter()
                    .map(|&p| ((rnd() * 64.0).floor() / 8.0, p / total))
                    .collect()
            })
            .collect();
        let atoms = SortedAtoms::try_new(&vars).unwrap();
        for i in [0, 1, 17, 999, 1_998, 1_999] {
            let mut reduced = vars.clone();
            reduced.remove(i);
            assert_eq!(
                atoms.expected_max_without(i).to_bits(),
                expected_max(&reduced).to_bits(),
                "variant {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn leaving_out_the_only_variable_panics() {
        let atoms = SortedAtoms::try_new(&[vec![(1.0, 1.0)]]).unwrap();
        let _ = atoms.expected_max_without(0);
    }

    #[test]
    fn flat_input_reports_the_same_errors() {
        let bad = [
            (vec![], AtomsError::NoVariables),
            (
                vec![vec![(1.0, 1.0)], vec![]],
                AtomsError::EmptyVariable { index: 1 },
            ),
            (
                vec![vec![(1.0, 1.0)], vec![(f64::INFINITY, 1.0)]],
                AtomsError::NonFiniteValue {
                    index: 1,
                    value: f64::INFINITY,
                },
            ),
            (
                vec![vec![(1.0, -0.5), (2.0, 1.5)]],
                AtomsError::BadProbability {
                    index: 0,
                    value: -0.5,
                },
            ),
            (
                vec![vec![(1.0, 0.5)]],
                AtomsError::BadSum { index: 0, sum: 0.5 },
            ),
        ];
        for (vars, err) in bad {
            assert_eq!(SortedAtoms::try_new(&vars).unwrap_err(), err);
            assert_eq!(try_expected_max(&vars).unwrap_err(), err);
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_distribution_panics() {
        let _ = expected_max(&[vec![(1.0, 0.5)]]);
    }

    #[test]
    #[should_panic(expected = "no atoms")]
    fn empty_variable_panics() {
        let _ = expected_max(&[vec![]]);
    }
}
