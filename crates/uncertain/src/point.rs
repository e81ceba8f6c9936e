//! The uncertain point type.

use std::fmt;

/// Absolute tolerance on `Σ pᵢⱼ = 1` accepted by the constructor; inputs
/// within the tolerance are renormalized exactly.
pub const PROB_SUM_TOL: f64 = 1e-6;

/// Errors produced while constructing an [`UncertainPoint`].
#[derive(Clone, Debug, PartialEq)]
pub enum UncertainPointError {
    /// No locations supplied.
    Empty,
    /// Locations and probabilities have different lengths.
    LengthMismatch {
        /// Number of locations.
        locations: usize,
        /// Number of probabilities.
        probs: usize,
    },
    /// A probability is negative or non-finite.
    BadProbability {
        /// Index of the offending probability.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Probabilities do not sum to 1 within [`PROB_SUM_TOL`].
    BadSum {
        /// The actual sum.
        sum: f64,
    },
}

impl fmt::Display for UncertainPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UncertainPointError::Empty => write!(f, "uncertain point needs at least one location"),
            UncertainPointError::LengthMismatch { locations, probs } => {
                write!(f, "{locations} locations but {probs} probabilities")
            }
            UncertainPointError::BadProbability { index, value } => {
                write!(f, "probability {index} is invalid: {value}")
            }
            UncertainPointError::BadSum { sum } => {
                write!(f, "probabilities sum to {sum}, expected 1")
            }
        }
    }
}

impl std::error::Error for UncertainPointError {}

/// A point whose location is an independent discrete random variable:
/// location `locations[j]` occurs with probability `probs[j]`.
///
/// This is the paper's `P_i` with distribution `D_i` over `z_i` possible
/// locations. The location type `P` is generic: [`ukc_metric::Point`] for
/// Euclidean experiments, `usize` ids for finite metric spaces.
#[derive(Clone, Debug, PartialEq)]
pub struct UncertainPoint<P> {
    locations: Vec<P>,
    probs: Vec<f64>,
}

impl<P> UncertainPoint<P> {
    /// Creates an uncertain point, validating the distribution.
    ///
    /// Probabilities must be non-negative, finite and sum to 1 within
    /// [`PROB_SUM_TOL`]; they are renormalized to sum exactly to 1.
    pub fn new(locations: Vec<P>, probs: Vec<f64>) -> Result<Self, UncertainPointError> {
        if locations.is_empty() {
            return Err(UncertainPointError::Empty);
        }
        if locations.len() != probs.len() {
            return Err(UncertainPointError::LengthMismatch {
                locations: locations.len(),
                probs: probs.len(),
            });
        }
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(UncertainPointError::BadProbability { index: i, value: p });
            }
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > PROB_SUM_TOL {
            return Err(UncertainPointError::BadSum { sum });
        }
        let probs = probs.into_iter().map(|p| p / sum).collect();
        Ok(Self { locations, probs })
    }

    /// Creates an uncertain point from an **already-normalized**
    /// distribution, validating but *not* renormalizing.
    ///
    /// [`UncertainPoint::new`]'s renormalizing division is not
    /// bit-idempotent: a normalized distribution's float sum can land an
    /// ulp off 1, and dividing by it again shifts every probability.
    /// Round-tripping a point through `probs()` → `new()` therefore may
    /// not reproduce it bit-for-bit. This constructor is the exact
    /// round-trip leg: it accepts what `probs()` returned (same
    /// validation gates, including the [`PROB_SUM_TOL`] sum check) and
    /// keeps the bits verbatim. Use it when rebuilding a point whose
    /// distribution was already normalized by a prior `new()` — e.g.
    /// recovering persisted state — never for raw external input.
    pub fn from_normalized(
        locations: Vec<P>,
        probs: Vec<f64>,
    ) -> Result<Self, UncertainPointError> {
        if locations.is_empty() {
            return Err(UncertainPointError::Empty);
        }
        if locations.len() != probs.len() {
            return Err(UncertainPointError::LengthMismatch {
                locations: locations.len(),
                probs: probs.len(),
            });
        }
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(UncertainPointError::BadProbability { index: i, value: p });
            }
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > PROB_SUM_TOL {
            return Err(UncertainPointError::BadSum { sum });
        }
        Ok(Self { locations, probs })
    }

    /// A certain point: a single location with probability 1.
    pub fn certain(location: P) -> Self {
        Self {
            locations: vec![location],
            probs: vec![1.0],
        }
    }

    /// A uniform distribution over the given locations.
    pub fn uniform(locations: Vec<P>) -> Result<Self, UncertainPointError> {
        if locations.is_empty() {
            return Err(UncertainPointError::Empty);
        }
        let z = locations.len();
        let probs = vec![1.0 / z as f64; z];
        Ok(Self { locations, probs })
    }

    /// Number of possible locations (`z_i`).
    #[inline]
    pub fn z(&self) -> usize {
        self.locations.len()
    }

    /// The possible locations.
    #[inline]
    pub fn locations(&self) -> &[P] {
        &self.locations
    }

    /// The location probabilities (always sum to 1 exactly after
    /// construction-time renormalization).
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterates over `(location, probability)` pairs.
    pub fn support(&self) -> impl Iterator<Item = (&P, f64)> {
        self.locations.iter().zip(self.probs.iter().copied())
    }

    /// `true` when the point has a single possible location.
    pub fn is_certain(&self) -> bool {
        self.locations.len() == 1
    }

    /// Maps the locations through `f`, keeping the distribution.
    pub fn map_locations<Q>(&self, f: impl FnMut(&P) -> Q) -> UncertainPoint<Q> {
        UncertainPoint {
            locations: self.locations.iter().map(f).collect(),
            probs: self.probs.clone(),
        }
    }
}

impl<P> ukc_metric::DiscreteDistribution<P> for UncertainPoint<P> {
    #[inline]
    fn locations(&self) -> &[P] {
        &self.locations
    }

    #[inline]
    fn probs(&self) -> &[f64] {
        &self.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_construction() {
        let up = UncertainPoint::new(vec![1.0f64, 2.0], vec![0.25, 0.75]).unwrap();
        assert_eq!(up.z(), 2);
        assert_eq!(up.locations(), &[1.0, 2.0]);
        assert_eq!(up.probs(), &[0.25, 0.75]);
        assert!(!up.is_certain());
    }

    #[test]
    fn renormalizes_within_tolerance() {
        let up = UncertainPoint::new(vec![1.0f64, 2.0], vec![0.5, 0.5 + 5e-7]).unwrap();
        let sum: f64 = up.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rejects_bad_distributions() {
        assert_eq!(
            UncertainPoint::<f64>::new(vec![], vec![]),
            Err(UncertainPointError::Empty)
        );
        assert!(matches!(
            UncertainPoint::new(vec![1.0f64], vec![0.5, 0.5]),
            Err(UncertainPointError::LengthMismatch { .. })
        ));
        assert!(matches!(
            UncertainPoint::new(vec![1.0f64, 2.0], vec![-0.1, 1.1]),
            Err(UncertainPointError::BadProbability { index: 0, .. })
        ));
        assert!(matches!(
            UncertainPoint::new(vec![1.0f64, 2.0], vec![0.5, 0.2]),
            Err(UncertainPointError::BadSum { .. })
        ));
        assert!(matches!(
            UncertainPoint::new(vec![1.0f64], vec![f64::NAN]),
            Err(UncertainPointError::BadProbability { .. })
        ));
    }

    #[test]
    fn from_normalized_keeps_bits_verbatim() {
        // Within tolerance but not exactly 1: `new` renormalizes,
        // `from_normalized` must not.
        let probs = vec![0.5, 0.5 + 5e-7];
        let renorm = UncertainPoint::new(vec![1.0f64, 2.0], probs.clone()).unwrap();
        assert_ne!(renorm.probs(), &probs[..]);
        let verbatim = UncertainPoint::from_normalized(vec![1.0f64, 2.0], probs.clone()).unwrap();
        assert_eq!(verbatim.probs(), &probs[..]);
    }

    #[test]
    fn from_normalized_validates_like_new() {
        assert_eq!(
            UncertainPoint::<f64>::from_normalized(vec![], vec![]),
            Err(UncertainPointError::Empty)
        );
        assert!(matches!(
            UncertainPoint::from_normalized(vec![1.0f64], vec![0.5, 0.5]),
            Err(UncertainPointError::LengthMismatch { .. })
        ));
        assert!(matches!(
            UncertainPoint::from_normalized(vec![1.0f64, 2.0], vec![-0.1, 1.1]),
            Err(UncertainPointError::BadProbability { index: 0, .. })
        ));
        assert!(matches!(
            UncertainPoint::from_normalized(vec![1.0f64, 2.0], vec![0.5, 0.2]),
            Err(UncertainPointError::BadSum { .. })
        ));
    }

    #[test]
    fn certain_and_uniform() {
        let c = UncertainPoint::certain(7usize);
        assert!(c.is_certain());
        assert_eq!(c.probs(), &[1.0]);

        let u = UncertainPoint::uniform(vec![1usize, 2, 3, 4]).unwrap();
        assert_eq!(u.probs(), &[0.25, 0.25, 0.25, 0.25]);
        assert!(UncertainPoint::<usize>::uniform(vec![]).is_err());
    }

    #[test]
    fn support_iterates_pairs() {
        let up = UncertainPoint::new(vec!['a', 'b'], vec![0.3, 0.7]).unwrap();
        let pairs: Vec<(char, f64)> = up.support().map(|(l, p)| (*l, p)).collect();
        assert_eq!(pairs, vec![('a', 0.3), ('b', 0.7)]);
    }

    #[test]
    fn map_locations_preserves_probs() {
        let up = UncertainPoint::new(vec![1i32, 2], vec![0.4, 0.6]).unwrap();
        let mapped = up.map_locations(|&x| x * 10);
        assert_eq!(mapped.locations(), &[10, 20]);
        assert_eq!(mapped.probs(), up.probs());
    }
}
