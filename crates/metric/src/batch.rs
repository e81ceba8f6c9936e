//! Batched Euclidean distance kernels over a [`PointStore`].
//!
//! Two interchangeable kernels compute every routine:
//!
//! * [`Kernel::Scalar`] — per-pair difference-and-square with sequential
//!   summation, the exact arithmetic of [`crate::Point::dist`]. Results
//!   are bit-identical to the pointwise [`crate::Euclidean`] metric; this
//!   is the reference path the golden-equivalence suites pin against.
//! * [`Kernel::Tiled`] (the default) — the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`
//!   factorization over the store's cached squared norms, structured as a
//!   register-tiled mini-GEMM (see [`tile`]): multi-center sweeps
//!   ([`dists_to_centers_min`], [`nearest_center_each`]) pack
//!   [`tile::TILE_CENTERS`] centers into a column-major panel that stays
//!   in L1 and stream each point row past it exactly once,
//!   [`tile::TILE_POINTS`] rows per block, with the d-loop as the only
//!   real loop around a fully unrolled 4×4 block of
//!   `[f64; TILE_CENTERS]` lane accumulators the autovectorizer keeps in
//!   vector registers. The different summation order perturbs results by
//!   a few ulps; callers needing bit-stability pick `Scalar`.
//!
//! Every tiled dot product — single pair, single-center sweep, or panel
//! block — accumulates in one canonical order (ascending dimension, one
//! f64 accumulator per pair: [`tile::dot_seq`]), and the store caches
//! norms accumulated in that same order, so `‖a‖² + ‖b‖² − 2a·b` cancels
//! exactly for duplicate points and a tiled value is a pure function of
//! the stored coordinates: block membership, chunk boundaries, and lane
//! counts never perturb a result bit.
//!
//! The tiled kernel loses to the scalar loop on tiny sweeps (the norm
//! lookups and reduction trees cost more than they save), so the public
//! entry points re-dispatch through [`Kernel::dispatch`]: below a
//! measured work cutoff `Tiled` falls back to the scalar loop. The
//! decision depends only on the sweep size and dimension — never on
//! thread count or chunking — so it preserves the execution-layer
//! determinism contract.
//!
//! Each of the four sweep shapes — [`dists_to_set_min`],
//! [`nearest_center`], [`dists_to_centers_min`] and
//! [`nearest_center_each`] — also comes in an additively weighted
//! (Apollonius) form, `d(p, cᵢ) − wᵢ`. Plain and weighted share one body
//! per shape, generic over the center weights: a zero-sized "no weights"
//! type or a per-center weight slice. The plain instantiation keeps the
//! plain arithmetic exactly.
//!
//! Both kernels perform — and [`DistCounter`]-instrumented callers count
//! — exactly one distance evaluation per point-pair, so switching kernels
//! never changes instrumentation.

use crate::store::{PointId, PointStore};
use crate::DiscreteDistribution;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use ukc_pool::Exec;

/// Rows per parallel chunk. A pure constant — chunk boundaries must
/// depend only on the input size, never on the worker count, so the
/// ordered chunk reductions below are bit-identical for every lane count
/// (the execution-layer determinism contract).
pub const PAR_CHUNK: usize = 2048;

/// Minimum row count before a sweep is worth handing to the pool (below
/// this, chunk-dispatch overhead exceeds the sweep itself). Also a pure
/// function of input size, for the same determinism reason.
pub const PAR_MIN_POINTS: usize = 4096;

/// Below this dimension the norm factorization never pays: the cached
/// norm lookups and reduction machinery cost more than the one or two
/// multiplies they save (BENCH_kernel.json `d = 2` rows lose at every
/// `n`), so [`Kernel::dispatch`] demotes the tiled kernel to scalar.
pub const FACTORIZED_MIN_DIM: usize = 3;

/// Minimum `pair_evals · dim` (total multiply-add work) before the tiled
/// kernel beats the scalar loop. BENCH_kernel.json: the `n = 1k, d = 8`
/// Gonzalez passes (8k work) sit below the cutoff and run the scalar
/// loop, while the `n = 1k, d = 32` passes (32k work) run tiled at
/// 2.2–2.6× scalar.
pub const FACTORIZED_MIN_WORK: usize = 16_384;

/// Which distance kernel evaluates batched routines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Per-pair difference-and-square, sequential summation over
    /// dimensions: bit-identical to [`crate::Point::dist`].
    Scalar,
    /// Norm-factorized register-tiled mini-GEMM over packed center panels
    /// (see [`tile`]); the fastest sweeps, with last-ulp deviations from
    /// the scalar path.
    #[default]
    Tiled,
}

impl Kernel {
    /// Every kernel, in definition order — for CLI/test matrices.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Tiled];

    /// Short name for reports and config keys.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Tiled => "tiled",
        }
    }

    /// Parses a [`Kernel::name`] back to the kernel (`None` for anything
    /// else) — the single source of truth for CLI and API kernel fields.
    /// `"blocked"`, the name of a retired kernel, is accepted as an alias
    /// of [`Kernel::Tiled`] so old clients, command lines, and logs keep
    /// working.
    pub fn parse(s: &str) -> Option<Kernel> {
        if s == "blocked" {
            return Some(Kernel::Tiled);
        }
        Kernel::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The kernel a sweep of `pair_evals` point-pairs in dimension `dim`
    /// should actually run: the tiled kernel falls back to the scalar
    /// loop below [`FACTORIZED_MIN_DIM`] / [`FACTORIZED_MIN_WORK`], where
    /// BENCH_kernel.json shows it *losing* to it.
    ///
    /// The decision is a pure function of the sweep size and dimension —
    /// never of thread count or chunk boundaries — and the batched entry
    /// points apply it exactly once per sweep, on the full sweep size, so
    /// it preserves the execution-layer determinism contract.
    #[inline]
    pub fn dispatch(self, pair_evals: usize, dim: usize) -> Kernel {
        if dim < FACTORIZED_MIN_DIM || pair_evals.saturating_mul(dim) < FACTORIZED_MIN_WORK {
            Kernel::Scalar
        } else {
            self
        }
    }
}

/// How many cache-line-padded cells a [`DistCounter`] spreads its adds
/// over.
const COUNTER_SHARDS: usize = 8;

/// One counter cell on its own cache line, so concurrent adds from
/// different lanes do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterCell(AtomicU64);

/// Monotone shard-id source for [`thread_shard`].
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard, assigned round-robin on first use.
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index (stable for the thread's lifetime).
fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        s.set(v);
        v
    })
}

/// A shared, *sharded* distance-evaluation counter.
///
/// The kernels' callers bump it by the number of point-pairs evaluated;
/// `ukc-core` threads one through every solve so [`Kernel::Scalar`] and
/// [`Kernel::Tiled`] report identical `distance_evals`. Internally the
/// count is spread over cache-line-padded cells indexed by a per-thread
/// shard, so the parallel sweeps (and per-pair counting from many pool
/// lanes at once) never contend on one cache line; [`DistCounter::count`]
/// sums the cells, so per-stage totals stay **exact** — sharding changes
/// where an add lands, never whether it is counted.
#[derive(Debug)]
pub struct DistCounter {
    cells: [CounterCell; COUNTER_SHARDS],
}

impl Default for DistCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl DistCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| CounterCell::default()),
        }
    }

    /// Adds `n` evaluations (to the calling thread's shard).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The evaluations so far (sum over all shards).
    pub fn count(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Evaluations since a previous [`DistCounter::count`].
    pub fn since(&self, since: u64) -> u64 {
        self.count().saturating_sub(since)
    }
}

/// Squared distance by sequential difference-and-square — the exact
/// arithmetic of [`crate::Point::dist_sq`].
///
/// # Panics
/// Debug-asserts equal lengths; release builds truncate to the shorter.
#[inline]
pub fn dist_sq_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Register-tiled mini-GEMM primitives behind [`Kernel::Tiled`].
///
/// The multi-center sweeps are structured like a BLAS micro-kernel:
/// center coordinates are packed column-major into
/// [`TILE_CENTERS`](tile::TILE_CENTERS)-wide panels
/// ([`CenterPanels`](tile::CenterPanels)) that stay resident in L1, and
/// point rows stream past them [`TILE_POINTS`](tile::TILE_POINTS) at a
/// time. Inside a block the d-loop
/// is the only real loop; the `TILE_POINTS × TILE_CENTERS` multiply-add
/// block is fully unrolled over `[f64; TILE_CENTERS]` accumulator arrays,
/// which the autovectorizer keeps in vector registers (4 f64 lanes fill
/// one ymm register under the workspace's `x86-64-v3` baseline).
///
/// **Determinism contract.** Every per-pair dot product in this module —
/// [`dot_seq`](tile::dot_seq), each row of
/// [`dots_x4_one`](tile::dots_x4_one), and each `(row, center)` cell of
/// [`dots_x4_panel`](tile::dots_x4_panel) /
/// [`dot_panel`](tile::dot_panel) — performs the identical
/// floating-point operation sequence: one f64 accumulator, ascending
/// dimension, `acc + x·y` per step. [`PointStore`]
/// caches squared norms accumulated in the same order, so the
/// `‖a‖² + ‖b‖² − 2a·b` form cancels **exactly** for duplicate points,
/// and a tiled distance is a pure function of the stored coordinates —
/// independent of block membership, panel shape, chunking, and thread
/// count. SIMD parallelism lives across the *center* axis (independent
/// accumulators), never inside a single pair's reduction.
pub mod tile {
    /// Point rows processed together per block (interleaved for
    /// instruction-level parallelism).
    pub const TILE_POINTS: usize = 4;

    /// Centers packed per panel — the SIMD lane width of the
    /// `[f64; TILE_CENTERS]` accumulator arrays.
    pub const TILE_CENTERS: usize = 4;

    /// The canonical tiled dot product: one f64 accumulator, ascending
    /// dimension. Every tiled code path reproduces exactly this operation
    /// sequence per pair (see the module docs), which is what makes tiled
    /// values blocking-independent and self-cancelling for duplicates.
    #[inline]
    pub fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
    }

    /// Dots of four point rows against one query row, interleaved for
    /// ILP; each row's accumulation order is exactly [`dot_seq`].
    ///
    /// # Panics
    /// Panics when any row is shorter than `q`.
    #[inline]
    pub fn dots_x4_one(rows: [&[f64]; TILE_POINTS], q: &[f64]) -> [f64; TILE_POINTS] {
        let d = q.len();
        let [r0, r1, r2, r3] = rows;
        assert!(
            r0.len() >= d && r1.len() >= d && r2.len() >= d && r3.len() >= d,
            "row shorter than query"
        );
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (t, &qt) in q.iter().enumerate() {
            a0 += r0[t] * qt;
            a1 += r1[t] * qt;
            a2 += r2[t] * qt;
            a3 += r3[t] * qt;
        }
        [a0, a1, a2, a3]
    }

    /// Centers packed for the tiled sweeps: coordinates laid out
    /// column-major per panel — `coords[(g·d + t)·TILE_CENTERS + c]` is
    /// coordinate `t` of panel-local center `c` of panel `g` — with slots
    /// past the real center count padded by zero coordinates and `+∞`
    /// norms, so a padded column can never win a minimum.
    #[derive(Clone, Debug)]
    pub struct CenterPanels {
        coords: Vec<f64>,
        norms_sq: Vec<f64>,
        dim: usize,
        len: usize,
    }

    impl CenterPanels {
        /// Packs `len` centers of dimension `dim`; `coord(c, t)` and
        /// `norm_sq(c)` supply the values.
        pub fn pack(
            len: usize,
            dim: usize,
            coord: impl Fn(usize, usize) -> f64,
            norm_sq: impl Fn(usize) -> f64,
        ) -> Self {
            let padded = len.div_ceil(TILE_CENTERS).max(1) * TILE_CENTERS;
            let mut coords = vec![0.0; padded * dim];
            let mut norms = vec![f64::INFINITY; padded];
            for (c, norm) in norms.iter_mut().enumerate().take(len) {
                let (g, j) = (c / TILE_CENTERS, c % TILE_CENTERS);
                for t in 0..dim {
                    coords[(g * dim + t) * TILE_CENTERS + j] = coord(c, t);
                }
                *norm = norm_sq(c);
            }
            Self {
                coords,
                norms_sq: norms,
                dim,
                len,
            }
        }

        /// Number of real (unpadded) centers.
        pub fn len(&self) -> usize {
            self.len
        }

        /// `true` when no centers are packed.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Number of [`TILE_CENTERS`]-wide panels, including the padded
        /// tail.
        pub fn n_panels(&self) -> usize {
            self.norms_sq.len() / TILE_CENTERS
        }

        /// The column-major coordinate block of panel `g`
        /// (`dim · TILE_CENTERS` values).
        #[inline]
        pub fn panel_coords(&self, g: usize) -> &[f64] {
            &self.coords[g * self.dim * TILE_CENTERS..(g + 1) * self.dim * TILE_CENTERS]
        }

        /// The (`+∞`-padded) squared norms of every panel, in order.
        #[inline]
        pub fn norms_sq(&self) -> &[f64] {
            &self.norms_sq
        }

        /// The (possibly `+∞`-padded) squared norms of panel `g`.
        #[inline]
        pub fn panel_norms_sq(&self, g: usize) -> &[f64; TILE_CENTERS] {
            self.norms_sq[g * TILE_CENTERS..(g + 1) * TILE_CENTERS]
                .try_into()
                .expect("panel width")
        }
    }

    /// The 4×4 micro-kernel: dots of four point rows against one packed
    /// panel. The d-loop is the only real loop — the 4×4 multiply-add
    /// block is fully unrolled around `[f64; TILE_CENTERS]` lane
    /// accumulators. Per-pair accumulation order is exactly [`dot_seq`].
    ///
    /// # Panics
    /// Panics when any row is shorter than the panel's dimension.
    #[inline]
    pub fn dots_x4_panel(
        rows: [&[f64]; TILE_POINTS],
        panel: &[f64],
    ) -> [[f64; TILE_CENTERS]; TILE_POINTS] {
        let d = panel.len() / TILE_CENTERS;
        let [r0, r1, r2, r3] = rows;
        assert!(
            r0.len() >= d && r1.len() >= d && r2.len() >= d && r3.len() >= d,
            "row shorter than panel dimension"
        );
        let mut acc = [[0.0f64; TILE_CENTERS]; TILE_POINTS];
        for t in 0..d {
            let cv: &[f64; TILE_CENTERS] = panel[t * TILE_CENTERS..(t + 1) * TILE_CENTERS]
                .try_into()
                .expect("panel stride");
            let xs = [r0[t], r1[t], r2[t], r3[t]];
            for p in 0..TILE_POINTS {
                for c in 0..TILE_CENTERS {
                    acc[p][c] += xs[p] * cv[c];
                }
            }
        }
        acc
    }

    /// Single-row form of [`dots_x4_panel`] for the block remainder —
    /// identical per-pair accumulation order.
    ///
    /// # Panics
    /// Panics when `row` is shorter than the panel's dimension.
    #[inline]
    pub fn dot_panel(row: &[f64], panel: &[f64]) -> [f64; TILE_CENTERS] {
        let d = panel.len() / TILE_CENTERS;
        assert!(row.len() >= d, "row shorter than panel dimension");
        let mut acc = [0.0f64; TILE_CENTERS];
        for (&x, cv) in row.iter().zip(panel.chunks_exact(TILE_CENTERS)) {
            for c in 0..TILE_CENTERS {
                acc[c] += x * cv[c];
            }
        }
        acc
    }
}

/// The factorized squared distance `(‖a‖² + ‖c‖² − 2a·c)⁺` from the two
/// norms and the dot, clamped at zero (cancellation can produce a tiny
/// negative).
#[inline(always)]
fn factorized_dist_sq(a_norm_sq: f64, c_norm_sq: f64, dot: f64) -> f64 {
    ((a_norm_sq + c_norm_sq) - 2.0 * dot).max(0.0)
}

/// Packs `centers` into [`tile::CenterPanels`] with their cached norms.
fn pack_panels(store: &PointStore, centers: &[PointId]) -> tile::CenterPanels {
    tile::CenterPanels::pack(
        centers.len(),
        store.dim(),
        |c, t| store.coords(centers[c])[t],
        |c| store.norm_sq(centers[c]),
    )
}

/// Squared distance from stored point `id` to `coords` under `kernel`'s
/// single-pair arithmetic, where `coords` need not be a store row (a
/// grid vertex, a moving ball center). `coords_norm_sq` must be
/// [`tile::dot_seq`]`(coords, coords)`; only the tiled kernel reads it.
/// Coordinates equal to a stored row therefore get exactly `0.0`, as a
/// duplicate row would. Sweep dispatch ([`Kernel::dispatch`]) does not
/// apply — callers asked for this kernel's arithmetic.
#[inline]
pub fn dist_sq_to_coords(
    store: &PointStore,
    id: PointId,
    coords: &[f64],
    coords_norm_sq: f64,
    kernel: Kernel,
) -> f64 {
    let row = store.coords(id);
    match kernel {
        Kernel::Scalar => dist_sq_scalar(row, coords),
        Kernel::Tiled => factorized_dist_sq(
            store.norm_sq(id),
            coords_norm_sq,
            tile::dot_seq(row, coords),
        ),
    }
}

/// Distance between two stored points under `kernel`'s arithmetic — the
/// single-pair form behind [`crate::Metric::dist`] on a
/// [`crate::StoreOracle`]. Sweep dispatch ([`Kernel::dispatch`]) does not
/// apply to single pairs — callers asked for this kernel's arithmetic.
pub fn pair_dist(store: &PointStore, a: PointId, b: PointId, kernel: Kernel) -> f64 {
    dist_sq_to_coords(store, a, store.coords(b), store.norm_sq(b), kernel).sqrt()
}

// ---------------------------------------------------------------------------
// Center weights: the plain sweeps and their additively weighted
// (Apollonius) siblings share one body per shape.
//
// A weighted sweep subtracts a per-center weight from each Euclidean
// distance, `d(p, cᵢ) − wᵢ`, which turns nearest-center cells from a
// Voronoi into an Apollonius diagram. The tiled kernel stays in squared
// space through the *threshold* comparison
//
//   d − w < m   ⟺   d < m + w   ⟺   d² < (m + w)²  when  m + w > 0,
//
// and a (non-negative) distance can never undercut a non-positive
// threshold, so the guard `t > 0.0 && d² < t·t` is exact. Argmins screen
// conservatively (`<=`) and decide with the exact strict `<` on the
// weighted distance itself: `(d − w) + w` can round above `d`, so a
// purely squared test could re-take an exactly tied center and break
// lowest-index tie-breaking. At `w = 0` every weighted decision and write
// reproduces the plain one bit for bit, which
// `tests/weighted_equivalence.rs` pins for both kernels.
// ---------------------------------------------------------------------------

/// One center's additive weight, as a sweep's type parameter:
/// [`NoWeights`] for the plain sweeps, `f64` for the weighted ones. The
/// methods are the per-pair decisions of the sweep bodies.
trait Weight: Copy + Send + Sync {
    /// The weighted distance `d − w` (the scalar kernel's form).
    fn weigh(self, d: f64) -> f64;
    /// The tiled running-minimum state of a row whose current minimum
    /// is `d`.
    fn min_seed(d: f64) -> f64;
    /// Folds the squared distance to this center into a running-minimum
    /// state.
    fn min_step(self, d_sq: f64, s: &mut f64);
    /// Writes a running-minimum state back as the row's minimum.
    fn min_store(s: f64, d: &mut f64);
    /// The tiled argmin key of the first candidate, at squared distance
    /// `d_sq`.
    fn arg_first(self, d_sq: f64) -> f64;
    /// Takes a candidate at squared distance `d_sq` into `best` (an
    /// argmin key) when it strictly wins; returns whether it did.
    fn arg_step(self, d_sq: f64, best: &mut f64) -> bool;
    /// The distance an argmin key stands for.
    fn arg_dist(key: f64) -> f64;

    /// `d = min(d, √d_sq − w)` in the tiled kernel's form.
    #[inline]
    fn tighten(self, d_sq: f64, d: &mut f64) {
        let mut s = Self::min_seed(*d);
        self.min_step(d_sq, &mut s);
        Self::min_store(s, d);
    }
}

/// The zero-sized "no weights" type of the plain sweeps: running minima
/// and argmin keys stay in squared space behind a strict `<`, with one
/// `sqrt` per improvement (running minima) or at the end (argmins).
#[derive(Clone, Copy, Debug)]
struct NoWeights;

impl Weight for NoWeights {
    #[inline(always)]
    fn weigh(self, d: f64) -> f64 {
        d
    }

    #[inline(always)]
    fn min_seed(_: f64) -> f64 {
        f64::INFINITY
    }

    #[inline(always)]
    fn min_step(self, d_sq: f64, s: &mut f64) {
        if d_sq < *s {
            *s = d_sq;
        }
    }

    #[inline(always)]
    fn min_store(s: f64, d: &mut f64) {
        if s < *d * *d {
            *d = s.sqrt();
        }
    }

    #[inline(always)]
    fn arg_first(self, d_sq: f64) -> f64 {
        d_sq
    }

    #[inline(always)]
    fn arg_step(self, d_sq: f64, best: &mut f64) -> bool {
        let wins = d_sq < *best;
        if wins {
            *best = d_sq;
        }
        wins
    }

    #[inline(always)]
    fn arg_dist(key: f64) -> f64 {
        key.sqrt()
    }

    #[inline(always)]
    fn tighten(self, d_sq: f64, d: &mut f64) {
        if d_sq < *d * *d {
            *d = d_sq.sqrt();
        }
    }
}

/// An additive weight: running-minimum states and argmin keys are
/// weighted distances, compared through the threshold test above.
impl Weight for f64 {
    #[inline(always)]
    fn weigh(self, d: f64) -> f64 {
        d - self
    }

    #[inline(always)]
    fn min_seed(d: f64) -> f64 {
        d
    }

    #[inline(always)]
    fn min_step(self, d_sq: f64, s: &mut f64) {
        let t = *s + self;
        if t > 0.0 && d_sq < t * t {
            *s = d_sq.sqrt() - self;
        }
    }

    #[inline(always)]
    fn min_store(s: f64, d: &mut f64) {
        *d = s;
    }

    #[inline(always)]
    fn arg_first(self, d_sq: f64) -> f64 {
        d_sq.sqrt() - self
    }

    #[inline(always)]
    fn arg_step(self, d_sq: f64, best: &mut f64) -> bool {
        // Conservative squared-space screen, exact linear decision.
        let t = *best + self;
        if t > 0.0 && d_sq <= t * t {
            let nd = d_sq.sqrt() - self;
            if nd < *best {
                *best = nd;
                return true;
            }
        }
        false
    }

    #[inline(always)]
    fn arg_dist(key: f64) -> f64 {
        key
    }
}

/// The weights of a center set: [`NoWeights`], or one `f64` per center.
trait Weights: Copy + Send + Sync {
    /// One center's weight.
    type One: Weight;
    /// The weight of center `c`.
    fn at(self, c: usize) -> Self::One;
    /// The weights of centers `r`.
    fn slice(self, r: Range<usize>) -> Self;
    /// Asserts one weight per center.
    fn check(self, centers: usize);
    /// The weights laid out over `slots` panel slots. Pad slots get
    /// weight `0.0`, which is harmless: their `+∞` norms make every
    /// padded squared distance `+∞`, which never passes a test.
    fn padded(self, slots: usize) -> Vec<Self::One>;
}

impl Weights for NoWeights {
    type One = NoWeights;

    #[inline(always)]
    fn at(self, _: usize) -> NoWeights {
        NoWeights
    }

    fn slice(self, _: Range<usize>) -> Self {
        self
    }

    fn check(self, _: usize) {}

    fn padded(self, slots: usize) -> Vec<NoWeights> {
        vec![NoWeights; slots]
    }
}

impl Weights for &[f64] {
    type One = f64;

    #[inline(always)]
    fn at(self, c: usize) -> f64 {
        self[c]
    }

    fn slice(self, r: Range<usize>) -> Self {
        &self[r]
    }

    fn check(self, centers: usize) {
        assert_eq!(centers, self.len(), "one weight per center required");
    }

    fn padded(self, slots: usize) -> Vec<f64> {
        let mut padded = vec![0.0; slots];
        padded[..self.len()].copy_from_slice(self);
        padded
    }
}

/// Calls `visit(i, d²)` for each `rows[i]`, in order, with its squared
/// distance to `q` under `kernel` (already dispatched): the scalar loop,
/// or the tiled form over [`tile::TILE_POINTS`]-row blocks.
#[inline]
fn sweep_one(
    store: &PointStore,
    rows: &[PointId],
    q: PointId,
    kernel: Kernel,
    mut visit: impl FnMut(usize, f64),
) {
    let qc = store.coords(q);
    match kernel {
        Kernel::Scalar => {
            for (i, &r) in rows.iter().enumerate() {
                visit(i, dist_sq_scalar(store.coords(r), qc));
            }
        }
        Kernel::Tiled => {
            let qn = store.norm_sq(q);
            let mut blocks = rows.chunks_exact(tile::TILE_POINTS);
            let mut i = 0;
            for blk in &mut blocks {
                let dots = tile::dots_x4_one(std::array::from_fn(|p| store.coords(blk[p])), qc);
                for p in 0..tile::TILE_POINTS {
                    visit(
                        i + p,
                        factorized_dist_sq(store.norm_sq(blk[p]), qn, dots[p]),
                    );
                }
                i += tile::TILE_POINTS;
            }
            for &r in blocks.remainder() {
                visit(
                    i,
                    factorized_dist_sq(store.norm_sq(r), qn, tile::dot_seq(store.coords(r), qc)),
                );
                i += 1;
            }
        }
    }
}

/// Streams each row of `points` past every panel exactly once,
/// [`tile::TILE_POINTS`] rows per block. Row `i`'s state starts as
/// `seed(&out[i])` and takes `step(state, weight, d²)` for every center
/// slot in ascending order (padded slots included: their `d²` is `+∞`);
/// `step` returns whether the slot was taken. The row ends as
/// `finish(state, last taken slot, &mut out[i])`.
///
/// # Panics
/// Panics when `out` and `points` differ in length.
#[inline]
fn sweep_panels<T, W: Copy>(
    store: &PointStore,
    points: &[PointId],
    (panels, wpad): (&tile::CenterPanels, &[W]),
    out: &mut [T],
    seed: impl Fn(&T) -> f64,
    step: impl Fn(&mut f64, W, f64) -> bool,
    finish: impl Fn(f64, usize, &mut T),
) {
    assert_eq!(out.len(), points.len(), "one output per point");
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut outs = out.chunks_exact_mut(tile::TILE_POINTS);
    for (blk, o) in (&mut blocks).zip(&mut outs) {
        let rows = std::array::from_fn(|p| store.coords(blk[p]));
        let norms: [f64; tile::TILE_POINTS] = std::array::from_fn(|p| store.norm_sq(blk[p]));
        let mut s: [f64; tile::TILE_POINTS] = std::array::from_fn(|p| seed(&o[p]));
        let mut slot = [0usize; tile::TILE_POINTS];
        for g in 0..panels.n_panels() {
            let dots = tile::dots_x4_panel(rows, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw = &wpad[g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS];
            for p in 0..tile::TILE_POINTS {
                for c in 0..tile::TILE_CENTERS {
                    let d_sq = factorized_dist_sq(norms[p], cn[c], dots[p][c]);
                    if step(&mut s[p], cw[c], d_sq) {
                        slot[p] = g * tile::TILE_CENTERS + c;
                    }
                }
            }
        }
        for p in 0..tile::TILE_POINTS {
            finish(s[p], slot[p], &mut o[p]);
        }
    }
    for (&id, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
        let (row, n) = (store.coords(id), store.norm_sq(id));
        let (mut s, mut slot) = (seed(o), 0);
        for g in 0..panels.n_panels() {
            let dots = tile::dot_panel(row, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw = &wpad[g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS];
            for c in 0..tile::TILE_CENTERS {
                if step(&mut s, cw[c], factorized_dist_sq(n, cn[c], dots[c])) {
                    slot = g * tile::TILE_CENTERS + c;
                }
            }
        }
        finish(s, slot, o);
    }
}

/// Runs the elementwise `sweep(rows, out)` over `points` and
/// `out[..points.len()]`: in [`PAR_CHUNK`]-row blocks on the pool when
/// `exec` is parallel and the sweep has at least [`PAR_MIN_POINTS`] rows,
/// else in one call. Each `out[i]` depends only on row `i`, so the result
/// is bit-identical for every [`Exec`].
fn for_each_chunk<T: Send>(
    exec: Exec<'_>,
    points: &[PointId],
    out: &mut [T],
    sweep: impl Fn(&[PointId], &mut [T]) + Sync,
) {
    let out = &mut out[..points.len()];
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return sweep(points, out);
    }
    ukc_pool::for_each_slice(exec, out, PAR_CHUNK, |start, slice| {
        sweep(&points[start..start + slice.len()], slice);
    });
}

/// Tightens `out[i]` against `center` for each of `rows`, under `kernel`
/// (already dispatched).
fn set_min_rows<W: Weight>(
    store: &PointStore,
    rows: &[PointId],
    center: PointId,
    w: W,
    kernel: Kernel,
    out: &mut [f64],
) {
    match kernel {
        Kernel::Scalar => sweep_one(store, rows, center, kernel, |i, d_sq| {
            let nd = w.weigh(d_sq.sqrt());
            if nd < out[i] {
                out[i] = nd;
            }
        }),
        // Compare in squared space and take the square root only on an
        // actual improvement: in a min-update sweep most pairs do not
        // tighten the minimum, so most `sqrt`s are skipped.
        Kernel::Tiled => sweep_one(store, rows, center, kernel, |i, d_sq| {
            w.tighten(d_sq, &mut out[i]);
        }),
    }
}

/// The running-minimum sweep against one center, dispatched once on the
/// full sweep and chunked by [`for_each_chunk`].
fn set_min<W: Weight>(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    w: W,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let kernel = kernel.dispatch(points.len(), store.dim());
    for_each_chunk(exec, points, min_dist, |pts, out| {
        set_min_rows(store, pts, center, w, kernel, out);
    });
}

/// [`set_min`] fused with the [`crate::farthest`] scan of the tightened
/// entries. In parallel, each [`PAR_CHUNK`] block tightens its rows and
/// scans them while they are hot, and the block maxima combine in chunk
/// order. A block holding a NaN restarts the scan (`max_by` replaces a
/// running NaN with whatever follows, and a NaN replaces anything), so
/// the combination is exactly the sequential scan's result.
fn set_min_farthest<W: Weight>(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    w: W,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) -> Option<(usize, f64)> {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let kernel = kernel.dispatch(points.len(), store.dim());
    let min_dist = &mut min_dist[..points.len()];
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        set_min_rows(store, points, center, w, kernel, min_dist);
        return crate::farthest(min_dist);
    }
    let blocks: Vec<Mutex<&mut [f64]>> = min_dist.chunks_mut(PAR_CHUNK).map(Mutex::new).collect();
    let partials = ukc_pool::map_chunks(exec, points.len(), PAR_CHUNK, |r| {
        let mut out = blocks[r.start / PAR_CHUNK]
            .lock()
            .expect("block slot poisoned");
        set_min_rows(store, &points[r.clone()], center, w, kernel, &mut out);
        let best = crate::farthest(&out).map(|(i, d)| (r.start + i, d));
        (best, out.iter().any(|d| d.is_nan()))
    });
    let mut best = None;
    for (block_best, restarts) in partials {
        best = match (best, block_best) {
            (Some(a), Some(b)) if !restarts => Some(crate::later_max(a, b)),
            (a, None) => a,
            (_, b) => b,
        };
    }
    best
}

/// [`nearest_center`] after dispatch, plain or additively weighted.
fn nearest_resolved<W: Weights>(
    store: &PointStore,
    centers: &[PointId],
    w: W,
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    w.check(centers.len());
    let mut best: Option<(usize, f64)> = None;
    match kernel {
        Kernel::Scalar => sweep_one(store, centers, q, kernel, |i, d_sq| {
            let d = w.at(i).weigh(d_sq.sqrt());
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }),
        Kernel::Tiled => {
            sweep_one(store, centers, q, kernel, |i, d_sq| {
                let w = w.at(i);
                best = match best {
                    None => Some((i, w.arg_first(d_sq))),
                    Some((bi, mut key)) => {
                        Some((if w.arg_step(d_sq, &mut key) { i } else { bi }, key))
                    }
                };
            });
            return best.map(|(i, key)| (i, W::One::arg_dist(key)));
        }
    }
    best
}

/// The argmin over a center set, chunked by size: per-chunk winners fold
/// **in chunk-index order** with a strict `<`, preserving first-wins
/// tie-breaking. Chunking engages purely by size, never by [`Exec`], so
/// `threads = 1` and `threads = N` agree bit for bit.
fn nearest<W: Weights>(
    store: &PointStore,
    centers: &[PointId],
    w: W,
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    w.check(centers.len());
    let kernel = kernel.dispatch(centers.len(), store.dim());
    if centers.len() < PAR_MIN_POINTS {
        return nearest_resolved(store, centers, w, q, kernel);
    }
    let partials = ukc_pool::map_chunks(exec, centers.len(), PAR_CHUNK, |r| {
        nearest_resolved(store, &centers[r.clone()], w.slice(r.clone()), q, kernel)
            .map(|(i, d)| (i + r.start, d))
    });
    let mut best: Option<(usize, f64)> = None;
    for p in partials.into_iter().flatten() {
        if best.is_none_or(|(_, bd)| p.1 < bd) {
            best = Some(p);
        }
    }
    best
}

/// The running-minimum sweep against a center set. Tiled: centers are
/// packed into panels once and every point row streams past them in one
/// pass, chunked over the points. Scalar: one [`set_min`] pass per
/// center.
fn centers_min<W: Weights>(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    w: W,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    w.check(centers.len());
    // Dispatch on the sweep's total work (n·k pair evaluations). When it
    // demotes to scalar, each per-center pass (n·d ≤ n·k·d work) does too.
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        Kernel::Tiled => {
            let panels = pack_panels(store, centers);
            let wpad = w.padded(panels.n_panels() * tile::TILE_CENTERS);
            for_each_chunk(exec, points, min_dist, |pts, out| {
                let seed = |d: &f64| W::One::min_seed(*d);
                let step = |s: &mut f64, w: W::One, d_sq| {
                    w.min_step(d_sq, s);
                    false
                };
                let finish = |s, _, d: &mut f64| W::One::min_store(s, d);
                sweep_panels(store, pts, (&panels, &wpad), out, seed, step, finish);
            });
        }
        Kernel::Scalar => {
            for (c, &center) in centers.iter().enumerate() {
                set_min(
                    store,
                    points,
                    center,
                    w.at(c),
                    Kernel::Scalar,
                    exec,
                    min_dist,
                );
            }
        }
    }
}

/// The per-point argmin over a center set. Tiled: packed panels, one
/// streaming pass, chunked over the points. Scalar: one [`nearest`] per
/// query.
fn nearest_each<W: Weights>(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    w: W,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
    w.check(centers.len());
    if points.is_empty() {
        // Trivially done, even with no centers (the trait contract).
        return;
    }
    assert!(
        !centers.is_empty(),
        "nearest_center_each requires at least one center"
    );
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        Kernel::Tiled => {
            let panels = pack_panels(store, centers);
            let wpad = w.padded(panels.n_panels() * tile::TILE_CENTERS);
            for_each_chunk(exec, points, out, |pts, out| {
                nearest_each_panels(store, pts, &panels, &wpad, out);
            });
        }
        Kernel::Scalar => for_each_chunk(exec, points, out, |pts, out| {
            for (q, o) in pts.iter().zip(out) {
                *o = nearest(store, centers, w, *q, Kernel::Scalar, Exec::sequential())
                    .expect("non-empty centers");
            }
        }),
    }
}

/// The tiled body of [`nearest_each`] over packed panels: ascending slot
/// order, so ties go to the lowest index (padded slots never win).
fn nearest_each_panels<W: Weight>(
    store: &PointStore,
    points: &[PointId],
    panels: &tile::CenterPanels,
    wpad: &[W],
    out: &mut [(usize, f64)],
) {
    debug_assert!(!panels.is_empty());
    let seed = |_: &(usize, f64)| f64::INFINITY;
    let step = |key: &mut f64, w: W, d_sq| w.arg_step(d_sq, key);
    let finish = |key, slot, o: &mut (usize, f64)| *o = (slot, W::arg_dist(key));
    sweep_panels(store, points, (panels, wpad), out, seed, step, finish);
}

/// Fills `out[i] = d(points[i], q)`.
///
/// Re-dispatches through [`Kernel::dispatch`] on the sweep size, so tiny
/// sweeps run the scalar loop even under the tiled kernel.
///
/// # Panics
/// Panics when `out` is shorter than `points`.
pub fn dists_to_one(
    store: &PointStore,
    points: &[PointId],
    q: PointId,
    kernel: Kernel,
    out: &mut [f64],
) {
    par_dists_to_one(store, points, q, kernel, Exec::sequential(), out);
}

/// Parallel [`dists_to_one`]: splits `points` into [`PAR_CHUNK`]-row
/// blocks and fills each block's output slice on a pool lane. The fill
/// is elementwise (every `out[i]` depends only on pair `i`), so the
/// result is bit-identical to the sequential kernel for every [`Exec`].
///
/// # Panics
/// Panics when `out` is shorter than `points`.
pub fn par_dists_to_one(
    store: &PointStore,
    points: &[PointId],
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [f64],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
    // Resolve dispatch once on the full sweep size: chunks must never
    // re-dispatch, or the (smaller) final chunk could pick a different
    // kernel than the sequential whole-array path.
    let kernel = kernel.dispatch(points.len(), store.dim());
    for_each_chunk(exec, points, out, |pts, out| {
        sweep_one(store, pts, q, kernel, |i, d_sq| out[i] = d_sq.sqrt());
    });
}

/// Tightens a running minimum-distance array against a new center:
/// `min_dist[i] = min(min_dist[i], d(points[i], center))` — the exact
/// inner loop of Gonzalez's farthest-point sweep.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn dists_to_set_min(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    kernel: Kernel,
    min_dist: &mut [f64],
) {
    set_min(
        store,
        points,
        center,
        NoWeights,
        kernel,
        Exec::sequential(),
        min_dist,
    );
}

/// Parallel min-update sweep ([`dists_to_set_min`]): block-parallel over
/// [`PAR_CHUNK`]-row blocks. Elementwise like [`par_dists_to_one`], so
/// bit-identical across every [`Exec`] — this is the Gonzalez inner loop,
/// and the sweep where intra-solve parallelism pays the most.
///
/// With a `weight` the center is additively weighted (Apollonius):
/// `min_dist[i] = min(min_dist[i], d(points[i], center) − weight)`, the
/// inner loop of the weighted Gonzalez sweep. `min_dist` then holds
/// weighted distances, which may be negative once a weight exceeds a
/// distance.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn par_dists_to_set_min(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    weight: Option<f64>,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    match weight {
        None => set_min(store, points, center, NoWeights, kernel, exec, min_dist),
        Some(w) => set_min(store, points, center, w, kernel, exec, min_dist),
    }
}

/// One Gonzalez round: tightens `min_dist` against `center` as
/// [`par_dists_to_set_min`] does, and returns the index and value of the
/// largest tightened entry by [`crate::farthest`]'s rule (the last maximum
/// wins), or `None` for an empty sweep. In parallel the scan runs inside
/// each block's sweep; the result is identical for every [`Exec`].
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn par_dists_to_set_min_farthest(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    weight: Option<f64>,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) -> Option<(usize, f64)> {
    match weight {
        None => set_min_farthest(store, points, center, NoWeights, kernel, exec, min_dist),
        Some(w) => set_min_farthest(store, points, center, w, kernel, exec, min_dist),
    }
}

/// Index (into `centers`) and distance of the center nearest to `q`,
/// ties broken toward the lower index; `None` for an empty center set.
/// Under the tiled kernel the argmin runs in squared space with one
/// `sqrt` at the end.
pub fn nearest_center(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    let kernel = kernel.dispatch(centers.len(), store.dim());
    nearest_resolved(store, centers, NoWeights, q, kernel)
}

/// Parallel [`nearest_center`] over a large center set: per-chunk argmins
/// are computed independently and folded **in chunk-index order** with a
/// strict `<`, which preserves the sequential first-wins tie-breaking, so
/// the chosen index is independent of the lane count.
///
/// Chunking engages purely by size (`centers.len() >= PAR_MIN_POINTS`),
/// never by [`Exec`]: a sequential `Exec` folds the *same* chunks in the
/// same order, so `threads = 1` and `threads = N` agree bit for bit even
/// in the tiled kernel's rounding corners.
pub fn par_nearest_center(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    nearest(store, centers, NoWeights, q, kernel, exec)
}

/// Tightens a running minimum against a whole center set:
/// `min_dist[i] = min(min_dist[i], min_c d(points[i], centers[c]))` — the
/// k-center cost sweep, fused across centers.
///
/// For `Scalar` this is exactly `centers.len()` passes of
/// [`dists_to_set_min`]. The tiled kernel instead packs the centers into
/// [`tile::CenterPanels`] once and streams each point row past all of
/// them in a single pass — the compute-bound mini-GEMM this kernel exists
/// for — taking the minimum in squared space with one `sqrt` per
/// improved row.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn dists_to_centers_min(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    kernel: Kernel,
    min_dist: &mut [f64],
) {
    centers_min(
        store,
        points,
        centers,
        NoWeights,
        kernel,
        Exec::sequential(),
        min_dist,
    );
}

/// Parallel [`dists_to_centers_min`]: the tiled path packs panels once
/// and chunks the *points* ([`PAR_CHUNK`] rows per lane); each point's
/// center loop runs entirely inside one chunk, so results are
/// bit-identical for every [`Exec`].
///
/// With `weights` the sweep is
/// `min_dist[i] = min(min_dist[i], min_c d(points[i], c) − w_c)`. Unlike
/// the plain fused sweep, the weighted tiled path applies the per-center
/// threshold update in ascending center order inside one streaming pass,
/// so it is **bit-identical** to `centers.len()` weighted passes of
/// [`par_dists_to_set_min`] under the same resolved kernel.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`, or when `weights`
/// and `centers` differ in length.
pub fn par_dists_to_centers_min(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: Option<&[f64]>,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    match weights {
        None => centers_min(store, points, centers, NoWeights, kernel, exec, min_dist),
        Some(w) => centers_min(store, points, centers, w, kernel, exec, min_dist),
    }
}

/// Fills `out[i]` with the index and distance of the center nearest
/// `points[i]`, ties toward the lower index — the batched assignment
/// sweep, fused across centers.
///
/// For `Scalar` this runs one [`nearest_center`] per query. The tiled
/// kernel packs the centers into panels and computes every query's
/// argmin in one streaming pass — an `n × k` mini-GEMM. Tiled distances
/// here are bit-identical to the per-query [`nearest_center`] tiled path
/// (same canonical per-pair order, same ascending-index strict-`<`
/// argmin).
///
/// # Panics
/// Panics when `out` is shorter than `points`, or when `centers` is empty
/// while `points` is not.
pub fn nearest_center_each(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    kernel: Kernel,
    out: &mut [(usize, f64)],
) {
    nearest_each(
        store,
        points,
        centers,
        NoWeights,
        kernel,
        Exec::sequential(),
        out,
    );
}

/// Parallel [`nearest_center_each`]: chunks the queries; per-query work
/// never crosses a chunk, so results are bit-identical for every
/// [`Exec`].
///
/// With `weights` each query gets the index and *weighted* distance
/// `d(q, c) − w_c` of its additively weighted nearest center, ties toward
/// the lower index.
///
/// # Panics
/// Panics when `out` is shorter than `points`, when `weights` and
/// `centers` differ in length, or when `centers` is empty while `points`
/// is not.
pub fn par_nearest_center_each(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: Option<&[f64]>,
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    match weights {
        None => nearest_each(store, points, centers, NoWeights, kernel, exec, out),
        Some(w) => nearest_each(store, points, centers, w, kernel, exec, out),
    }
}

// ---------------------------------------------------------------------------
// Expected-distance sweep: the ED assignment rule over uncertain points.
//
// The sweep packs the centers into `tile::CenterPanels` once per call and
// streams every location row past them, four centers per step. Each
// kernel gets a panel micro-kernel whose lane `c` performs exactly the
// floating-point operation sequence of that kernel's single-pair form
// against center `c` — `dist_sq_scalar`, or the tiled `dot_seq` form — so
// every distance is bit-identical to `pair_dist`, only computed four
// lanes at a time.
// ---------------------------------------------------------------------------

/// Lane `c` is [`dist_sq_scalar`]`(row, center c)`: one accumulator per
/// lane, ascending dimension. (`.sum()` starts from `-0.0`, this from
/// `0.0`; squares are never `-0.0`, so both give the same bits.)
#[inline]
fn dist_sq_scalar_panel(row: &[f64], panel: &[f64]) -> [f64; tile::TILE_CENTERS] {
    let mut acc = [0.0f64; tile::TILE_CENTERS];
    for (&x, cv) in row.iter().zip(panel.chunks_exact(tile::TILE_CENTERS)) {
        for c in 0..tile::TILE_CENTERS {
            let d = x - cv[c];
            acc[c] += d * d;
        }
    }
    acc
}

/// Fills `out[i]` with the index of the center minimizing the expected
/// distance `Σⱼ pᵢⱼ·d(Pᵢⱼ, c)` from `points[i]` (less `weights[c]` when
/// weights are given), ties toward the lower index — the batched ED
/// assignment sweep behind [`crate::StoreOracle`]'s
/// [`crate::DistanceOracle::expected_nearest_each`].
///
/// Every pair uses exactly the arithmetic of [`pair_dist`] under
/// `kernel` (no [`Kernel::dispatch`]: the pointwise loop this replaces
/// never dispatched either), and each center's terms are summed in
/// support order starting from the first term, which is what `.sum()`
/// computes. The output is therefore identical to the trait's default
/// per-pair loop over the same oracle. Sequential: callers chunk
/// `points` across lanes.
///
/// # Panics
/// Panics when `out` is shorter than `points`, when `weights` and
/// `centers` differ in length, or when `centers` is empty while `points`
/// is not.
pub fn expected_nearest_each<S: DiscreteDistribution<PointId>>(
    store: &PointStore,
    points: &[S],
    centers: &[PointId],
    weights: Option<&[f64]>,
    kernel: Kernel,
    out: &mut [usize],
) {
    crate::check_expected_nearest_args(points.len(), centers.len(), weights, out.len());
    if points.is_empty() {
        return;
    }
    let panels = pack_panels(store, centers);
    let row = |id: PointId| (store.coords(id), store.norm_sq(id));
    match kernel {
        Kernel::Scalar => {
            let finish = |_: f64, _: f64, d_sq: f64| d_sq;
            expected_nearest_panels(
                points,
                &panels,
                weights,
                out,
                row,
                dist_sq_scalar_panel,
                finish,
            );
        }
        Kernel::Tiled => {
            let (lanes, finish) = (tile::dot_panel, factorized_dist_sq);
            expected_nearest_panels(points, &panels, weights, out, row, lanes, finish);
        }
    }
}

/// The shared sweep body. For each point, every location row goes past
/// every panel through `lanes` (four per-center values per panel), then
/// `finish(row norm, center norm, value)` turns each value into a squared
/// distance; the distances, weighted by the location's probability, fold
/// into their centers' running sums in support order. Last comes the
/// strict-`<` argmin over the real centers (padded panel columns
/// accumulate values it never reads).
fn expected_nearest_panels<'a, S: DiscreteDistribution<PointId>>(
    points: &[S],
    panels: &tile::CenterPanels,
    weights: Option<&[f64]>,
    out: &mut [usize],
    row: impl Fn(PointId) -> (&'a [f64], f64),
    lanes: impl Fn(&[f64], &[f64]) -> [f64; tile::TILE_CENTERS],
    finish: impl Fn(f64, f64, f64) -> f64,
) {
    let padded = panels.n_panels() * tile::TILE_CENTERS;
    let mut dist = vec![0.0f64; padded];
    let mut sums = vec![0.0f64; padded];
    for (up, o) in points.iter().zip(out.iter_mut()) {
        for (j, (&loc, &p)) in up.locations().iter().zip(up.probs()).enumerate() {
            let (r, n) = row(loc);
            let norms = panels.norms_sq().chunks_exact(tile::TILE_CENTERS);
            for (g, (d, cn)) in dist
                .chunks_exact_mut(tile::TILE_CENTERS)
                .zip(norms)
                .enumerate()
            {
                let v = lanes(r, panels.panel_coords(g));
                for c in 0..tile::TILE_CENTERS {
                    d[c] = finish(n, cn[c], v[c]).sqrt();
                }
            }
            if j == 0 {
                // `.sum()` adds the first term onto `-0.0`, which leaves
                // it unchanged.
                for (s, &d) in sums.iter_mut().zip(&dist) {
                    *s = p * d;
                }
            } else {
                for (s, &d) in sums.iter_mut().zip(&dist) {
                    *s += p * d;
                }
            }
        }
        let mut best = 0usize;
        let mut best_v = f64::INFINITY;
        for (c, &e) in sums[..panels.len()].iter().enumerate() {
            let v = weights.map_or(e, |w| e - w[c]);
            if v < best_v {
                best_v = v;
                best = c;
            }
        }
        *o = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn store(seed: u64, n: usize, d: usize) -> PointStore {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new((0..d).map(|_| rnd() * 10.0 - 5.0).collect()))
            .collect();
        PointStore::from_points(&pts)
    }

    #[test]
    fn ed_panel_lanes_match_the_single_pair_kernels_bitwise() {
        // Lane c of each ED micro-kernel must be the per-pair kernel
        // against center c, bit for bit, in every dimension class.
        for d in [1usize, 2, 3, 7, 8, 9, 16, 19] {
            let st = store(d as u64 + 40, 9, d);
            let centers: Vec<PointId> = (4..9).map(PointId).collect();
            let panels = pack_panels(&st, &centers);
            for row in (0..4).map(PointId) {
                let a = st.coords(row);
                for g in 0..panels.n_panels() {
                    let scalar = dist_sq_scalar_panel(a, panels.panel_coords(g));
                    let tiled = tile::dot_panel(a, panels.panel_coords(g));
                    for (c, &id) in centers.iter().enumerate().skip(g * 4).take(4) {
                        let b = st.coords(id);
                        let lane = c % 4;
                        assert_eq!(scalar[lane].to_bits(), dist_sq_scalar(a, b).to_bits());
                        let dist = factorized_dist_sq(st.norm_sq(row), st.norm_sq(id), tiled[lane]);
                        let reference =
                            dist_sq_to_coords(&st, row, b, st.norm_sq(id), Kernel::Tiled);
                        assert_eq!(dist.to_bits(), reference.to_bits(), "d={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_dots_match_dot_seq_bitwise() {
        // Every tiled dot form — four rows against one query, one row
        // against a panel — is the canonical sequential dot, bit for bit.
        for d in [1usize, 7, 8, 9, 24, 31] {
            let s = store(d as u64, 6, d);
            let ids = s.ids();
            let q = s.coords(PointId(5));
            let dots = tile::dots_x4_one(std::array::from_fn(|p| s.coords(ids[p])), q);
            let panels = pack_panels(&s, &ids[..4]);
            let lanes = tile::dot_panel(q, panels.panel_coords(0));
            for p in 0..4 {
                let sequential = tile::dot_seq(s.coords(ids[p]), q);
                assert_eq!(dots[p].to_bits(), sequential.to_bits(), "d={d}");
                assert_eq!(lanes[p].to_bits(), sequential.to_bits(), "d={d}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_batched_routines() {
        let s = store(11, 20, 9);
        let ids = s.ids();
        for q in [PointId(0), PointId(7), PointId(19)] {
            let mut scalar = vec![0.0; ids.len()];
            let mut tiled = vec![0.0; ids.len()];
            dists_to_one(&s, &ids, q, Kernel::Scalar, &mut scalar);
            dists_to_one(&s, &ids, q, Kernel::Tiled, &mut tiled);
            for (a, b) in scalar.iter().zip(tiled.iter()) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a));
            }
        }
    }

    #[test]
    fn dists_to_set_min_is_running_minimum() {
        let s = store(2, 15, 3);
        let ids = s.ids();
        let mut min_dist = vec![f64::INFINITY; ids.len()];
        for c in [PointId(3), PointId(9)] {
            dists_to_set_min(&s, &ids, c, Kernel::Scalar, &mut min_dist);
        }
        for (i, id) in ids.iter().enumerate() {
            let d3 = dist_sq_scalar(s.coords(*id), s.coords(PointId(3))).sqrt();
            let d9 = dist_sq_scalar(s.coords(*id), s.coords(PointId(9))).sqrt();
            assert_eq!(min_dist[i], d3.min(d9), "point {i}");
        }
    }

    #[test]
    fn nearest_center_ties_prefer_first() {
        let pts = vec![
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![-1.0, 0.0]),
            Point::new(vec![0.0, 0.0]),
        ];
        let s = PointStore::from_points(&pts);
        let centers = [PointId(0), PointId(1)];
        let (idx, d) = nearest_center(&s, &centers, PointId(2), Kernel::Tiled).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(d, 1.0);
        assert!(nearest_center(&s, &[], PointId(2), Kernel::Scalar).is_none());
    }

    #[test]
    fn counter_accumulates() {
        let c = DistCounter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.count(), 7);
        assert_eq!(c.since(5), 2);
        assert_eq!(c.since(10), 0);
    }

    #[test]
    fn counter_sums_adds_from_many_threads_exactly() {
        let c = DistCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.count(), 4000);
    }

    #[test]
    fn par_fills_match_sequential_bitwise() {
        let s = store(21, 2 * PAR_MIN_POINTS + 37, 5);
        let ids = s.ids();
        let pool = ukc_pool::Pool::new(3);
        let exec = Exec::pooled(&pool, 3);
        for kernel in Kernel::ALL {
            let mut seq = vec![0.0; ids.len()];
            dists_to_one(&s, &ids, PointId(5), kernel, &mut seq);
            let mut par = vec![0.0; ids.len()];
            par_dists_to_one(&s, &ids, PointId(5), kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![f64::INFINITY; ids.len()];
            let mut par = vec![f64::INFINITY; ids.len()];
            for c in [PointId(0), PointId(999), PointId(4321)] {
                dists_to_set_min(&s, &ids, c, kernel, &mut seq);
                par_dists_to_set_min(&s, &ids, c, None, kernel, exec, &mut par);
            }
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn par_nearest_center_is_lane_count_independent() {
        // d = 5 keeps the factorized kernels above the dispatch cutoff.
        let s = store(4, PAR_MIN_POINTS + 123, 5);
        let centers = s.ids();
        let pool = ukc_pool::Pool::new(4);
        for kernel in Kernel::ALL {
            for q in [PointId(0), PointId(17), PointId(4000)] {
                let seq = par_nearest_center(&s, &centers, q, kernel, Exec::sequential());
                let par = par_nearest_center(&s, &centers, q, kernel, Exec::pooled(&pool, 4));
                let (si, sd) = seq.expect("non-empty centers");
                let (pi, pd) = par.expect("non-empty centers");
                assert_eq!(si, pi, "{kernel:?}");
                assert_eq!(sd.to_bits(), pd.to_bits(), "{kernel:?}");
            }
        }
        assert!(
            par_nearest_center(&s, &[], PointId(0), Kernel::Scalar, Exec::sequential()).is_none()
        );
    }

    #[test]
    fn dispatch_is_pinned_to_measured_cutoffs() {
        for k in Kernel::ALL {
            // Low dimension never factorizes (BENCH_kernel.json d=2 rows).
            assert_eq!(k.dispatch(1_000_000, 2), Kernel::Scalar);
        }
        // Scalar always passes through.
        assert_eq!(Kernel::Scalar.dispatch(1_000_000, 32), Kernel::Scalar);
        // Below the measured work cutoff (n=1k, d=8 loses): scalar.
        assert_eq!(Kernel::Tiled.dispatch(1_000, 8), Kernel::Scalar);
        // From the cutoff upward the requested kernel runs (n=1k, d=32).
        assert_eq!(Kernel::Tiled.dispatch(1_000, 32), Kernel::Tiled);
        // The boundary is inclusive: work == FACTORIZED_MIN_WORK engages.
        let evals = FACTORIZED_MIN_WORK / 4;
        assert_eq!(Kernel::Tiled.dispatch(evals, 4), Kernel::Tiled);
        assert_eq!(Kernel::Tiled.dispatch(evals - 1, 4), Kernel::Scalar);
    }

    #[test]
    fn kernel_parse_roundtrips_names() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        // The retired blocked kernel's name resolves to the tiled kernel.
        assert_eq!(Kernel::parse("blocked"), Some(Kernel::Tiled));
        assert_eq!(Kernel::parse("simd"), None);
        assert_eq!(Kernel::parse(""), None);
    }

    #[test]
    fn par_chunks_align_with_point_tiles() {
        // Chunk boundaries land on tile boundaries, so only the global
        // tail block is a remainder regardless of chunking.
        assert_eq!(PAR_CHUNK % tile::TILE_POINTS, 0);
    }

    #[test]
    fn tiled_matches_scalar_within_tolerance() {
        // 602·33 work keeps the public entries on the tiled path; 602 % 4
        // exercises the block remainder.
        let s = store(31, 602, 33);
        let ids = s.ids();
        let mut scalar = vec![0.0; ids.len()];
        let mut tiled = vec![0.0; ids.len()];
        dists_to_one(&s, &ids, PointId(7), Kernel::Scalar, &mut scalar);
        dists_to_one(&s, &ids, PointId(7), Kernel::Tiled, &mut tiled);
        for (a, b) in scalar.iter().zip(&tiled) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a));
        }

        let mut ms = vec![f64::INFINITY; ids.len()];
        let mut mt = vec![f64::INFINITY; ids.len()];
        for c in [PointId(3), PointId(11), PointId(600)] {
            dists_to_set_min(&s, &ids, c, Kernel::Scalar, &mut ms);
            dists_to_set_min(&s, &ids, c, Kernel::Tiled, &mut mt);
        }
        for (a, b) in ms.iter().zip(&mt) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a));
        }
    }

    #[test]
    fn tiled_self_and_duplicate_distances_are_exactly_zero() {
        let s = store(5, 9, 17);
        for i in 0..9 {
            assert_eq!(pair_dist(&s, PointId(i), PointId(i), Kernel::Tiled), 0.0);
        }
        let mut s2 = PointStore::new(3);
        let a = s2.push(&[1.25, -7.5, 3.125]);
        let b = s2.push(&[1.25, -7.5, 3.125]);
        assert_eq!(pair_dist(&s2, a, b, Kernel::Tiled), 0.0);
    }

    #[test]
    fn fused_centers_min_matches_per_pair_reference_bitwise() {
        // 203 % 4 = 3 remainder rows; 6 centers = one padded panel; the
        // 203·6·40 work engages tiled through the public entry.
        let s = store(13, 203, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..6).map(|i| PointId(i * 30)).collect();
        let mut fused = vec![f64::INFINITY; ids.len()];
        dists_to_centers_min(&s, &ids, &centers, Kernel::Tiled, &mut fused);
        for (i, id) in ids.iter().enumerate() {
            // Reference: min over centers of the canonical tiled squared
            // distance, one sqrt at the end — the documented semantics.
            let n = s.norm_sq(*id);
            let mut best = f64::INFINITY;
            for c in &centers {
                let nd_sq = ((n + s.norm_sq(*c))
                    - 2.0 * tile::dot_seq(s.coords(*id), s.coords(*c)))
                .max(0.0);
                if nd_sq < best {
                    best = nd_sq;
                }
            }
            assert_eq!(fused[i].to_bits(), best.sqrt().to_bits(), "point {i}");
        }
    }

    #[test]
    fn fused_centers_min_agrees_with_per_center_passes() {
        let s = store(23, 202, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..5).map(|i| PointId(i * 40 + 1)).collect();
        for kernel in Kernel::ALL {
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, kernel, &mut fused);
            let mut loops = vec![f64::INFINITY; ids.len()];
            for c in &centers {
                dists_to_set_min(&s, &ids, *c, kernel, &mut loops);
            }
            for (a, b) in fused.iter().zip(&loops) {
                // Tolerance, not bits: the per-center passes round through
                // sqrt between updates, the fused pass does not.
                assert!((a - b).abs() < 1e-9 * (1.0 + a), "{kernel:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_nearest_each_matches_per_query_nearest_bitwise() {
        let s = store(17, 202, 40);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..7).map(|i| PointId(i * 25)).collect();
        let mut fused = vec![(0usize, 0.0f64); ids.len()];
        nearest_center_each(&s, &ids, &centers, Kernel::Tiled, &mut fused);
        for (i, id) in ids.iter().enumerate() {
            // The per-query tiled path (bypassing dispatch: 7 centers is
            // far below the cutoff) must agree bit for bit — same
            // canonical per-pair order, same ascending strict-< argmin.
            let (bi, bd) = nearest_resolved(&s, &centers, NoWeights, *id, Kernel::Tiled).unwrap();
            assert_eq!(fused[i].0, bi, "point {i}");
            assert_eq!(fused[i].1.to_bits(), bd.to_bits(), "point {i}");
        }
    }

    #[test]
    fn fused_nearest_ties_prefer_lowest_index_across_panels() {
        // Six identical centers span two panels; every query must pick
        // index 0 even though panel 1 holds equally-near copies.
        let mut s = PointStore::new(8);
        let c = [0.5, -1.0, 2.0, 0.25, -3.0, 1.0, 0.0, 4.0];
        for _ in 0..6 {
            s.push(&c);
        }
        for i in 0..40 {
            let mut p = c;
            p[0] += (i as f64) * 0.1 + 0.1;
            s.push(&p);
        }
        let queries = s.ids();
        let centers: Vec<PointId> = (0..6).map(PointId).collect();
        let mut out = vec![(9usize, -1.0f64); queries.len()];
        // Call the tiled path directly: this sweep sits below the
        // dispatch cutoff on purpose (ties are a small-case hazard too).
        let panels = pack_panels(&s, &centers);
        let wpad = NoWeights.padded(panels.n_panels() * tile::TILE_CENTERS);
        nearest_each_panels(&s, &queries, &panels, &wpad, &mut out);
        for (i, (idx, d)) in out.iter().enumerate() {
            assert_eq!(*idx, 0, "query {i} must tie-break to the lowest index");
            assert!(d.is_finite());
        }
    }

    #[test]
    fn center_panels_pad_with_infinite_norms() {
        let s = store(3, 10, 5);
        let centers: Vec<PointId> = (0..5).map(PointId).collect();
        let panels = pack_panels(&s, &centers);
        assert_eq!(panels.len(), 5);
        assert_eq!(panels.n_panels(), 2);
        let tail = panels.panel_norms_sq(1);
        assert_eq!(tail[0], s.norm_sq(PointId(4)));
        assert!(tail[1..].iter().all(|n| n.is_infinite()));
        // Column-major layout: coordinate t of panel-local center j.
        for (c, id) in centers.iter().enumerate() {
            let (g, j) = (c / tile::TILE_CENTERS, c % tile::TILE_CENTERS);
            for t in 0..5 {
                assert_eq!(
                    panels.panel_coords(g)[t * tile::TILE_CENTERS + j],
                    s.coords(*id)[t]
                );
            }
        }
    }

    #[test]
    fn par_fused_sweeps_match_sequential_bitwise() {
        let s = store(29, 2 * PAR_MIN_POINTS + 31, 7);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..9).map(|i| PointId(i * 123)).collect();
        let pool = ukc_pool::Pool::new(3);
        let exec = Exec::pooled(&pool, 3);
        for kernel in Kernel::ALL {
            let mut seq = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min(&s, &ids, &centers, kernel, &mut seq);
            let mut par = vec![f64::INFINITY; ids.len()];
            par_dists_to_centers_min(&s, &ids, &centers, None, kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, kernel, &mut seq);
            let mut par = vec![(0usize, 0.0f64); ids.len()];
            par_nearest_center_each(&s, &ids, &centers, None, kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.0, b.0, "{kernel:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn weighted_sweeps_at_zero_weight_match_plain_bitwise() {
        let s = store(41, 317, 9);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..7).map(|i| PointId(i * 41)).collect();
        let zeros = vec![0.0; centers.len()];
        for kernel in Kernel::ALL {
            let mut plain = vec![f64::INFINITY; ids.len()];
            let mut weighted = vec![f64::INFINITY; ids.len()];
            for c in &centers {
                dists_to_set_min(&s, &ids, *c, kernel, &mut plain);
                par_dists_to_set_min(
                    &s,
                    &ids,
                    *c,
                    Some(0.0),
                    kernel,
                    Exec::sequential(),
                    &mut weighted,
                );
            }
            for (a, b) in plain.iter().zip(&weighted) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }
            for q in [PointId(0), PointId(100), PointId(316)] {
                let p = nearest_center(&s, &centers, q, kernel).unwrap();
                let w = nearest(
                    &s,
                    &centers,
                    zeros.as_slice(),
                    q,
                    kernel,
                    Exec::sequential(),
                )
                .unwrap();
                assert_eq!(p.0, w.0, "{kernel:?}");
                assert_eq!(p.1.to_bits(), w.1.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn weighted_nearest_subtracts_weight_and_can_flip_winner() {
        // Two centers at x = ±1; the origin ties toward index 0 when
        // unweighted, but a weight on center 1 pulls the query into its
        // Apollonius cell.
        let pts = vec![
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![-1.0, 0.0]),
            Point::new(vec![0.0, 0.0]),
        ];
        let s = PointStore::from_points(&pts);
        let centers = [PointId(0), PointId(1)];
        for kernel in Kernel::ALL {
            let (idx, d) = nearest(
                &s,
                &centers,
                &[0.0, 0.5][..],
                PointId(2),
                kernel,
                Exec::sequential(),
            )
            .unwrap();
            assert_eq!(idx, 1, "{kernel:?}");
            assert!((d - 0.5).abs() < 1e-12, "{kernel:?}");
            // Equal weights keep the tie on the lowest index.
            let (idx, d) = nearest(
                &s,
                &centers,
                &[0.25, 0.25][..],
                PointId(2),
                kernel,
                Exec::sequential(),
            )
            .unwrap();
            assert_eq!(idx, 0, "{kernel:?}");
            assert!((d - 0.75).abs() < 1e-12, "{kernel:?}");
        }
        assert!(nearest(
            &s,
            &[],
            &[][..],
            PointId(2),
            Kernel::Scalar,
            Exec::sequential()
        )
        .is_none());
    }

    #[test]
    fn weighted_fused_sweeps_match_per_center_and_per_query_reference() {
        let s = store(53, 203, 6);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..6).map(|i| PointId(i * 31)).collect();
        let weights: Vec<f64> = (0..6).map(|i| i as f64 * 0.17).collect();
        for kernel in Kernel::ALL {
            let mut reference = vec![f64::INFINITY; ids.len()];
            for (c, w) in centers.iter().zip(&weights) {
                par_dists_to_set_min(
                    &s,
                    &ids,
                    *c,
                    Some(*w),
                    kernel,
                    Exec::sequential(),
                    &mut reference,
                );
            }
            let mut fused = vec![f64::INFINITY; ids.len()];
            par_dists_to_centers_min(
                &s,
                &ids,
                &centers,
                Some(&weights),
                kernel,
                Exec::sequential(),
                &mut fused,
            );
            for (a, b) in reference.iter().zip(&fused) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{kernel:?}");
            }

            let mut each = vec![(0usize, 0.0f64); ids.len()];
            par_nearest_center_each(
                &s,
                &ids,
                &centers,
                Some(&weights),
                kernel,
                Exec::sequential(),
                &mut each,
            );
            for (q, got) in ids.iter().zip(&each) {
                let want = nearest(
                    &s,
                    &centers,
                    weights.as_slice(),
                    *q,
                    kernel,
                    Exec::sequential(),
                )
                .unwrap();
                assert_eq!(got.0, want.0, "{kernel:?}");
                assert!(
                    (got.1 - want.1).abs() < 1e-9 * (1.0 + want.1.abs()),
                    "{kernel:?}"
                );
            }
        }
    }

    #[test]
    fn par_weighted_sweeps_match_sequential_bitwise() {
        let s = store(61, 2 * PAR_MIN_POINTS + 17, 7);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..9).map(|i| PointId(i * 117)).collect();
        let weights: Vec<f64> = (0..9).map(|i| i as f64 * 0.09).collect();
        let pool = ukc_pool::Pool::new(3);
        let exec = Exec::pooled(&pool, 3);
        for kernel in Kernel::ALL {
            let mut seq = vec![f64::INFINITY; ids.len()];
            let mut par = vec![f64::INFINITY; ids.len()];
            for (c, w) in centers.iter().zip(&weights) {
                par_dists_to_set_min(&s, &ids, *c, Some(*w), kernel, Exec::sequential(), &mut seq);
                par_dists_to_set_min(&s, &ids, *c, Some(*w), kernel, exec, &mut par);
            }
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![f64::INFINITY; ids.len()];
            par_dists_to_centers_min(
                &s,
                &ids,
                &centers,
                Some(&weights),
                kernel,
                Exec::sequential(),
                &mut seq,
            );
            let mut par = vec![f64::INFINITY; ids.len()];
            par_dists_to_centers_min(&s, &ids, &centers, Some(&weights), kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![(0usize, 0.0f64); ids.len()];
            par_nearest_center_each(
                &s,
                &ids,
                &centers,
                Some(&weights),
                kernel,
                Exec::sequential(),
                &mut seq,
            );
            let mut par = vec![(0usize, 0.0f64); ids.len()];
            par_nearest_center_each(&s, &ids, &centers, Some(&weights), kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.0, b.0, "{kernel:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn weighted_tiled_pad_columns_never_win() {
        // 5 centers → one padded panel slot; crank every real weight high
        // so a buggy pad column (weight 0, distance +∞) would be the only
        // survivor if the +∞ guard failed.
        let s = store(71, 40, 5);
        let ids = s.ids();
        let centers: Vec<PointId> = (0..5).map(PointId).collect();
        let weights = vec![1e6; 5];
        let mut each = vec![(0usize, 0.0f64); ids.len()];
        let panels = pack_panels(&s, &centers);
        let wpad = weights
            .as_slice()
            .padded(panels.n_panels() * tile::TILE_CENTERS);
        assert_eq!(wpad.len(), 8);
        assert!(wpad[5..].iter().all(|w| *w == 0.0));
        nearest_each_panels(&s, &ids, &panels, &wpad, &mut each);
        for (i, (idx, d)) in each.iter().enumerate() {
            assert!(*idx < 5, "point {i} picked a pad column");
            assert!(d.is_finite() && *d < 0.0, "point {i}");
        }
    }

    /// A store on a line: every row at 0 except `far` rows at 100, so the
    /// coverage maximum against row 0 ties exactly across those rows.
    fn line_with_far_rows(n: usize, far: &[usize]) -> PointStore {
        let mut st = PointStore::new(1);
        for i in 0..n {
            st.push(&[if far.contains(&i) {
                100.0
            } else {
                (i % 7) as f64
            }]);
        }
        st
    }

    #[test]
    fn farthest_ties_across_a_chunk_boundary_pick_the_later_row() {
        // Rows 100 (block 0) and 3000 (block 1) tie at the maximum; the
        // fused parallel scan must pick the later one, as `max_by` does.
        let n = 2 * PAR_MIN_POINTS + 5;
        let st = line_with_far_rows(n, &[100, 3_000]);
        let rows = st.ids();
        let pool = ukc_pool::Pool::new(4);
        for kernel in Kernel::ALL {
            for exec in [Exec::sequential(), Exec::pooled(&pool, 4)] {
                let mut dist = vec![f64::INFINITY; n];
                let far = par_dists_to_set_min_farthest(
                    &st,
                    &rows,
                    PointId(0),
                    None,
                    kernel,
                    exec,
                    &mut dist,
                );
                assert_eq!(far, Some((3_000, 100.0)), "{kernel:?}");
                assert_eq!(far, crate::farthest(&dist));
            }
        }
    }

    #[test]
    fn fused_farthest_matches_the_sweep_then_scan_bitwise() {
        // Plain and weighted, both kernels, 1 and 4 lanes. Coverage
        // arrays are seeded with NaNs in some blocks (a NaN restarts the
        // scan); the last case holds every row at 1e-3 except one far
        // row in block 0, so only the restart after block 1's NaN keeps
        // that row from winning, and the 1e-3 rows tie across blocks.
        let n = 3 * PAR_CHUNK + 77;
        let st = store(71, n, 8);
        let rows = st.ids();
        let pool = ukc_pool::Pool::new(4);
        let seeded = |base: f64, nans: &[usize], far: &[usize]| {
            let mut seed = vec![base; n];
            for &i in nans {
                seed[i] = f64::NAN;
            }
            for &i in far {
                seed[i] = f64::INFINITY;
            }
            seed
        };
        let seeds = [
            seeded(f64::INFINITY, &[], &[]),
            seeded(f64::INFINITY, &[5], &[]),
            seeded(f64::INFINITY, &[2_100, 4_500], &[]),
            seeded(f64::INFINITY, &[n - 1], &[]),
            seeded(1e-3, &[2_100], &[10]),
        ];
        for kernel in Kernel::ALL {
            for weight in [None, Some(0.0), Some(1.25)] {
                for (case, seed) in seeds.iter().enumerate() {
                    let mut want = seed.clone();
                    par_dists_to_set_min(
                        &st,
                        &rows,
                        PointId(9),
                        weight,
                        kernel,
                        Exec::sequential(),
                        &mut want,
                    );
                    let want_far = crate::farthest(&want);
                    for exec in [Exec::sequential(), Exec::pooled(&pool, 4)] {
                        let mut got = seed.clone();
                        let far = par_dists_to_set_min_farthest(
                            &st,
                            &rows,
                            PointId(9),
                            weight,
                            kernel,
                            exec,
                            &mut got,
                        );
                        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{kernel:?} {weight:?} {case}");
                        assert_eq!(
                            far.map(|(i, d)| (i, d.to_bits())),
                            want_far.map(|(i, d)| (i, d.to_bits())),
                            "{kernel:?} {weight:?} {case}"
                        );
                    }
                }
            }
        }
    }
}
