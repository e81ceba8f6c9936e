//! Batched Euclidean distance kernels over a [`PointStore`].
//!
//! Three interchangeable kernels compute every routine:
//!
//! * [`Kernel::Scalar`] — per-pair difference-and-square with sequential
//!   summation, the exact arithmetic of [`crate::Point::dist`]. Results
//!   are bit-identical to the pointwise [`crate::Euclidean`] metric; this
//!   is the reference path the golden-equivalence suites pin against.
//! * [`Kernel::Blocked`] — the `‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b` form over
//!   8-wide unrolled dot products, using the store's cached squared
//!   norms. Faster (independent accumulators expose instruction-level
//!   parallelism and vectorize), but the different f64 summation order
//!   perturbs results by a few ulps; callers needing bit-stability pick
//!   `Scalar`.
//! * [`Kernel::Tiled`] — the same norm factorization restructured as a
//!   register-tiled mini-GEMM (see [`tile`]): multi-center sweeps
//!   ([`dists_to_centers_min`], [`nearest_center_each`]) pack
//!   [`tile::TILE_CENTERS`] centers into a column-major panel that stays
//!   in L1 and stream each point row past it exactly once,
//!   [`tile::TILE_POINTS`] rows per block, with the d-loop as the only
//!   real loop around a fully unrolled 4×4 block of
//!   `[f64; TILE_CENTERS]` lane accumulators the autovectorizer keeps in
//!   vector registers. When the store carries the opt-in f32 mirror
//!   ([`PointStore::try_enable_f32`]), the tiled kernel streams the
//!   half-width coordinates and widens each element to f64 before any
//!   arithmetic, halving memory traffic in bandwidth-bound regimes while
//!   keeping f64 accumulation tolerances.
//!
//! Every tiled dot product — single pair, single-center sweep, or panel
//! block — accumulates in one canonical order (ascending dimension, one
//! f64 accumulator per pair: [`tile::dot_seq`]), and the store caches
//! norms accumulated in that same order, so `‖a‖² + ‖b‖² − 2a·b` cancels
//! exactly for duplicate points and a tiled value is a pure function of
//! the stored coordinates: block membership, chunk boundaries, and lane
//! counts never perturb a result bit.
//!
//! The factorized kernels lose to the scalar loop on tiny sweeps (the
//! norm lookups and reduction trees cost more than they save), so the
//! public entry points re-dispatch through [`Kernel::dispatch`]: below a
//! measured work cutoff `Blocked` and `Tiled` fall back to the scalar
//! loop. The decision depends only on the sweep size and dimension —
//! never on thread count or chunking — so it preserves the
//! execution-layer determinism contract.
//!
//! All kernels perform — and [`DistCounter`]-instrumented callers count —
//! exactly one distance evaluation per point-pair, so switching kernels
//! never changes instrumentation.

use crate::store::{PointId, PointStore};
use crate::DiscreteDistribution;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
/// `n`), so [`Kernel::dispatch`] demotes factorized kernels to scalar.
pub const FACTORIZED_MIN_DIM: usize = 3;

/// Minimum `pair_evals · dim` (total multiply-add work) before a
/// factorized kernel beats the scalar loop (measured: blocked loses at
/// `n = 1k, d = 8` — 8k work — and wins from `n = 1k, d = 32` — 32k).
pub const FACTORIZED_MIN_WORK: usize = 16_384;

/// Which distance kernel evaluates batched routines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Per-pair difference-and-square, sequential summation over
    /// dimensions: bit-identical to [`crate::Point::dist`].
    Scalar,
    /// Norm-factorized form over 8-wide unrolled dot products; fast,
    /// with last-ulp deviations from the scalar path.
    #[default]
    Blocked,
    /// Register-tiled mini-GEMM over packed center panels (see [`tile`]);
    /// the fastest multi-center sweeps, and the only kernel that reads
    /// the store's opt-in f32 mirror. Same tolerance contract as
    /// `Blocked`.
    Tiled,
}

impl Kernel {
    /// Every kernel, in definition order — for CLI/test matrices.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Blocked, Kernel::Tiled];

    /// Short name for reports and config keys.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Blocked => "blocked",
            Kernel::Tiled => "tiled",
        }
    }

    /// Parses a [`Kernel::name`] back to the kernel (`None` for anything
    /// else) — the single source of truth for CLI and API kernel fields.
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The kernel a sweep of `pair_evals` point-pairs in dimension `dim`
    /// should actually run: factorized kernels fall back to the scalar
    /// loop below [`FACTORIZED_MIN_DIM`] / [`FACTORIZED_MIN_WORK`], where
    /// BENCH_kernel.json shows them *losing* to it.
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
/// [`Kernel::Blocked`] report identical `distance_evals`. Internally the
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

/// One 8-lane block: products summed by the fixed reduction tree.
#[inline(always)]
fn dot8(xs: &[f64; 8], ys: &[f64; 8]) -> f64 {
    ((xs[0] * ys[0] + xs[4] * ys[4]) + (xs[1] * ys[1] + xs[5] * ys[5]))
        + ((xs[2] * ys[2] + xs[6] * ys[6]) + (xs[3] * ys[3] + xs[7] * ys[7]))
}

/// Dot product with eight independent accumulators (8-wide unroll).
///
/// The independent partial sums break the sequential-add dependency
/// chain, which is what lets the compiler vectorize and the CPU overlap
/// the multiply-adds.
#[inline]
pub fn dot_blocked(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    // The d == 8 case (one exact block) is the kernel-comparison sweet
    // spot; dispatching to the fixed-size form skips all iterator and
    // remainder machinery. The summation tree is identical to the general
    // path's, so both produce the same value for the same input.
    if let (Ok(xs), Ok(ys)) = (<&[f64; 8]>::try_from(a), <&[f64; 8]>::try_from(b)) {
        return dot8(xs, ys);
    }
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(8);
    let mut cb = b[..n].chunks_exact(8);
    let mut acc = [0.0f64; 8];
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        // Fixed-size views let the compiler drop every bounds check and
        // keep the 8 lanes in vector registers.
        let xs: &[f64; 8] = xs.try_into().expect("chunks_exact(8)");
        let ys: &[f64; 8] = ys.try_into().expect("chunks_exact(8)");
        for lane in 0..8 {
            acc[lane] += xs[lane] * ys[lane];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

/// Squared distance via `‖a‖² + ‖b‖² − 2a·b` with precomputed norms,
/// clamped at zero (cancellation can produce a tiny negative).
#[inline]
pub fn dist_sq_blocked(a: &[f64], a_norm_sq: f64, b: &[f64], b_norm_sq: f64) -> f64 {
    ((a_norm_sq + b_norm_sq) - 2.0 * dot_blocked(a, b)).max(0.0)
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
///
/// **f32 storage.** The primitives are generic over
/// [`Coord`](tile::Coord): elements
/// are widened to f64 *before* any arithmetic, so enabling the store's
/// f32 mirror halves memory traffic but keeps f64 accumulation — the
/// only precision loss is the one-time coordinate rounding at ingest.
pub mod tile {
    /// Point rows processed together per block (interleaved for
    /// instruction-level parallelism).
    pub const TILE_POINTS: usize = 4;

    /// Centers packed per panel — the SIMD lane width of the
    /// `[f64; TILE_CENTERS]` accumulator arrays.
    pub const TILE_CENTERS: usize = 4;

    /// A coordinate element the tiled kernel can stream (f64, or the
    /// store's opt-in f32 mirror); widened to f64 before any arithmetic.
    pub trait Coord: Copy + Send + Sync + 'static {
        /// The element as f64 (exact — both storage types embed in f64).
        fn widen(self) -> f64;
    }

    impl Coord for f64 {
        #[inline(always)]
        fn widen(self) -> f64 {
            self
        }
    }

    impl Coord for f32 {
        #[inline(always)]
        fn widen(self) -> f64 {
            f64::from(self)
        }
    }

    /// The canonical tiled dot product: one f64 accumulator, ascending
    /// dimension. Every tiled code path reproduces exactly this operation
    /// sequence per pair (see the module docs), which is what makes tiled
    /// values blocking-independent and self-cancelling for duplicates.
    #[inline]
    pub fn dot_seq<A: Coord, B: Coord>(a: &[A], b: &[B]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| x.widen() * y.widen())
            .sum()
    }

    /// Dots of four point rows against one query row, interleaved for
    /// ILP; each row's accumulation order is exactly [`dot_seq`].
    ///
    /// # Panics
    /// Panics when any row is shorter than `q`.
    #[inline]
    pub fn dots_x4_one<T: Coord, Q: Coord>(
        rows: [&[T]; TILE_POINTS],
        q: &[Q],
    ) -> [f64; TILE_POINTS] {
        let d = q.len();
        let [r0, r1, r2, r3] = rows;
        assert!(
            r0.len() >= d && r1.len() >= d && r2.len() >= d && r3.len() >= d,
            "row shorter than query"
        );
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (t, &qt) in q.iter().enumerate() {
            let qt = qt.widen();
            a0 += r0[t].widen() * qt;
            a1 += r1[t].widen() * qt;
            a2 += r2[t].widen() * qt;
            a3 += r3[t].widen() * qt;
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
        /// `norm_sq(c)` supply the (already widened) values.
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
    pub fn dots_x4_panel<T: Coord>(
        rows: [&[T]; TILE_POINTS],
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
            let xs = [r0[t].widen(), r1[t].widen(), r2[t].widen(), r3[t].widen()];
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
    pub fn dot_panel<T: Coord>(row: &[T], panel: &[f64]) -> [f64; TILE_CENTERS] {
        let d = panel.len() / TILE_CENTERS;
        assert!(row.len() >= d, "row shorter than panel dimension");
        let mut acc = [0.0f64; TILE_CENTERS];
        for (&x, cv) in row.iter().zip(panel.chunks_exact(TILE_CENTERS)) {
            let x = x.widen();
            for c in 0..TILE_CENTERS {
                acc[c] += x * cv[c];
            }
        }
        acc
    }
}

/// A typed view of the storage the tiled kernel streams: the f32 mirror
/// when the store carries one, else the f64 coordinates — in both cases
/// paired with squared norms accumulated in [`tile::dot_seq`] order.
struct TiledView<'a, T> {
    coords: &'a [T],
    norms_sq: &'a [f64],
    dim: usize,
}

impl<'a, T: tile::Coord> TiledView<'a, T> {
    #[inline]
    fn row(&self, id: PointId) -> &'a [T] {
        &self.coords[id.0 * self.dim..(id.0 + 1) * self.dim]
    }

    #[inline]
    fn norm_sq(&self, id: PointId) -> f64 {
        self.norms_sq[id.0]
    }
}

fn tiled_view_f64(store: &PointStore) -> TiledView<'_, f64> {
    TiledView {
        coords: store.raw_coords(),
        norms_sq: store.raw_norms_sq_seq(),
        dim: store.dim(),
    }
}

fn tiled_view_f32(store: &PointStore) -> Option<TiledView<'_, f32>> {
    store.f32_view().map(|(coords, norms_sq)| TiledView {
        coords,
        norms_sq,
        dim: store.dim(),
    })
}

/// Packs `centers` into [`tile::CenterPanels`], widening coordinates and
/// reading the view's (order-matched) norms.
fn pack_panels<T: tile::Coord>(v: &TiledView<'_, T>, centers: &[PointId]) -> tile::CenterPanels {
    tile::CenterPanels::pack(
        centers.len(),
        v.dim,
        |c, t| v.row(centers[c])[t].widen(),
        |c| v.norm_sq(centers[c]),
    )
}

/// Distance between two stored points under `kernel`'s arithmetic — the
/// single-pair form behind [`crate::Metric::dist`] on a
/// [`crate::StoreOracle`]. The tiled kernel reads the f32 mirror when the
/// store carries one. Sweep dispatch ([`Kernel::dispatch`]) does not
/// apply to single pairs — callers asked for this kernel's arithmetic.
pub fn pair_dist(store: &PointStore, a: PointId, b: PointId, kernel: Kernel) -> f64 {
    match kernel {
        Kernel::Scalar => dist_sq_scalar(store.coords(a), store.coords(b)).sqrt(),
        Kernel::Blocked => dist_sq_blocked(
            store.coords(a),
            store.norm_sq(a),
            store.coords(b),
            store.norm_sq(b),
        )
        .sqrt(),
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                pair_dist_tiled(&v, a, b)
            } else {
                pair_dist_tiled(&tiled_view_f64(store), a, b)
            }
        }
    }
}

#[inline]
fn pair_dist_tiled<T: tile::Coord>(v: &TiledView<'_, T>, a: PointId, b: PointId) -> f64 {
    ((v.norm_sq(a) + v.norm_sq(b)) - 2.0 * tile::dot_seq(v.row(a), v.row(b)))
        .max(0.0)
        .sqrt()
}

/// Fills `out[i] = d(points[i], q)`.
///
/// Re-dispatches through [`Kernel::dispatch`] on the sweep size, so tiny
/// sweeps run the scalar loop even under a factorized kernel.
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
    assert!(out.len() >= points.len(), "output buffer too small");
    dists_to_one_resolved(
        store,
        points,
        q,
        kernel.dispatch(points.len(), store.dim()),
        out,
    );
}

/// [`dists_to_one`] after dispatch: `kernel` is run as-is. The parallel
/// entry resolves once on the full sweep and calls this per chunk, so
/// chunk sizes can never flip the dispatch decision.
fn dists_to_one_resolved(
    store: &PointStore,
    points: &[PointId],
    q: PointId,
    kernel: Kernel,
    out: &mut [f64],
) {
    match kernel {
        Kernel::Scalar => {
            let qc = store.coords(q);
            for (p, o) in points.iter().zip(out.iter_mut()) {
                *o = dist_sq_scalar(store.coords(*p), qc).sqrt();
            }
        }
        Kernel::Blocked => {
            let qc = store.coords(q);
            let qn = store.norm_sq(q);
            for (p, o) in points.iter().zip(out.iter_mut()) {
                *o = dist_sq_blocked(store.coords(*p), store.norm_sq(*p), qc, qn).sqrt();
            }
        }
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                dists_to_one_tiled(&v, points, q, out);
            } else {
                dists_to_one_tiled(&tiled_view_f64(store), points, q, out);
            }
        }
    }
}

fn dists_to_one_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    q: PointId,
    out: &mut [f64],
) {
    let qr = v.row(q);
    let qn = v.norm_sq(q);
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let dots = tile::dots_x4_one(rows, qr);
        for p in 0..tile::TILE_POINTS {
            out[i + p] = ((v.norm_sq(blk[p]) + qn) - 2.0 * dots[p]).max(0.0).sqrt();
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let dot = tile::dot_seq(v.row(id), qr);
        out[i] = ((v.norm_sq(id) + qn) - 2.0 * dot).max(0.0).sqrt();
        i += 1;
    }
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
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    dists_to_set_min_resolved(
        store,
        points,
        center,
        kernel.dispatch(points.len(), store.dim()),
        min_dist,
    );
}

/// [`dists_to_set_min`] after dispatch (see [`dists_to_one_resolved`]).
fn dists_to_set_min_resolved(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    kernel: Kernel,
    min_dist: &mut [f64],
) {
    match kernel {
        Kernel::Scalar => {
            let cc = store.coords(center);
            for (p, d) in points.iter().zip(min_dist.iter_mut()) {
                let nd = dist_sq_scalar(store.coords(*p), cc).sqrt();
                if nd < *d {
                    *d = nd;
                }
            }
        }
        Kernel::Blocked => {
            // Compare in squared space and take the square root only on an
            // actual improvement: in a min-update sweep most pairs do not
            // tighten the minimum, so most `sqrt`s are skipped. (sqrt is
            // monotone, so the comparison is equivalent up to rounding —
            // within the blocked kernel's tolerance contract.)
            let cc = store.coords(center);
            let cn = store.norm_sq(center);
            for (p, d) in points.iter().zip(min_dist.iter_mut()) {
                let nd_sq = dist_sq_blocked(store.coords(*p), store.norm_sq(*p), cc, cn);
                if nd_sq < *d * *d {
                    *d = nd_sq.sqrt();
                }
            }
        }
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                dists_to_set_min_tiled(&v, points, center, min_dist);
            } else {
                dists_to_set_min_tiled(&tiled_view_f64(store), points, center, min_dist);
            }
        }
    }
}

fn dists_to_set_min_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    center: PointId,
    min_dist: &mut [f64],
) {
    let cc = v.row(center);
    let cn = v.norm_sq(center);
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let dots = tile::dots_x4_one(rows, cc);
        for p in 0..tile::TILE_POINTS {
            let nd_sq = ((v.norm_sq(blk[p]) + cn) - 2.0 * dots[p]).max(0.0);
            let d = &mut min_dist[i + p];
            if nd_sq < *d * *d {
                *d = nd_sq.sqrt();
            }
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let nd_sq = ((v.norm_sq(id) + cn) - 2.0 * tile::dot_seq(v.row(id), cc)).max(0.0);
        let d = &mut min_dist[i];
        if nd_sq < *d * *d {
            *d = nd_sq.sqrt();
        }
        i += 1;
    }
}

/// Index (into `centers`) and distance of the center nearest to `q`,
/// ties broken toward the lower index; `None` for an empty center set.
pub fn nearest_center(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    nearest_center_resolved(
        store,
        centers,
        q,
        kernel.dispatch(centers.len(), store.dim()),
    )
}

/// [`nearest_center`] after dispatch (see [`dists_to_one_resolved`]).
fn nearest_center_resolved(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    match kernel {
        Kernel::Scalar => {
            let qc = store.coords(q);
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in centers.iter().enumerate() {
                let d = dist_sq_scalar(store.coords(*c), qc).sqrt();
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            best
        }
        Kernel::Blocked => {
            // Squared-space argmin, one sqrt at the end.
            let qc = store.coords(q);
            let qn = store.norm_sq(q);
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in centers.iter().enumerate() {
                let d_sq = dist_sq_blocked(store.coords(*c), store.norm_sq(*c), qc, qn);
                if best.is_none_or(|(_, bd)| d_sq < bd) {
                    best = Some((i, d_sq));
                }
            }
            best.map(|(i, d_sq)| (i, d_sq.sqrt()))
        }
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                nearest_center_tiled(&v, centers, q)
            } else {
                nearest_center_tiled(&tiled_view_f64(store), centers, q)
            }
        }
    }
}

/// Squared-space argmin over the centers with the canonical per-pair dot;
/// bitwise-identical distances (and thus the same argmin) as the fused
/// [`nearest_center_each`] panel path.
fn nearest_center_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    centers: &[PointId],
    q: PointId,
) -> Option<(usize, f64)> {
    let qr = v.row(q);
    let qn = v.norm_sq(q);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in centers.iter().enumerate() {
        let d_sq = ((v.norm_sq(*c) + qn) - 2.0 * tile::dot_seq(v.row(*c), qr)).max(0.0);
        if best.is_none_or(|(_, bd)| d_sq < bd) {
            best = Some((i, d_sq));
        }
    }
    best.map(|(i, d_sq)| (i, d_sq.sqrt()))
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
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return dists_to_one_resolved(store, points, q, kernel, out);
    }
    ukc_pool::for_each_slice(exec, &mut out[..points.len()], PAR_CHUNK, |start, slice| {
        dists_to_one_resolved(store, &points[start..start + slice.len()], q, kernel, slice);
    });
}

/// Parallel min-update sweep ([`dists_to_set_min`]): block-parallel over
/// [`PAR_CHUNK`]-row blocks. Elementwise like [`par_dists_to_one`], so
/// bit-identical across every [`Exec`] — this is the Gonzalez inner loop,
/// and the sweep where intra-solve parallelism pays the most.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn par_dists_to_set_min(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let kernel = kernel.dispatch(points.len(), store.dim());
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return dists_to_set_min_resolved(store, points, center, kernel, min_dist);
    }
    ukc_pool::for_each_slice(
        exec,
        &mut min_dist[..points.len()],
        PAR_CHUNK,
        |start, slice| {
            dists_to_set_min_resolved(
                store,
                &points[start..start + slice.len()],
                center,
                kernel,
                slice,
            );
        },
    );
}

/// Parallel [`nearest_center`] over a large center set: per-chunk argmins
/// are computed independently and folded **in chunk-index order** with a
/// strict `<`, which preserves the sequential first-wins tie-breaking, so
/// the chosen index is independent of the lane count.
///
/// Chunking engages purely by size (`centers.len() >= PAR_MIN_POINTS`),
/// never by [`Exec`]: a sequential `Exec` folds the *same* chunks in the
/// same order, so `threads = 1` and `threads = N` agree bit for bit even
/// in the blocked kernel's rounding corners.
pub fn par_nearest_center(
    store: &PointStore,
    centers: &[PointId],
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    let kernel = kernel.dispatch(centers.len(), store.dim());
    if centers.len() < PAR_MIN_POINTS {
        return nearest_center_resolved(store, centers, q, kernel);
    }
    let partials = ukc_pool::map_chunks(exec, centers.len(), PAR_CHUNK, |r| {
        nearest_center_resolved(store, &centers[r.clone()], q, kernel)
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

/// Tightens a running minimum against a whole center set:
/// `min_dist[i] = min(min_dist[i], min_c d(points[i], centers[c]))` — the
/// k-center cost sweep, fused across centers.
///
/// For `Scalar`/`Blocked` this is exactly `centers.len()` passes of
/// [`dists_to_set_min`] (unchanged arithmetic and results). The tiled
/// kernel instead packs the centers into [`tile::CenterPanels`] once and
/// streams each point row past all of them in a single pass — the
/// compute-bound mini-GEMM this kernel exists for.
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
    par_dists_to_centers_min(store, points, centers, kernel, Exec::sequential(), min_dist);
}

/// Parallel [`dists_to_centers_min`]: the tiled path packs panels once
/// and chunks the *points* ([`PAR_CHUNK`] rows per lane); each point's
/// center loop runs entirely inside one chunk, so results are
/// bit-identical for every [`Exec`].
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn par_dists_to_centers_min(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    // Dispatch on the sweep's total work (n·k pair evaluations). Only the
    // tiled kernel has a fused path; everything else — including a tiled
    // request demoted below the cutoff — runs the per-center passes,
    // which re-dispatch per pass exactly like direct calls.
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                par_centers_min_tiled(&v, points, centers, exec, min_dist);
            } else {
                par_centers_min_tiled(&tiled_view_f64(store), points, centers, exec, min_dist);
            }
        }
        _ => {
            for c in centers {
                par_dists_to_set_min(store, points, *c, kernel, exec, min_dist);
            }
        }
    }
}

fn par_centers_min_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    centers: &[PointId],
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    let panels = pack_panels(v, centers);
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return dists_to_centers_min_tiled(v, points, &panels, min_dist);
    }
    ukc_pool::for_each_slice(
        exec,
        &mut min_dist[..points.len()],
        PAR_CHUNK,
        |start, slice| {
            dists_to_centers_min_tiled(v, &points[start..start + slice.len()], &panels, slice);
        },
    );
}

fn dists_to_centers_min_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    panels: &tile::CenterPanels,
    min_dist: &mut [f64],
) {
    if panels.is_empty() {
        return;
    }
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let norms = [
            v.norm_sq(blk[0]),
            v.norm_sq(blk[1]),
            v.norm_sq(blk[2]),
            v.norm_sq(blk[3]),
        ];
        let mut best = [f64::INFINITY; tile::TILE_POINTS];
        for g in 0..panels.n_panels() {
            let dots = tile::dots_x4_panel(rows, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            for p in 0..tile::TILE_POINTS {
                for c in 0..tile::TILE_CENTERS {
                    // Padded columns carry +∞ norms, so their nd_sq is +∞
                    // and the strict `<` can never select them.
                    let nd_sq = ((norms[p] + cn[c]) - 2.0 * dots[p][c]).max(0.0);
                    if nd_sq < best[p] {
                        best[p] = nd_sq;
                    }
                }
            }
        }
        for p in 0..tile::TILE_POINTS {
            let d = &mut min_dist[i + p];
            if best[p] < *d * *d {
                *d = best[p].sqrt();
            }
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let row = v.row(id);
        let n = v.norm_sq(id);
        let mut best = f64::INFINITY;
        for g in 0..panels.n_panels() {
            let dots = tile::dot_panel(row, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            for c in 0..tile::TILE_CENTERS {
                let nd_sq = ((n + cn[c]) - 2.0 * dots[c]).max(0.0);
                if nd_sq < best {
                    best = nd_sq;
                }
            }
        }
        let d = &mut min_dist[i];
        if best < *d * *d {
            *d = best.sqrt();
        }
        i += 1;
    }
}

/// Fills `out[i]` with the index and distance of the center nearest
/// `points[i]`, ties toward the lower index — the batched assignment
/// sweep, fused across centers.
///
/// For `Scalar`/`Blocked` this runs one [`nearest_center`] per query (the
/// arithmetic `nearest_each` always used). The tiled kernel packs the
/// centers into panels and computes every query's argmin in one streaming
/// pass — an `n × k` mini-GEMM. Tiled distances here are bit-identical to
/// the per-query [`nearest_center`] tiled path (same canonical per-pair
/// order, same ascending-index strict-`<` argmin).
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
    par_nearest_center_each(store, points, centers, kernel, Exec::sequential(), out);
}

/// Parallel [`nearest_center_each`]: chunks the queries; per-query work
/// never crosses a chunk, so results are bit-identical for every
/// [`Exec`].
///
/// # Panics
/// Panics when `out` is shorter than `points`, or when `centers` is empty
/// while `points` is not.
pub fn par_nearest_center_each(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
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
            if let Some(v) = tiled_view_f32(store) {
                par_nearest_each_tiled(&v, points, centers, exec, out);
            } else {
                par_nearest_each_tiled(&tiled_view_f64(store), points, centers, exec, out);
            }
        }
        _ => {
            // One (size-chunked) nearest per query, consistent with
            // `Metric::nearest`; chunk the queries across lanes.
            let per_query = |start: usize, slice: &mut [(usize, f64)]| {
                for (q, o) in points[start..start + slice.len()].iter().zip(slice) {
                    *o = par_nearest_center(store, centers, *q, kernel, Exec::sequential())
                        .expect("non-empty centers");
                }
            };
            if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
                per_query(0, &mut out[..points.len()]);
            } else {
                ukc_pool::for_each_slice(exec, &mut out[..points.len()], PAR_CHUNK, per_query);
            }
        }
    }
}

fn par_nearest_each_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    centers: &[PointId],
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    let panels = pack_panels(v, centers);
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return nearest_each_tiled(v, points, &panels, out);
    }
    ukc_pool::for_each_slice(exec, &mut out[..points.len()], PAR_CHUNK, |start, slice| {
        nearest_each_tiled(v, &points[start..start + slice.len()], &panels, slice);
    });
}

fn nearest_each_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    panels: &tile::CenterPanels,
    out: &mut [(usize, f64)],
) {
    debug_assert!(!panels.is_empty());
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let norms = [
            v.norm_sq(blk[0]),
            v.norm_sq(blk[1]),
            v.norm_sq(blk[2]),
            v.norm_sq(blk[3]),
        ];
        let mut best_sq = [f64::INFINITY; tile::TILE_POINTS];
        let mut best_idx = [0usize; tile::TILE_POINTS];
        for g in 0..panels.n_panels() {
            let dots = tile::dots_x4_panel(rows, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            for p in 0..tile::TILE_POINTS {
                for c in 0..tile::TILE_CENTERS {
                    let nd_sq = ((norms[p] + cn[c]) - 2.0 * dots[p][c]).max(0.0);
                    // Strict `<` over ascending center index: first wins.
                    if nd_sq < best_sq[p] {
                        best_sq[p] = nd_sq;
                        best_idx[p] = g * tile::TILE_CENTERS + c;
                    }
                }
            }
        }
        for p in 0..tile::TILE_POINTS {
            out[i + p] = (best_idx[p], best_sq[p].sqrt());
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let row = v.row(id);
        let n = v.norm_sq(id);
        let mut best_sq = f64::INFINITY;
        let mut best_idx = 0usize;
        for g in 0..panels.n_panels() {
            let dots = tile::dot_panel(row, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            for c in 0..tile::TILE_CENTERS {
                let nd_sq = ((n + cn[c]) - 2.0 * dots[c]).max(0.0);
                if nd_sq < best_sq {
                    best_sq = nd_sq;
                    best_idx = g * tile::TILE_CENTERS + c;
                }
            }
        }
        out[i] = (best_idx, best_sq.sqrt());
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Weighted (Apollonius) sweeps: additively-weighted nearest-center geometry.
//
// Every routine below is the `d(p, cᵢ) − wᵢ` form of its unweighted
// sibling: each center carries an additive weight subtracted from the
// Euclidean distance, which turns nearest-center cells from a Voronoi
// into an Apollonius diagram. The factorized kernels stay in squared
// space through the *threshold* comparison
//
//   d − w < m   ⟺   d < m + w   ⟺   d² < (m + w)²  when  m + w > 0,
//
// and a (non-negative) distance can never undercut a non-positive
// threshold, so the guard `t > 0.0 && nd_sq < t·t` is exact. At `w = 0`
// the threshold is the running minimum itself and every comparison and
// write degenerates to the plain sweep's operation sequence — the
// weighted path is bit-identical to the unweighted one, which
// `tests/weighted_equivalence.rs` pins for all three kernels and both
// storage modes. The same one-accumulator-ascending-dim per-pair dot,
// +∞-padded panel columns (their `nd_sq` is +∞ and can never pass a
// strict `<`), lowest-index tie-breaking, and one-eval-per-pair
// instrumentation contract all carry over unchanged.
// ---------------------------------------------------------------------------

/// Tightens a running *weighted* minimum against a new center carrying
/// additive weight `w`:
/// `min_dist[i] = min(min_dist[i], d(points[i], center) − w)` — the
/// Apollonius form of [`dists_to_set_min`], and the inner loop of the
/// weighted Gonzalez sweep. `min_dist` holds weighted distances (which
/// may be negative once a weight exceeds a distance).
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn dists_to_set_min_weighted(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    w: f64,
    kernel: Kernel,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    dists_to_set_min_weighted_resolved(
        store,
        points,
        center,
        w,
        kernel.dispatch(points.len(), store.dim()),
        min_dist,
    );
}

/// [`dists_to_set_min_weighted`] after dispatch (see
/// [`dists_to_one_resolved`]).
fn dists_to_set_min_weighted_resolved(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    w: f64,
    kernel: Kernel,
    min_dist: &mut [f64],
) {
    match kernel {
        Kernel::Scalar => {
            let cc = store.coords(center);
            for (p, d) in points.iter().zip(min_dist.iter_mut()) {
                let nd = dist_sq_scalar(store.coords(*p), cc).sqrt() - w;
                if nd < *d {
                    *d = nd;
                }
            }
        }
        Kernel::Blocked => {
            // Threshold comparison in squared space: the sqrt runs only on
            // an actual improvement, exactly like the plain sweep.
            let cc = store.coords(center);
            let cn = store.norm_sq(center);
            for (p, d) in points.iter().zip(min_dist.iter_mut()) {
                let nd_sq = dist_sq_blocked(store.coords(*p), store.norm_sq(*p), cc, cn);
                let t = *d + w;
                if t > 0.0 && nd_sq < t * t {
                    *d = nd_sq.sqrt() - w;
                }
            }
        }
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                dists_to_set_min_weighted_tiled(&v, points, center, w, min_dist);
            } else {
                dists_to_set_min_weighted_tiled(
                    &tiled_view_f64(store),
                    points,
                    center,
                    w,
                    min_dist,
                );
            }
        }
    }
}

fn dists_to_set_min_weighted_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    center: PointId,
    w: f64,
    min_dist: &mut [f64],
) {
    let cc = v.row(center);
    let cn = v.norm_sq(center);
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let dots = tile::dots_x4_one(rows, cc);
        for p in 0..tile::TILE_POINTS {
            let nd_sq = ((v.norm_sq(blk[p]) + cn) - 2.0 * dots[p]).max(0.0);
            let d = &mut min_dist[i + p];
            let t = *d + w;
            if t > 0.0 && nd_sq < t * t {
                *d = nd_sq.sqrt() - w;
            }
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let nd_sq = ((v.norm_sq(id) + cn) - 2.0 * tile::dot_seq(v.row(id), cc)).max(0.0);
        let d = &mut min_dist[i];
        let t = *d + w;
        if t > 0.0 && nd_sq < t * t {
            *d = nd_sq.sqrt() - w;
        }
        i += 1;
    }
}

/// Parallel [`dists_to_set_min_weighted`]: block-parallel over
/// [`PAR_CHUNK`]-row blocks, elementwise like [`par_dists_to_set_min`],
/// so bit-identical across every [`Exec`].
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`.
pub fn par_dists_to_set_min_weighted(
    store: &PointStore,
    points: &[PointId],
    center: PointId,
    w: f64,
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    let kernel = kernel.dispatch(points.len(), store.dim());
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return dists_to_set_min_weighted_resolved(store, points, center, w, kernel, min_dist);
    }
    ukc_pool::for_each_slice(
        exec,
        &mut min_dist[..points.len()],
        PAR_CHUNK,
        |start, slice| {
            dists_to_set_min_weighted_resolved(
                store,
                &points[start..start + slice.len()],
                center,
                w,
                kernel,
                slice,
            );
        },
    );
}

/// Index (into `centers`) and *weighted* distance `d(q, cᵢ) − wᵢ` of the
/// weighted-nearest center, ties broken toward the lower index; `None`
/// for an empty center set.
///
/// # Panics
/// Panics when `weights` and `centers` differ in length.
pub fn nearest_center_weighted(
    store: &PointStore,
    centers: &[PointId],
    weights: &[f64],
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    nearest_center_weighted_resolved(
        store,
        centers,
        weights,
        q,
        kernel.dispatch(centers.len(), store.dim()),
    )
}

/// [`nearest_center_weighted`] after dispatch (see
/// [`dists_to_one_resolved`]).
fn nearest_center_weighted_resolved(
    store: &PointStore,
    centers: &[PointId],
    weights: &[f64],
    q: PointId,
    kernel: Kernel,
) -> Option<(usize, f64)> {
    assert_eq!(
        centers.len(),
        weights.len(),
        "one weight per center required"
    );
    match kernel {
        Kernel::Scalar => {
            let qc = store.coords(q);
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in centers.iter().enumerate() {
                let d = dist_sq_scalar(store.coords(*c), qc).sqrt() - weights[i];
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            best
        }
        Kernel::Blocked => {
            // The running best is a weighted distance; candidates screen
            // in squared space through the threshold `best + wᵢ`, paying
            // a sqrt only past the screen. The screen is conservative
            // (`<=`): `(d − w) + w` can round *above* `d`, so a strict
            // squared test could re-take an exactly tied center and break
            // lowest-index tie-breaking — the exact decision is the
            // strict `<` on the weighted distance itself.
            let qc = store.coords(q);
            let qn = store.norm_sq(q);
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in centers.iter().enumerate() {
                let d_sq = dist_sq_blocked(store.coords(*c), store.norm_sq(*c), qc, qn);
                match best {
                    None => best = Some((i, d_sq.sqrt() - weights[i])),
                    Some((_, bd)) => {
                        let t = bd + weights[i];
                        if t > 0.0 && d_sq <= t * t {
                            let nd = d_sq.sqrt() - weights[i];
                            if nd < bd {
                                best = Some((i, nd));
                            }
                        }
                    }
                }
            }
            best
        }
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                nearest_center_weighted_tiled(&v, centers, weights, q)
            } else {
                nearest_center_weighted_tiled(&tiled_view_f64(store), centers, weights, q)
            }
        }
    }
}

fn nearest_center_weighted_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    centers: &[PointId],
    weights: &[f64],
    q: PointId,
) -> Option<(usize, f64)> {
    let qr = v.row(q);
    let qn = v.norm_sq(q);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in centers.iter().enumerate() {
        let d_sq = ((v.norm_sq(*c) + qn) - 2.0 * tile::dot_seq(v.row(*c), qr)).max(0.0);
        match best {
            None => best = Some((i, d_sq.sqrt() - weights[i])),
            Some((_, bd)) => {
                // Conservative squared-space screen, exact linear-space
                // decision (see the Blocked arm of
                // `nearest_center_weighted_resolved`).
                let t = bd + weights[i];
                if t > 0.0 && d_sq <= t * t {
                    let nd = d_sq.sqrt() - weights[i];
                    if nd < bd {
                        best = Some((i, nd));
                    }
                }
            }
        }
    }
    best
}

/// Parallel [`nearest_center_weighted`] over a large center set:
/// per-chunk winners fold **in chunk-index order** with a strict `<` on
/// the weighted distance, preserving first-wins tie-breaking. Chunking
/// engages purely by size, never by [`Exec`], so `threads = 1` and
/// `threads = N` agree bit for bit.
///
/// # Panics
/// Panics when `weights` and `centers` differ in length.
pub fn par_nearest_center_weighted(
    store: &PointStore,
    centers: &[PointId],
    weights: &[f64],
    q: PointId,
    kernel: Kernel,
    exec: Exec<'_>,
) -> Option<(usize, f64)> {
    assert_eq!(
        centers.len(),
        weights.len(),
        "one weight per center required"
    );
    let kernel = kernel.dispatch(centers.len(), store.dim());
    if centers.len() < PAR_MIN_POINTS {
        return nearest_center_weighted_resolved(store, centers, weights, q, kernel);
    }
    let partials = ukc_pool::map_chunks(exec, centers.len(), PAR_CHUNK, |r| {
        nearest_center_weighted_resolved(store, &centers[r.clone()], &weights[r.clone()], q, kernel)
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

/// Weighted [`dists_to_centers_min`]:
/// `min_dist[i] = min(min_dist[i], min_c d(points[i], cᵢ) − wᵢ)`.
///
/// Unlike the plain fused sweep, the weighted tiled path applies the
/// per-center threshold update in ascending center order inside one
/// streaming pass, so it is **bit-identical** to `centers.len()` passes
/// of [`dists_to_set_min_weighted`] under the same resolved kernel.
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`, or when `weights`
/// and `centers` differ in length.
pub fn dists_to_centers_min_weighted(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: &[f64],
    kernel: Kernel,
    min_dist: &mut [f64],
) {
    par_dists_to_centers_min_weighted(
        store,
        points,
        centers,
        weights,
        kernel,
        Exec::sequential(),
        min_dist,
    );
}

/// Parallel [`dists_to_centers_min_weighted`]: the tiled path packs
/// panels once and chunks the points; each point's center loop runs
/// entirely inside one chunk, so results are bit-identical for every
/// [`Exec`].
///
/// # Panics
/// Panics when `min_dist` is shorter than `points`, or when `weights`
/// and `centers` differ in length.
pub fn par_dists_to_centers_min_weighted(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: &[f64],
    kernel: Kernel,
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    assert!(min_dist.len() >= points.len(), "min-dist buffer too small");
    assert_eq!(
        centers.len(),
        weights.len(),
        "one weight per center required"
    );
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                par_centers_min_weighted_tiled(&v, points, centers, weights, exec, min_dist);
            } else {
                par_centers_min_weighted_tiled(
                    &tiled_view_f64(store),
                    points,
                    centers,
                    weights,
                    exec,
                    min_dist,
                );
            }
        }
        kernel => {
            for (c, w) in centers.iter().zip(weights) {
                par_dists_to_set_min_weighted(store, points, *c, *w, kernel, exec, min_dist);
            }
        }
    }
}

/// Weights re-laid to panel slots: pad columns get `0.0`, which is
/// harmless — their `+∞` norms already make every padded `nd_sq` `+∞`,
/// and `+∞` never passes a strict `<` threshold test.
fn pad_weights(weights: &[f64], panels: &tile::CenterPanels) -> Vec<f64> {
    let mut padded = vec![0.0; panels.n_panels() * tile::TILE_CENTERS];
    padded[..weights.len()].copy_from_slice(weights);
    padded
}

fn par_centers_min_weighted_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    centers: &[PointId],
    weights: &[f64],
    exec: Exec<'_>,
    min_dist: &mut [f64],
) {
    let panels = pack_panels(v, centers);
    let wpad = pad_weights(weights, &panels);
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return dists_to_centers_min_weighted_tiled(v, points, &panels, &wpad, min_dist);
    }
    ukc_pool::for_each_slice(
        exec,
        &mut min_dist[..points.len()],
        PAR_CHUNK,
        |start, slice| {
            dists_to_centers_min_weighted_tiled(
                v,
                &points[start..start + slice.len()],
                &panels,
                &wpad,
                slice,
            );
        },
    );
}

fn dists_to_centers_min_weighted_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    panels: &tile::CenterPanels,
    wpad: &[f64],
    min_dist: &mut [f64],
) {
    if panels.is_empty() {
        return;
    }
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let norms = [
            v.norm_sq(blk[0]),
            v.norm_sq(blk[1]),
            v.norm_sq(blk[2]),
            v.norm_sq(blk[3]),
        ];
        for g in 0..panels.n_panels() {
            let dots = tile::dots_x4_panel(rows, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw = &wpad[g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS];
            for p in 0..tile::TILE_POINTS {
                let d = &mut min_dist[i + p];
                for c in 0..tile::TILE_CENTERS {
                    let nd_sq = ((norms[p] + cn[c]) - 2.0 * dots[p][c]).max(0.0);
                    let t = *d + cw[c];
                    if t > 0.0 && nd_sq < t * t {
                        *d = nd_sq.sqrt() - cw[c];
                    }
                }
            }
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let row = v.row(id);
        let n = v.norm_sq(id);
        let d = &mut min_dist[i];
        for g in 0..panels.n_panels() {
            let dots = tile::dot_panel(row, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw = &wpad[g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS];
            for c in 0..tile::TILE_CENTERS {
                let nd_sq = ((n + cn[c]) - 2.0 * dots[c]).max(0.0);
                let t = *d + cw[c];
                if t > 0.0 && nd_sq < t * t {
                    *d = nd_sq.sqrt() - cw[c];
                }
            }
        }
        i += 1;
    }
}

/// Weighted [`nearest_center_each`]: fills `out[i]` with the index and
/// weighted distance of the weighted-nearest center of `points[i]`, ties
/// toward the lower index.
///
/// # Panics
/// Panics when `out` is shorter than `points`, when `weights` and
/// `centers` differ in length, or when `centers` is empty while `points`
/// is not.
pub fn nearest_center_each_weighted(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: &[f64],
    kernel: Kernel,
    out: &mut [(usize, f64)],
) {
    par_nearest_center_each_weighted(
        store,
        points,
        centers,
        weights,
        kernel,
        Exec::sequential(),
        out,
    );
}

/// Parallel [`nearest_center_each_weighted`]: chunks the queries;
/// per-query work never crosses a chunk, so results are bit-identical
/// for every [`Exec`].
///
/// # Panics
/// Panics when `out` is shorter than `points`, when `weights` and
/// `centers` differ in length, or when `centers` is empty while `points`
/// is not.
pub fn par_nearest_center_each_weighted(
    store: &PointStore,
    points: &[PointId],
    centers: &[PointId],
    weights: &[f64],
    kernel: Kernel,
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    assert!(out.len() >= points.len(), "output buffer too small");
    assert_eq!(
        centers.len(),
        weights.len(),
        "one weight per center required"
    );
    if points.is_empty() {
        return;
    }
    assert!(
        !centers.is_empty(),
        "nearest_center_each_weighted requires at least one center"
    );
    let work = points.len().saturating_mul(centers.len());
    match kernel.dispatch(work, store.dim()) {
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                par_nearest_each_weighted_tiled(&v, points, centers, weights, exec, out);
            } else {
                par_nearest_each_weighted_tiled(
                    &tiled_view_f64(store),
                    points,
                    centers,
                    weights,
                    exec,
                    out,
                );
            }
        }
        kernel => {
            let per_query = |start: usize, slice: &mut [(usize, f64)]| {
                for (q, o) in points[start..start + slice.len()].iter().zip(slice) {
                    *o = par_nearest_center_weighted(
                        store,
                        centers,
                        weights,
                        *q,
                        kernel,
                        Exec::sequential(),
                    )
                    .expect("non-empty centers");
                }
            };
            if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
                per_query(0, &mut out[..points.len()]);
            } else {
                ukc_pool::for_each_slice(exec, &mut out[..points.len()], PAR_CHUNK, per_query);
            }
        }
    }
}

fn par_nearest_each_weighted_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    centers: &[PointId],
    weights: &[f64],
    exec: Exec<'_>,
    out: &mut [(usize, f64)],
) {
    let panels = pack_panels(v, centers);
    let wpad = pad_weights(weights, &panels);
    if !exec.is_parallel() || points.len() < PAR_MIN_POINTS {
        return nearest_each_weighted_tiled(v, points, &panels, &wpad, out);
    }
    ukc_pool::for_each_slice(exec, &mut out[..points.len()], PAR_CHUNK, |start, slice| {
        nearest_each_weighted_tiled(
            v,
            &points[start..start + slice.len()],
            &panels,
            &wpad,
            slice,
        );
    });
}

fn nearest_each_weighted_tiled<T: tile::Coord>(
    v: &TiledView<'_, T>,
    points: &[PointId],
    panels: &tile::CenterPanels,
    wpad: &[f64],
    out: &mut [(usize, f64)],
) {
    debug_assert!(!panels.is_empty());
    let mut blocks = points.chunks_exact(tile::TILE_POINTS);
    let mut i = 0;
    for blk in &mut blocks {
        let rows = [v.row(blk[0]), v.row(blk[1]), v.row(blk[2]), v.row(blk[3])];
        let norms = [
            v.norm_sq(blk[0]),
            v.norm_sq(blk[1]),
            v.norm_sq(blk[2]),
            v.norm_sq(blk[3]),
        ];
        let mut best = [f64::INFINITY; tile::TILE_POINTS];
        let mut best_idx = [0usize; tile::TILE_POINTS];
        for g in 0..panels.n_panels() {
            let dots = tile::dots_x4_panel(rows, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw = &wpad[g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS];
            for p in 0..tile::TILE_POINTS {
                for c in 0..tile::TILE_CENTERS {
                    let nd_sq = ((norms[p] + cn[c]) - 2.0 * dots[p][c]).max(0.0);
                    // Conservative squared-space screen over ascending
                    // center index, exact strict `<` on the weighted
                    // distance itself: `(d − w) + w` can round above
                    // `d`, so a purely squared test could re-take an
                    // exactly tied center and break lowest-index
                    // tie-breaking. Padded (+∞) columns never pass the
                    // linear test.
                    let t = best[p] + cw[c];
                    if t > 0.0 && nd_sq <= t * t {
                        let nd = nd_sq.sqrt() - cw[c];
                        if nd < best[p] {
                            best[p] = nd;
                            best_idx[p] = g * tile::TILE_CENTERS + c;
                        }
                    }
                }
            }
        }
        for p in 0..tile::TILE_POINTS {
            out[i + p] = (best_idx[p], best[p]);
        }
        i += tile::TILE_POINTS;
    }
    for &id in blocks.remainder() {
        let row = v.row(id);
        let n = v.norm_sq(id);
        let mut best = f64::INFINITY;
        let mut best_idx = 0usize;
        for g in 0..panels.n_panels() {
            let dots = tile::dot_panel(row, panels.panel_coords(g));
            let cn = panels.panel_norms_sq(g);
            let cw = &wpad[g * tile::TILE_CENTERS..(g + 1) * tile::TILE_CENTERS];
            for c in 0..tile::TILE_CENTERS {
                let nd_sq = ((n + cn[c]) - 2.0 * dots[c]).max(0.0);
                let t = best + cw[c];
                if t > 0.0 && nd_sq <= t * t {
                    let nd = nd_sq.sqrt() - cw[c];
                    if nd < best {
                        best = nd;
                        best_idx = g * tile::TILE_CENTERS + c;
                    }
                }
            }
        }
        out[i] = (best_idx, best);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Expected-distance sweep: the ED assignment rule over uncertain points.
//
// The sweep packs the centers into `tile::CenterPanels` once per call and
// streams every location row past them, four centers per step. Each
// kernel gets a panel micro-kernel whose lane `c` performs exactly the
// floating-point operation sequence of that kernel's single-pair form
// against center `c` — `dist_sq_scalar`, `dist_sq_blocked` over the
// blocked-tree norms, or the tiled `dot_seq` form — so every distance is
// bit-identical to `pair_dist`, only computed four lanes at a time.
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

/// Lane-wise `a + b`.
#[inline(always)]
fn add_lanes(
    mut a: [f64; tile::TILE_CENTERS],
    b: [f64; tile::TILE_CENTERS],
) -> [f64; tile::TILE_CENTERS] {
    for c in 0..tile::TILE_CENTERS {
        a[c] += b[c];
    }
    a
}

/// Lane `c` is [`dot_blocked`]`(row, center c)`: the fixed [`dot8`] tree
/// at `d = 8`, else eight strided accumulators, a sequential tail, and
/// the same reduction tree.
#[inline]
fn dot_blocked_panel(row: &[f64], panel: &[f64]) -> [f64; tile::TILE_CENTERS] {
    const L: usize = tile::TILE_CENTERS;
    let col =
        |t: usize| -> [f64; L] { panel[t * L..(t + 1) * L].try_into().expect("panel stride") };
    let tree = |a: &[[f64; L]; 8]| {
        add_lanes(
            add_lanes(add_lanes(a[0], a[4]), add_lanes(a[1], a[5])),
            add_lanes(add_lanes(a[2], a[6]), add_lanes(a[3], a[7])),
        )
    };
    if let Ok(xs) = <&[f64; 8]>::try_from(row) {
        return tree(&std::array::from_fn(|t| col(t).map(|y| xs[t] * y)));
    }
    let term = |t: usize| col(t).map(|y| row[t] * y);
    let blocks = row.len() / 8;
    let mut acc = [[0.0f64; L]; 8];
    for b in 0..blocks {
        for (lane, acc) in acc.iter_mut().enumerate() {
            *acc = add_lanes(*acc, term(b * 8 + lane));
        }
    }
    let mut tail = [0.0f64; L];
    for t in blocks * 8..row.len() {
        tail = add_lanes(tail, term(t));
    }
    add_lanes(tree(&acc), tail)
}

/// The factorized squared distance `(‖a‖² + ‖c‖² − 2a·c)⁺` from the
/// two norms and the dot, in [`dist_sq_blocked`]'s operation order.
#[inline(always)]
fn factorized_dist_sq(a_norm_sq: f64, c_norm_sq: f64, dot: f64) -> f64 {
    ((a_norm_sq + c_norm_sq) - 2.0 * dot).max(0.0)
}

/// Fills `out[i]` with the index of the center minimizing the expected
/// distance `Σⱼ pᵢⱼ·d(Pᵢⱼ, c)` from `points[i]` (less `weights[c]` when
/// weights are given), ties toward the lower index — the batched ED
/// assignment sweep behind [`crate::StoreOracle`]'s
/// [`crate::DistanceOracle::expected_nearest_each`].
///
/// Every pair uses exactly the arithmetic of [`pair_dist`] under
/// `kernel` (no [`Kernel::dispatch`]: the pointwise loop this replaces
/// never dispatched either; the tiled kernel reads the f32 mirror when
/// the store carries one), and each center's terms are summed in support
/// order starting from the first term, which is what `.sum()` computes.
/// The output is therefore identical to the trait's default per-pair
/// loop over the same oracle. Sequential: callers chunk `points` across
/// lanes.
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
    let coords = |c: usize, t: usize| store.coords(centers[c])[t];
    let row = |id: PointId| (store.coords(id), store.norm_sq(id));
    match kernel {
        Kernel::Scalar => {
            let panels = tile::CenterPanels::pack(centers.len(), store.dim(), coords, |_| 0.0);
            let (lanes, finish) = (dist_sq_scalar_panel, |_: f64, _: f64, d_sq: f64| d_sq);
            expected_nearest_panels(points, &panels, weights, out, row, lanes, finish);
        }
        Kernel::Blocked => {
            let panels = tile::CenterPanels::pack(centers.len(), store.dim(), coords, |c| {
                store.norm_sq(centers[c])
            });
            let (lanes, finish) = (dot_blocked_panel, factorized_dist_sq);
            expected_nearest_panels(points, &panels, weights, out, row, lanes, finish);
        }
        Kernel::Tiled => {
            if let Some(v) = tiled_view_f32(store) {
                expected_nearest_tiled(&v, points, centers, weights, out);
            } else {
                expected_nearest_tiled(&tiled_view_f64(store), points, centers, weights, out);
            }
        }
    }
}

fn expected_nearest_tiled<T: tile::Coord, S: DiscreteDistribution<PointId>>(
    v: &TiledView<'_, T>,
    points: &[S],
    centers: &[PointId],
    weights: Option<&[f64]>,
    out: &mut [usize],
) {
    let panels = pack_panels(v, centers);
    let row = |id: PointId| (v.row(id), v.norm_sq(id));
    let (lanes, finish) = (tile::dot_panel, factorized_dist_sq);
    expected_nearest_panels(points, &panels, weights, out, row, lanes, finish);
}

/// The shared sweep body. For each point, every location row goes past
/// every panel through `lanes` (four per-center values per panel), then
/// `finish(row norm, center norm, value)` turns each value into a squared
/// distance; the distances, weighted by the location's probability, fold
/// into their centers' running sums in support order. Last comes the
/// strict-`<` argmin over the real centers (padded panel columns
/// accumulate values it never reads).
fn expected_nearest_panels<'a, T: 'a, S: DiscreteDistribution<PointId>>(
    points: &[S],
    panels: &tile::CenterPanels,
    weights: Option<&[f64]>,
    out: &mut [usize],
    row: impl Fn(PointId) -> (&'a [T], f64),
    lanes: impl Fn(&[T], &[f64]) -> [f64; tile::TILE_CENTERS],
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
        // against center c, bit for bit, in every dimension class: below
        // one dot block, exactly the d = 8 tree, blocks plus a tail.
        for d in [1usize, 2, 3, 7, 8, 9, 16, 19] {
            let st = store(d as u64 + 40, 9, d);
            let centers: Vec<PointId> = (4..9).map(PointId).collect();
            let coords = |c: usize, t: usize| st.coords(centers[c])[t];
            let panels = tile::CenterPanels::pack(centers.len(), d, coords, |_| 0.0);
            for row in (0..4).map(PointId) {
                let a = st.coords(row);
                for g in 0..panels.n_panels() {
                    let scalar = dist_sq_scalar_panel(a, panels.panel_coords(g));
                    let blocked = dot_blocked_panel(a, panels.panel_coords(g));
                    for (c, &id) in centers.iter().enumerate().skip(g * 4).take(4) {
                        let b = st.coords(id);
                        let lane = c % 4;
                        assert_eq!(scalar[lane].to_bits(), dist_sq_scalar(a, b).to_bits());
                        assert_eq!(blocked[lane].to_bits(), dot_blocked(a, b).to_bits());
                        let dist =
                            factorized_dist_sq(st.norm_sq(row), st.norm_sq(id), blocked[lane]);
                        let reference = dist_sq_blocked(a, st.norm_sq(row), b, st.norm_sq(id));
                        assert_eq!(dist.to_bits(), reference.to_bits(), "d={d}");
                    }
                }
            }
        }
    }

    #[test]
    fn dot_blocked_matches_sequential() {
        for d in [1usize, 7, 8, 9, 24, 31] {
            let s = store(d as u64, 2, d);
            let a = s.coords(PointId(0));
            let b = s.coords(PointId(1));
            let sequential: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            assert!((dot_blocked(a, b) - sequential).abs() < 1e-9 * (1.0 + sequential.abs()));
        }
    }

    #[test]
    fn kernels_agree_on_batched_routines() {
        let s = store(11, 20, 9);
        let ids = s.ids();
        for q in [PointId(0), PointId(7), PointId(19)] {
            let mut scalar = vec![0.0; ids.len()];
            let mut blocked = vec![0.0; ids.len()];
            dists_to_one(&s, &ids, q, Kernel::Scalar, &mut scalar);
            dists_to_one(&s, &ids, q, Kernel::Blocked, &mut blocked);
            for (a, b) in scalar.iter().zip(blocked.iter()) {
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
        let (idx, d) = nearest_center(&s, &centers, PointId(2), Kernel::Blocked).unwrap();
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
                par_dists_to_set_min(&s, &ids, c, kernel, exec, &mut par);
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
        assert_eq!(Kernel::Blocked.dispatch(1_000, 8), Kernel::Scalar);
        assert_eq!(Kernel::Tiled.dispatch(1_000, 8), Kernel::Scalar);
        // From the cutoff upward the requested kernel runs (n=1k, d=32).
        assert_eq!(Kernel::Blocked.dispatch(1_000, 32), Kernel::Blocked);
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
            let n = s.norm_sq_seq(*id);
            let mut best = f64::INFINITY;
            for c in &centers {
                let nd_sq = ((n + s.norm_sq_seq(*c))
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
            let (bi, bd) = nearest_center_resolved(&s, &centers, *id, Kernel::Tiled).unwrap();
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
        let v = tiled_view_f64(&s);
        let panels = pack_panels(&v, &centers);
        nearest_each_tiled(&v, &queries, &panels, &mut out);
        for (i, (idx, d)) in out.iter().enumerate() {
            assert_eq!(*idx, 0, "query {i} must tie-break to the lowest index");
            assert!(d.is_finite());
        }
    }

    #[test]
    fn center_panels_pad_with_infinite_norms() {
        let s = store(3, 10, 5);
        let v = tiled_view_f64(&s);
        let centers: Vec<PointId> = (0..5).map(PointId).collect();
        let panels = pack_panels(&v, &centers);
        assert_eq!(panels.len(), 5);
        assert_eq!(panels.n_panels(), 2);
        let tail = panels.panel_norms_sq(1);
        assert_eq!(tail[0], s.norm_sq_seq(PointId(4)));
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
            par_dists_to_centers_min(&s, &ids, &centers, kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each(&s, &ids, &centers, kernel, &mut seq);
            let mut par = vec![(0usize, 0.0f64); ids.len()];
            par_nearest_center_each(&s, &ids, &centers, kernel, exec, &mut par);
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
                dists_to_set_min_weighted(&s, &ids, *c, 0.0, kernel, &mut weighted);
            }
            for (a, b) in plain.iter().zip(&weighted) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }
            for q in [PointId(0), PointId(100), PointId(316)] {
                let p = nearest_center(&s, &centers, q, kernel).unwrap();
                let w = nearest_center_weighted(&s, &centers, &zeros, q, kernel).unwrap();
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
            let (idx, d) =
                nearest_center_weighted(&s, &centers, &[0.0, 0.5], PointId(2), kernel).unwrap();
            assert_eq!(idx, 1, "{kernel:?}");
            assert!((d - 0.5).abs() < 1e-12, "{kernel:?}");
            // Equal weights keep the tie on the lowest index.
            let (idx, d) =
                nearest_center_weighted(&s, &centers, &[0.25, 0.25], PointId(2), kernel).unwrap();
            assert_eq!(idx, 0, "{kernel:?}");
            assert!((d - 0.75).abs() < 1e-12, "{kernel:?}");
        }
        assert!(nearest_center_weighted(&s, &[], &[], PointId(2), Kernel::Scalar).is_none());
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
                dists_to_set_min_weighted(&s, &ids, *c, *w, kernel, &mut reference);
            }
            let mut fused = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min_weighted(&s, &ids, &centers, &weights, kernel, &mut fused);
            for (a, b) in reference.iter().zip(&fused) {
                assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "{kernel:?}");
            }

            let mut each = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each_weighted(&s, &ids, &centers, &weights, kernel, &mut each);
            for (q, got) in ids.iter().zip(&each) {
                let want = nearest_center_weighted(&s, &centers, &weights, *q, kernel).unwrap();
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
                dists_to_set_min_weighted(&s, &ids, *c, *w, kernel, &mut seq);
                par_dists_to_set_min_weighted(&s, &ids, *c, *w, kernel, exec, &mut par);
            }
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![f64::INFINITY; ids.len()];
            dists_to_centers_min_weighted(&s, &ids, &centers, &weights, kernel, &mut seq);
            let mut par = vec![f64::INFINITY; ids.len()];
            par_dists_to_centers_min_weighted(&s, &ids, &centers, &weights, kernel, exec, &mut par);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }

            let mut seq = vec![(0usize, 0.0f64); ids.len()];
            nearest_center_each_weighted(&s, &ids, &centers, &weights, kernel, &mut seq);
            let mut par = vec![(0usize, 0.0f64); ids.len()];
            par_nearest_center_each_weighted(&s, &ids, &centers, &weights, kernel, exec, &mut par);
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
        let v = tiled_view_f64(&s);
        let panels = pack_panels(&v, &centers);
        let wpad = pad_weights(&weights, &panels);
        assert_eq!(wpad.len(), 8);
        assert!(wpad[5..].iter().all(|w| *w == 0.0));
        nearest_each_weighted_tiled(&v, &ids, &panels, &wpad, &mut each);
        for (i, (idx, d)) in each.iter().enumerate() {
            assert!(*idx < 5, "point {i} picked a pad column");
            assert!(d.is_finite() && *d < 0.0, "point {i}");
        }
    }
}
