//! A uniform grid-bin spatial index over a fixed set of points.
//!
//! [`GridBins`] answers radius queries — "which of these points lie within
//! `r` of `p`?" — by inspecting only the grid cells the query disk can
//! touch, instead of scanning every point. It is the index behind the
//! workspace's indexed connectivity sweeps: `abp-field` builds one over
//! beacon positions and `abp-survey` / `abp-localize` / `abp-placement`
//! query it in their hot loops.
//!
//! # Determinism and the ordering contract
//!
//! The whole pipeline promises bit-identical replay, and f64 accumulation
//! is order-sensitive, so the index makes a hard guarantee:
//!
//! > [`GridBins::for_each_within`] and [`GridBins::within`] visit matching
//! > points in **strictly ascending insertion order** (the order of the
//! > slice passed to [`GridBins::build`]), and a point matches exactly when
//! > `distance_squared(p) <= r * r` (boundary inclusive, `r = 0` allowed —
//! > matching only points bit-equal to `p`).
//!
//! Because the candidate order equals the brute-force scan order, any sum
//! folded over the visited points is **bit-identical** to the sum the
//! brute-force filter would produce — the index can never change a result,
//! only skip non-matching work. There is no tie-breaking to specify beyond
//! this: coincident points, points exactly on cell boundaries, and points
//! exactly at distance `r` are all visited, in insertion order.
//!
//! Internally the index is a compressed-sparse-row (CSR) layout built with
//! a counting sort: no hashing, no pointer-chasing, and cell membership
//! computed with the same `floor((coord - origin) / cell)` expression at
//! build and query time, so a point can never fall between the cracks.
//! Queries restore the global insertion order across the visited cells by
//! marking candidates in a reusable thread-local bitmask and walking its
//! set bits — no per-query allocation, no sort.
//!
//! # Example
//!
//! ```
//! use abp_geom::{GridBins, Point};
//!
//! let pts = [
//!     Point::new(0.0, 0.0),
//!     Point::new(9.0, 0.0),
//!     Point::new(2.0, 1.0),
//! ];
//! let bins = GridBins::build(&pts, 5.0);
//!
//! // Matches are reported in insertion order: index 0 before index 2.
//! let hits = bins.within(Point::new(1.0, 0.0), 3.0);
//! assert_eq!(hits.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 2]);
//!
//! // r = 0 matches only exact coincidence.
//! assert_eq!(bins.within(Point::new(9.0, 0.0), 0.0).len(), 1);
//! ```

use crate::point::Point;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Reusable per-thread candidate bitmask (one bit per indexed point).
    /// Radius queries are the hot inner loop of point-shaped consumers —
    /// one query per localized point — so the scratch buffer must not be
    /// reallocated per query. Taken (not borrowed) for the duration of
    /// a query, so a reentrant query from the callback degrades to a
    /// fresh allocation instead of a `RefCell` panic.
    static CANDIDATE_BITS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A uniform grid-bin index over a fixed point set, supporting radius
/// queries that visit candidates in ascending insertion order.
///
/// See the [module documentation](self) for the determinism / ordering
/// contract. Build once with [`GridBins::build`]; the index is immutable
/// (beacon fields that change rebuild it, which is `O(n)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridBins {
    /// Cell side length.
    cell: f64,
    /// Lower-left corner of the binned bounding box.
    origin: Point,
    /// Grid extent in cells along x / y (0 when the point set is empty).
    nx: u32,
    ny: u32,
    /// CSR row starts: `entries[starts[c]..starts[c + 1]]` are the point
    /// indices binned into cell `c` (row-major), each slice sorted
    /// ascending by construction (counting sort is stable).
    starts: Vec<u32>,
    entries: Vec<u32>,
    /// The indexed points, in insertion order.
    points: Vec<Point>,
    /// Fixed-reach candidate lists (present after
    /// [`GridBins::build_for_reach`]).
    neighborhoods: Option<Neighborhoods>,
}

/// Precomputed per-cell candidate lists for fixed-radius queries: cell
/// `c`'s list holds, ascending, every point binned within `half` cells
/// of `c` — a superset of any radius-`reach` disk anchored in `c`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Neighborhoods {
    /// The query radius the lists cover.
    reach: f64,
    /// Neighborhood half-width in cells, `ceil(reach / cell)`.
    half: u32,
    /// Per-cell CSR over the merged neighborhood lists, or `None` when
    /// precomputation was skipped because the neighborhood block would
    /// be too large relative to the grid (queries fall back to
    /// [`GridBins::for_each_within`]).
    table: Option<(Vec<u32>, Vec<u32>)>,
}

impl GridBins {
    /// Builds the index over `points` with square cells of side
    /// `cell_size`.
    ///
    /// The points are copied; indices reported by queries refer to
    /// positions in the input slice. An empty slice yields an index whose
    /// queries return nothing.
    ///
    /// `cell_size` is a *hint*: when the requested resolution would
    /// allocate more than `O(len)` cells (a tiny cell over a huge extent),
    /// the cell is doubled until the grid fits. This affects only how much
    /// work queries do — never which points they report, nor their order.
    /// [`GridBins::cell_size`] returns the effective value.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not finite and strictly positive, or if
    /// any point coordinate is not finite.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        let mut bins = GridBins {
            cell: cell_size,
            origin: Point::ORIGIN,
            nx: 0,
            ny: 0,
            starts: Vec::new(),
            entries: Vec::new(),
            points: Vec::new(),
            neighborhoods: None,
        };
        bins.rebuild_into(points, cell_size);
        bins
    }

    /// Rebuilds the index in place over a (possibly different) point set,
    /// reusing the existing CSR buffers instead of allocating fresh ones.
    ///
    /// The result is exactly what [`GridBins::build`]`(points, cell_size)`
    /// would produce — same cells, same CSR contents, same query results
    /// and order — but once the buffers have grown to the working-set
    /// size, a rebuild performs **zero heap allocations**. Per-trial index
    /// construction in the Monte-Carlo hot loop goes through this path.
    ///
    /// Any precomputed neighborhoods are discarded (use
    /// [`GridBins::rebuild_for_reach_into`] to rebuild them too, reusing
    /// their buffers as well).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GridBins::build`].
    pub fn rebuild_into(&mut self, points: &[Point], cell_size: f64) {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "grid-bin cell size must be finite and positive, got {cell_size}"
        );
        for (k, p) in points.iter().enumerate() {
            assert!(
                p.x.is_finite() && p.y.is_finite(),
                "grid-bin point {k} has non-finite coordinates ({}, {})",
                p.x,
                p.y
            );
        }
        self.neighborhoods = None;
        self.points.clear();
        self.points.extend_from_slice(points);
        self.starts.clear();
        self.entries.clear();
        if points.is_empty() {
            self.cell = cell_size;
            self.origin = Point::ORIGIN;
            self.nx = 0;
            self.ny = 0;
            self.starts.push(0);
            return;
        }
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let origin = Point::new(min_x, min_y);
        // A point exactly on the max edge maps to floor(extent / cell),
        // one past the last "interior" cell — allocate it a real cell so
        // build and query agree without clamping tricks.
        //
        // Keep the cell count O(len): a tiny cell over a huge extent would
        // otherwise allocate an unbounded grid. Doubling the cell shrinks
        // the grid ~4x per step, so this terminates quickly.
        let cell_limit = points.len().max(16) * 4;
        let mut cell_size = cell_size;
        let (nx, ny) = loop {
            let nx = ((max_x - min_x) / cell_size).floor() as u32 + 1;
            let ny = ((max_y - min_y) / cell_size).floor() as u32 + 1;
            if nx as usize * ny as usize <= cell_limit {
                break (nx, ny);
            }
            cell_size *= 2.0;
        };
        let ncells = nx as usize * ny as usize;

        // Counting sort into CSR: stable, so each cell's entry slice is
        // ascending in insertion order. To avoid a separate cursor
        // buffer, the fill advances `starts[c]` itself (leaving it at the
        // end of cell `c`, i.e. at the proper value of `starts[c + 1]`)
        // and a final right-shift restores the row starts.
        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - min_x) / cell_size).floor() as u32).min(nx - 1);
            let cy = (((p.y - min_y) / cell_size).floor() as u32).min(ny - 1);
            cy as usize * nx as usize + cx as usize
        };
        self.starts.resize(ncells + 1, 0);
        for p in points {
            self.starts[cell_of(p) + 1] += 1;
        }
        for c in 0..ncells {
            self.starts[c + 1] += self.starts[c];
        }
        self.entries.resize(points.len(), 0);
        for (k, p) in points.iter().enumerate() {
            let c = cell_of(p);
            self.entries[self.starts[c] as usize] = k as u32;
            self.starts[c] += 1;
        }
        for c in (1..=ncells).rev() {
            self.starts[c] = self.starts[c - 1];
        }
        self.starts[0] = 0;
        self.cell = cell_size;
        self.origin = origin;
        self.nx = nx;
        self.ny = ny;
    }

    /// Builds the index and additionally precomputes, per cell, the
    /// ascending list of every point a radius-`reach` query anchored in
    /// that cell could match. [`GridBins::for_each_candidate`] then
    /// answers fixed-reach candidate queries with a single cell lookup
    /// and one precomputed slice walk — no per-query cell gathering at
    /// all. This is the fast path for the connectivity sweeps, whose
    /// query radius is fixed at the maximum radio range.
    ///
    /// The precomputation is skipped (and queries transparently fall
    /// back to [`GridBins::for_each_within`]) when `reach` spans so many
    /// cells that the per-cell lists would duplicate each point more
    /// than 64 times — pick `cell_size` on the order of `reach` to stay
    /// on the fast path.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GridBins::build`], or if
    /// `reach` is not finite and non-negative.
    pub fn build_for_reach(points: &[Point], cell_size: f64, reach: f64) -> Self {
        assert!(
            reach.is_finite() && reach >= 0.0,
            "grid-bin reach must be finite and non-negative, got {reach}"
        );
        let mut bins = Self::build(points, cell_size);
        bins.precompute_neighborhoods_into(reach, Vec::new(), Vec::new());
        bins
    }

    /// [`GridBins::rebuild_into`] for indices built with
    /// [`GridBins::build_for_reach`]: rebuilds the CSR grid *and* the
    /// per-cell candidate neighborhoods in place, recycling both the grid
    /// buffers and the neighborhood-table buffers. Bit-identical results
    /// to a fresh [`GridBins::build_for_reach`]; zero heap allocations at
    /// steady state (after the buffers reach the working-set size).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GridBins::build_for_reach`].
    pub fn rebuild_for_reach_into(&mut self, points: &[Point], cell_size: f64, reach: f64) {
        assert!(
            reach.is_finite() && reach >= 0.0,
            "grid-bin reach must be finite and non-negative, got {reach}"
        );
        let recycled = self.neighborhoods.take().and_then(|nb| nb.table);
        self.rebuild_into(points, cell_size);
        let (nb_starts, nb_entries) = recycled.unwrap_or_default();
        self.precompute_neighborhoods_into(reach, nb_starts, nb_entries);
    }

    fn precompute_neighborhoods_into(
        &mut self,
        reach: f64,
        mut nb_starts: Vec<u32>,
        mut nb_entries: Vec<u32>,
    ) {
        // `self.cell` is the effective (possibly doubled) cell size, so
        // `half` covers the worst-case query anchor anywhere in a cell:
        // the disk [p - reach, p + reach] can only touch cells within
        // ceil(reach / cell) of p's cell. Query points outside the
        // bounding box clamp to an edge cell, which shifts the true cell
        // range *toward* the grid, so the same half-width still covers
        // every binned point within reach.
        let half = (reach / self.cell).ceil();
        let span = 2.0 * half + 1.0;
        // Each point lands in at most span^2 per-cell lists; cap the
        // duplication so a degenerate reach/cell ratio cannot blow up
        // memory. Queries fall back to for_each_within in that case.
        if span * span > 64.0 {
            self.neighborhoods = Some(Neighborhoods {
                reach,
                half: 0,
                table: None,
            });
            return;
        }
        let half = half as i64;
        let ncells = self.cell_count();
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        let block = |c: usize| {
            let (cx, cy) = ((c % self.nx as usize) as i64, (c / self.nx as usize) as i64);
            let x_lo = (cx - half).max(0);
            let x_hi = (cx + half).min(nx - 1);
            let y_lo = (cy - half).max(0);
            let y_hi = (cy + half).min(ny - 1);
            (x_lo, x_hi, y_lo, y_hi)
        };
        // Two passes, CSR-style: count each cell's neighborhood size,
        // then fill. Filling iterates cells of the *source* CSR in any
        // order but appends each point index k exactly once per target
        // cell; doing the fill target-cell-major over ascending source
        // slices would interleave — instead walk target cells and merge
        // their block's source slices by ascending k via the same
        // bitmask scratch the radius query uses. The CSR buffers come in
        // from the caller (recycled on the rebuild path, empty on first
        // build) and the bitmask is the thread-local query scratch, so a
        // steady-state rebuild allocates nothing.
        nb_starts.clear();
        nb_starts.resize(ncells + 1, 0);
        for c in 0..ncells {
            let (x_lo, x_hi, y_lo, y_hi) = block(c);
            let mut count = 0u32;
            for cy in y_lo..=y_hi {
                for cx in x_lo..=x_hi {
                    let s = cy as usize * self.nx as usize + cx as usize;
                    count += self.starts[s + 1] - self.starts[s];
                }
            }
            nb_starts[c + 1] = nb_starts[c] + count;
        }
        nb_entries.clear();
        nb_entries.resize(nb_starts[ncells] as usize, 0);
        let mut bits = CANDIDATE_BITS.with(RefCell::take);
        bits.clear();
        bits.resize(self.points.len().div_ceil(64), 0);
        for c in 0..ncells {
            let (x_lo, x_hi, y_lo, y_hi) = block(c);
            for word in bits.iter_mut() {
                *word = 0;
            }
            for cy in y_lo..=y_hi {
                for cx in x_lo..=x_hi {
                    let s = cy as usize * self.nx as usize + cx as usize;
                    let lo = self.starts[s] as usize;
                    let hi = self.starts[s + 1] as usize;
                    for &k in &self.entries[lo..hi] {
                        bits[(k >> 6) as usize] |= 1u64 << (k & 63);
                    }
                }
            }
            let mut cursor = nb_starts[c] as usize;
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    nb_entries[cursor] = ((w << 6) | word.trailing_zeros() as usize) as u32;
                    cursor += 1;
                    word &= word - 1;
                }
            }
            debug_assert_eq!(cursor, nb_starts[c + 1] as usize);
        }
        CANDIDATE_BITS.with(|cell| *cell.borrow_mut() = bits);
        self.neighborhoods = Some(Neighborhoods {
            reach,
            half: half as u32,
            table: Some((nb_starts, nb_entries)),
        });
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The effective cell side length (the build hint, possibly doubled
    /// to keep the cell count `O(len)` — see [`GridBins::build`]).
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of grid cells (`0` for an empty index). Exposed so callers
    /// can report how much of the grid a query pruned.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// The indexed points, in insertion order.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The fixed query radius [`GridBins::for_each_candidate`] covers,
    /// or `None` if the index was built with plain [`GridBins::build`].
    #[inline]
    pub fn candidate_reach(&self) -> Option<f64> {
        self.neighborhoods.as_ref().map(|nb| nb.reach)
    }

    /// Visits every indexed point within `radius` of `center` (boundary
    /// inclusive), invoking `f(index, point)` in **ascending insertion
    /// order** — see the [module documentation](self) for why this order
    /// is load-bearing.
    ///
    /// Returns the number of grid cells the query *skipped* (cells outside
    /// the query's cell range), which feeds the pruning telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `center` has non-finite coordinates or `radius` is not
    /// finite and non-negative.
    pub fn for_each_within<F: FnMut(usize, Point)>(
        &self,
        center: Point,
        radius: f64,
        mut f: F,
    ) -> usize {
        assert!(
            center.x.is_finite() && center.y.is_finite(),
            "grid-bin query center must be finite, got ({}, {})",
            center.x,
            center.y
        );
        assert!(
            radius.is_finite() && radius >= 0.0,
            "grid-bin query radius must be finite and non-negative, got {radius}"
        );
        let ncells = self.cell_count();
        if ncells == 0 {
            return 0;
        }
        let Some((cx_lo, cx_hi)) =
            self.axis_cells(center.x - radius, center.x + radius, self.origin.x, self.nx)
        else {
            return ncells;
        };
        let Some((cy_lo, cy_hi)) =
            self.axis_cells(center.y - radius, center.y + radius, self.origin.y, self.ny)
        else {
            return ncells;
        };
        let visited = (cx_hi - cx_lo + 1) as usize * (cy_hi - cy_lo + 1) as usize;

        // Mark candidates from every cell in range in a bitmask, then
        // iterate set bits: per-cell slices are ascending but cells
        // interleave, and the ordering contract is *global* ascending
        // insertion order — which walking the mask word by word, bit by
        // bit, yields without a sort or a per-query allocation.
        let mut bits = CANDIDATE_BITS.with(RefCell::take);
        bits.clear();
        bits.resize(self.points.len().div_ceil(64), 0);
        for cy in cy_lo..=cy_hi {
            let row = cy as usize * self.nx as usize;
            for cx in cx_lo..=cx_hi {
                let c = row + cx as usize;
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                for &k in &self.entries[lo..hi] {
                    bits[(k >> 6) as usize] |= 1u64 << (k & 63);
                }
            }
        }

        let r2 = radius * radius;
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let k = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                let p = self.points[k];
                if p.distance_squared(center) <= r2 {
                    f(k, p);
                }
            }
        }
        CANDIDATE_BITS.with(|cell| *cell.borrow_mut() = bits);
        ncells - visited
    }

    /// Visits every *candidate* for a radius-`reach` query at `center`
    /// — a superset of [`GridBins::for_each_within`]`(center, reach)`
    /// that applies **no distance filter** — in ascending insertion
    /// order. `reach` is the value given to
    /// [`GridBins::build_for_reach`].
    ///
    /// This is the fastest query the index offers: one cell lookup plus
    /// one precomputed slice walk. Callers that apply their own
    /// per-point predicate anyway (e.g. a radio connectivity check that
    /// recomputes the distance) should use this instead of
    /// [`GridBins::for_each_within`], which would filter by distance
    /// only for the caller to re-derive it.
    ///
    /// Every point within `reach` of `center` is visited; points
    /// *outside* `reach` but binned near it may also be visited. The
    /// ascending-insertion-order guarantee is identical to
    /// [`GridBins::for_each_within`], so filtering the candidates with
    /// any predicate implied by `distance <= reach` folds to the same
    /// bit-identical sums as the brute-force scan.
    ///
    /// Returns the number of grid cells the query skipped.
    ///
    /// # Panics
    ///
    /// Panics if the index was built with [`GridBins::build`] instead of
    /// [`GridBins::build_for_reach`], or if `center` has non-finite
    /// coordinates.
    pub fn for_each_candidate<F: FnMut(usize, Point)>(&self, center: Point, mut f: F) -> usize {
        let nb = self
            .neighborhoods
            .as_ref()
            .expect("GridBins::for_each_candidate requires an index built with build_for_reach");
        let Some((starts, entries)) = &nb.table else {
            // Precompute was skipped (reach spans too many cells); the
            // radius-filtered walk is still a valid candidate set.
            return self.for_each_within(center, nb.reach, f);
        };
        assert!(
            center.x.is_finite() && center.y.is_finite(),
            "grid-bin query center must be finite, got ({}, {})",
            center.x,
            center.y
        );
        let ncells = self.cell_count();
        if ncells == 0 {
            return 0;
        }
        // Same cell expression as build, clamped so out-of-bounds query
        // points use the nearest edge cell (whose neighborhood still
        // covers everything within reach of them — see
        // precompute_neighborhoods).
        let cx = (((center.x - self.origin.x) / self.cell).floor()).clamp(0.0, (self.nx - 1) as f64)
            as usize;
        let cy = (((center.y - self.origin.y) / self.cell).floor()).clamp(0.0, (self.ny - 1) as f64)
            as usize;
        let c = cy * self.nx as usize + cx;
        for &k in &entries[starts[c] as usize..starts[c + 1] as usize] {
            let k = k as usize;
            f(k, self.points[k]);
        }
        let half = nb.half as usize;
        let x_span = (cx + half).min(self.nx as usize - 1) - cx.saturating_sub(half) + 1;
        let y_span = (cy + half).min(self.ny as usize - 1) - cy.saturating_sub(half) + 1;
        ncells - x_span * y_span
    }

    /// The grid cell a [`GridBins::for_each_candidate`] query at `center`
    /// resolves to, or `None` when the precomputed candidate table is
    /// unavailable (empty index, plain [`GridBins::build`], or skipped
    /// precompute — the cases where `for_each_candidate` falls back to a
    /// filtered walk).
    ///
    /// Together with [`GridBins::cell_candidates`] this lets a tight
    /// sweep hoist the per-point closure call out of its inner loop:
    /// resolve the cell once per query point (consecutive points usually
    /// share it) and walk the raw candidate slice directly over
    /// structure-of-arrays data. The slice contents and order are exactly
    /// what `for_each_candidate` would visit.
    ///
    /// # Panics
    ///
    /// Panics if `center` has non-finite coordinates.
    #[inline]
    pub fn candidate_cell(&self, center: Point) -> Option<usize> {
        let nb = self.neighborhoods.as_ref()?;
        nb.table.as_ref()?;
        if self.cell_count() == 0 {
            return None;
        }
        assert!(
            center.x.is_finite() && center.y.is_finite(),
            "grid-bin query center must be finite, got ({}, {})",
            center.x,
            center.y
        );
        let cx = (((center.x - self.origin.x) / self.cell).floor()).clamp(0.0, (self.nx - 1) as f64)
            as usize;
        let cy = (((center.y - self.origin.y) / self.cell).floor()).clamp(0.0, (self.ny - 1) as f64)
            as usize;
        Some(cy * self.nx as usize + cx)
    }

    /// The precomputed candidate list of cell `c` (point indices in
    /// **ascending insertion order**), where `c` came from
    /// [`GridBins::candidate_cell`].
    ///
    /// # Panics
    ///
    /// Panics if the index has no precomputed table or `c` is out of
    /// range.
    #[inline]
    pub fn cell_candidates(&self, c: usize) -> &[u32] {
        let nb = self
            .neighborhoods
            .as_ref()
            .expect("GridBins::cell_candidates requires an index built with build_for_reach");
        let (starts, entries) = nb
            .table
            .as_ref()
            .expect("GridBins::cell_candidates requires a precomputed candidate table");
        &entries[starts[c] as usize..starts[c + 1] as usize]
    }

    /// Collects `(index, point)` pairs within `radius` of `center`, in
    /// ascending insertion order. Convenience wrapper over
    /// [`GridBins::for_each_within`].
    pub fn within(&self, center: Point, radius: f64) -> Vec<(usize, Point)> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |k, p| out.push((k, p)));
        out
    }

    /// Inclusive cell range `[lo, hi]` along one axis covering world
    /// coordinates `[min, max]`, or `None` if the slab misses the grid.
    fn axis_cells(&self, min: f64, max: f64, origin: f64, n: u32) -> Option<(u32, u32)> {
        let lo_raw = ((min - origin) / self.cell).floor();
        let hi_raw = ((max - origin) / self.cell).floor();
        if hi_raw < 0.0 || lo_raw >= n as f64 {
            return None;
        }
        let lo = lo_raw.max(0.0) as u32;
        let hi = (hi_raw as i64).min(n as i64 - 1) as u32;
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the index must agree with, including order.
    fn brute(points: &[Point], center: Point, radius: f64) -> Vec<(usize, Point)> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(center) <= radius * radius)
            .map(|(k, p)| (k, *p))
            .collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let bins = GridBins::build(&[], 1.0);
        assert!(bins.is_empty());
        assert_eq!(bins.within(Point::new(3.0, 4.0), 100.0), vec![]);
    }

    #[test]
    fn single_point_and_zero_radius() {
        let pts = [Point::new(2.0, 3.0)];
        let bins = GridBins::build(&pts, 1.0);
        assert_eq!(bins.within(Point::new(2.0, 3.0), 0.0), vec![(0, pts[0])]);
        assert_eq!(bins.within(Point::new(2.0, 3.1), 0.0), vec![]);
    }

    #[test]
    fn matches_brute_force_in_order_on_a_lattice() {
        // Points on cell boundaries of the 5.0 grid on purpose.
        let mut pts = Vec::new();
        for j in 0..6 {
            for i in 0..6 {
                pts.push(Point::new(i as f64 * 5.0, j as f64 * 5.0));
            }
        }
        let bins = GridBins::build(&pts, 5.0);
        for &(cx, cy, r) in &[
            (12.0, 12.0, 7.5),
            (0.0, 0.0, 5.0),
            (25.0, 25.0, 0.0),
            (-10.0, -10.0, 3.0), // misses the grid
            (12.5, 12.5, 100.0), // covers everything
            (10.0, 10.0, 5.0),   // boundary-exact distances
        ] {
            let q = Point::new(cx, cy);
            assert_eq!(
                bins.within(q, r),
                brute(&pts, q, r),
                "query ({cx},{cy},{r})"
            );
        }
    }

    #[test]
    fn duplicate_points_all_reported_in_insertion_order() {
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let bins = GridBins::build(&pts, 0.5);
        let hits: Vec<usize> = bins
            .within(Point::new(1.0, 1.0), 0.0)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(hits, vec![0, 1, 2]);
    }

    #[test]
    fn prune_count_reflects_skipped_cells() {
        let mut pts = Vec::new();
        for j in 0..10 {
            for i in 0..10 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        let bins = GridBins::build(&pts, 1.0);
        let total = bins.cell_count();
        let mut seen = 0;
        let pruned = bins.for_each_within(Point::new(0.0, 0.0), 1.0, |_, _| seen += 1);
        assert_eq!(seen, 3); // (0,0), (1,0), (0,1)
        assert!(pruned > 0 && pruned < total, "pruned {pruned} of {total}");
        // A query that misses the grid entirely prunes every cell.
        assert_eq!(
            bins.for_each_within(Point::new(-50.0, -50.0), 1.0, |_, _| ()),
            total
        );
    }

    #[test]
    fn tiny_cells_and_huge_cells_agree_with_brute() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.1),
            Point::new(99.9, 99.9),
            Point::new(50.0, 50.0),
            Point::new(100.0, 100.0),
        ];
        for cell in [0.05, 1.0, 33.3, 1000.0] {
            let bins = GridBins::build(&pts, cell);
            for &(cx, cy, r) in &[(50.0, 50.0, 80.0), (0.0, 0.0, 0.15), (100.0, 100.0, 0.0)] {
                let q = Point::new(cx, cy);
                assert_eq!(
                    bins.within(q, r),
                    brute(&pts, q, r),
                    "cell {cell}, query ({cx},{cy},{r})"
                );
            }
        }
    }

    /// Candidates must cover all within-reach points, in ascending order.
    fn assert_candidates_cover(bins: &GridBins, pts: &[Point], q: Point, reach: f64) {
        let mut cand = Vec::new();
        bins.for_each_candidate(q, |k, _| cand.push(k));
        assert!(
            cand.windows(2).all(|w| w[0] < w[1]),
            "candidates not strictly ascending: {cand:?}"
        );
        for (k, _) in brute(pts, q, reach) {
            assert!(
                cand.contains(&k),
                "point {k} within {reach} of ({}, {}) missing from candidates {cand:?}",
                q.x,
                q.y
            );
        }
    }

    #[test]
    fn candidates_cover_every_within_reach_point() {
        let mut pts = Vec::new();
        for j in 0..8 {
            for i in 0..8 {
                pts.push(Point::new(i as f64 * 3.0, j as f64 * 3.0));
            }
        }
        let reach = 7.0;
        let bins = GridBins::build_for_reach(&pts, reach, reach);
        for &(x, y) in &[
            (0.0, 0.0),
            (10.5, 10.5),
            (21.0, 21.0),
            (-5.0, 12.0),  // left of the bounding box
            (30.0, -4.0),  // below and right of it
            (12.0, 100.0), // far above: nothing in reach, still fine
        ] {
            assert_candidates_cover(&bins, &pts, Point::new(x, y), reach);
        }
    }

    #[test]
    fn candidate_query_prunes_and_matches_filtered_walk() {
        let mut pts = Vec::new();
        for j in 0..10 {
            for i in 0..10 {
                pts.push(Point::new(i as f64 * 2.0, j as f64 * 2.0));
            }
        }
        let reach = 3.0;
        let bins = GridBins::build_for_reach(&pts, reach, reach);
        let q = Point::new(9.0, 9.0);
        let mut cand = Vec::new();
        let pruned = bins.for_each_candidate(q, |k, _| cand.push(k));
        assert!(pruned > 0 && pruned < bins.cell_count());
        // Filtering the candidates by distance gives exactly within().
        let filtered: Vec<usize> = cand
            .into_iter()
            .filter(|&k| pts[k].distance_squared(q) <= reach * reach)
            .collect();
        let within: Vec<usize> = bins.within(q, reach).into_iter().map(|(k, _)| k).collect();
        assert_eq!(filtered, within);
    }

    #[test]
    fn oversized_reach_falls_back_to_filtered_walk() {
        // reach/cell = 100 would duplicate each point ~40000x; the
        // precompute is skipped and queries fall back to for_each_within,
        // which filters by reach — still a valid candidate set.
        let pts: Vec<Point> = (0..50)
            .map(|k| Point::new(k as f64 * 1.0, (k % 7) as f64))
            .collect();
        let bins = GridBins::build_for_reach(&pts, 0.5, 50.0);
        assert_candidates_cover(&bins, &pts, Point::new(25.0, 3.0), 50.0);
    }

    #[test]
    fn empty_index_has_no_candidates() {
        let bins = GridBins::build_for_reach(&[], 1.0, 5.0);
        assert_eq!(bins.for_each_candidate(Point::new(1.0, 2.0), |_, _| ()), 0);
    }

    #[test]
    fn rebuild_into_equals_fresh_build() {
        let a: Vec<Point> = (0..60)
            .map(|k| Point::new((k * 7 % 23) as f64, (k * 5 % 19) as f64))
            .collect();
        let b: Vec<Point> = (0..45)
            .map(|k| Point::new((k * 3 % 17) as f64 * 2.0, (k * 11 % 13) as f64 * 3.0))
            .collect();
        let mut reused = GridBins::build(&a, 4.0);
        // Rebuild over a different set, then back: every intermediate
        // state must equal what a fresh build would produce, field for
        // field (PartialEq covers cells, CSR contents, and points).
        reused.rebuild_into(&b, 6.0);
        assert_eq!(reused, GridBins::build(&b, 6.0));
        reused.rebuild_into(&a, 4.0);
        assert_eq!(reused, GridBins::build(&a, 4.0));
        // Shrinking to empty and growing again also matches.
        reused.rebuild_into(&[], 1.0);
        assert_eq!(reused, GridBins::build(&[], 1.0));
        reused.rebuild_into(&b, 6.0);
        assert_eq!(reused, GridBins::build(&b, 6.0));
    }

    #[test]
    fn rebuild_for_reach_into_equals_fresh_build_for_reach() {
        let a: Vec<Point> = (0..50)
            .map(|k| Point::new((k % 10) as f64 * 3.0, (k / 10) as f64 * 3.0))
            .collect();
        let b: Vec<Point> = (0..30)
            .map(|k| Point::new((k % 6) as f64 * 5.0, (k / 6) as f64 * 5.0))
            .collect();
        let mut reused = GridBins::build_for_reach(&a, 7.0, 7.0);
        reused.rebuild_for_reach_into(&b, 9.0, 9.0);
        assert_eq!(reused, GridBins::build_for_reach(&b, 9.0, 9.0));
        reused.rebuild_for_reach_into(&a, 7.0, 7.0);
        assert_eq!(reused, GridBins::build_for_reach(&a, 7.0, 7.0));
        // And the rebuilt index answers queries identically.
        for &(x, y) in &[(0.0, 0.0), (13.5, 13.5), (27.0, 27.0), (-4.0, 9.0)] {
            assert_candidates_cover(&reused, &a, Point::new(x, y), 7.0);
        }
    }

    #[test]
    fn cell_candidates_match_for_each_candidate() {
        let pts: Vec<Point> = (0..40)
            .map(|k| Point::new((k % 8) as f64 * 2.5, (k / 8) as f64 * 2.5))
            .collect();
        let bins = GridBins::build_for_reach(&pts, 5.0, 5.0);
        for &(x, y) in &[(0.0, 0.0), (9.0, 9.0), (17.5, 12.5), (-3.0, 50.0)] {
            let q = Point::new(x, y);
            let mut via_closure = Vec::new();
            bins.for_each_candidate(q, |k, _| via_closure.push(k as u32));
            let c = bins.candidate_cell(q).expect("table present");
            assert_eq!(bins.cell_candidates(c), via_closure.as_slice(), "at {q}");
        }
    }

    #[test]
    fn candidate_cell_is_none_without_a_table() {
        let plain = GridBins::build(&[Point::ORIGIN], 1.0);
        assert_eq!(plain.candidate_cell(Point::ORIGIN), None);
        let empty = GridBins::build_for_reach(&[], 1.0, 5.0);
        assert_eq!(empty.candidate_cell(Point::ORIGIN), None);
        // Skipped precompute (oversized reach) also reports None.
        let pts: Vec<Point> = (0..50).map(|k| Point::new(k as f64, 0.0)).collect();
        let fallback = GridBins::build_for_reach(&pts, 0.5, 50.0);
        assert_eq!(fallback.candidate_cell(Point::ORIGIN), None);
    }

    #[test]
    #[should_panic(expected = "build_for_reach")]
    fn candidate_query_requires_reach_build() {
        let bins = GridBins::build(&[Point::ORIGIN], 1.0);
        bins.for_each_candidate(Point::ORIGIN, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "reach")]
    fn rejects_negative_reach() {
        let _ = GridBins::build_for_reach(&[Point::ORIGIN], 1.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn rejects_nonpositive_cell() {
        let _ = GridBins::build(&[Point::ORIGIN], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nonfinite_points() {
        let _ = GridBins::build(&[Point::new(f64::NAN, 0.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn rejects_negative_radius() {
        let bins = GridBins::build(&[Point::ORIGIN], 1.0);
        let _ = bins.within(Point::ORIGIN, -1.0);
    }
}
