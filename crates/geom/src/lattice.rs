//! The survey measurement lattice.
//!
//! The paper's exploration agent measures localization error at every point
//! `(i*step, j*step)` of the terrain — the corners obtained by subdividing
//! the terrain into `step x step` squares. [`Lattice`] models that set of
//! points, provides dense row-major indexing for per-point accumulators, and
//! fast enumeration of the lattice points inside a disk (the inner loop of
//! the beacon-major survey).

use crate::disk::Disk;
use crate::point::Point;
use crate::rect::{Rect, Terrain};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 2D lattice index `(i, j)`: column `i` along x, row `j` along y.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LatticeIndex {
    /// Column (x) index.
    pub i: u32,
    /// Row (y) index.
    pub j: u32,
}

impl LatticeIndex {
    /// Creates an index from column and row.
    #[inline]
    pub const fn new(i: u32, j: u32) -> Self {
        LatticeIndex { i, j }
    }
}

impl fmt::Display for LatticeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.i, self.j)
    }
}

/// The `step`-spaced measurement lattice over a square [`Terrain`].
///
/// For a terrain of side `Side` and spacing `step`, the lattice has
/// `per_side = floor(Side/step) + 1` points per axis, for a total of
/// `PT = per_side²` points — the paper's *number of data points in the
/// terrain* (`PT = (Side/step + 1)²` with `Side = 100`, `step = 1` gives
/// `PT = 10 201`).
///
/// # Example
///
/// ```
/// use abp_geom::{Lattice, LatticeIndex, Point, Terrain};
/// let lat = Lattice::new(Terrain::square(100.0), 1.0);
/// assert_eq!(lat.per_side(), 101);
/// assert_eq!(lat.len(), 10_201);
/// assert_eq!(lat.point(LatticeIndex::new(3, 7)), Point::new(3.0, 7.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lattice {
    terrain: Terrain,
    step: f64,
    per_side: u32,
}

impl Lattice {
    /// Creates the lattice for `terrain` with spacing `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not finite and strictly positive, or if `step`
    /// exceeds the terrain side (the survey would have a single row/column,
    /// which the paper's algorithms do not define).
    pub fn new(terrain: Terrain, step: f64) -> Self {
        assert!(
            step.is_finite() && step > 0.0,
            "lattice step must be finite and positive, got {step}"
        );
        assert!(
            step <= terrain.side(),
            "lattice step {step} exceeds terrain side {}",
            terrain.side()
        );
        // +0.5 ulp-ish guard: 100.0/1.0 is exact, but e.g. 1.0/0.1 is 9.999..
        let per_side = ((terrain.side() / step) + 1e-9).floor() as u32 + 1;
        Lattice {
            terrain,
            step,
            per_side,
        }
    }

    /// The underlying terrain.
    #[inline]
    pub fn terrain(&self) -> Terrain {
        self.terrain
    }

    /// Lattice spacing in meters.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Number of lattice points along each axis.
    #[inline]
    pub fn per_side(&self) -> u32 {
        self.per_side
    }

    /// Total number of lattice points (`PT` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        (self.per_side as usize) * (self.per_side as usize)
    }

    /// Returns `true` if the lattice has no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The position of the lattice point at `idx`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions only) if `idx` is out of bounds.
    #[inline]
    pub fn point(&self, idx: LatticeIndex) -> Point {
        debug_assert!(idx.i < self.per_side && idx.j < self.per_side);
        Point::new(idx.i as f64 * self.step, idx.j as f64 * self.step)
    }

    /// Row-major flat offset of `idx`, suitable for indexing a `Vec` of
    /// per-point accumulators.
    #[inline]
    pub fn flat(&self, idx: LatticeIndex) -> usize {
        idx.j as usize * self.per_side as usize + idx.i as usize
    }

    /// Inverse of [`Lattice::flat`].
    ///
    /// # Panics
    ///
    /// Panics (debug assertions only) if `offset >= self.len()`.
    #[inline]
    pub fn unflat(&self, offset: usize) -> LatticeIndex {
        debug_assert!(offset < self.len());
        LatticeIndex {
            i: (offset % self.per_side as usize) as u32,
            j: (offset / self.per_side as usize) as u32,
        }
    }

    /// The lattice point nearest to an arbitrary position (ties round half
    /// up). The position is clamped to the terrain first.
    pub fn nearest(&self, p: Point) -> LatticeIndex {
        let c = self.terrain.bounds().clamp_point(p);
        let max = self.per_side - 1;
        LatticeIndex {
            i: ((c.x / self.step).round() as u32).min(max),
            j: ((c.y / self.step).round() as u32).min(max),
        }
    }

    /// Iterates all lattice indices in row-major order (`j` outer, `i`
    /// inner), matching [`Lattice::flat`] order.
    pub fn indices(&self) -> impl Iterator<Item = LatticeIndex> + '_ {
        let n = self.per_side;
        (0..n).flat_map(move |j| (0..n).map(move |i| LatticeIndex { i, j }))
    }

    /// Iterates all lattice points in row-major order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.indices().map(move |ix| self.point(ix))
    }

    /// The inclusive index range `[lo, hi]` of lattice columns/rows whose
    /// coordinate falls within `[min, max]`, or `None` if the slab misses
    /// the lattice entirely.
    fn axis_range(&self, min: f64, max: f64) -> Option<(u32, u32)> {
        if max < 0.0 || min > (self.per_side - 1) as f64 * self.step {
            return None;
        }
        let lo = (min / self.step).ceil().max(0.0) as u32;
        let hi = ((max / self.step).floor() as i64).min(self.per_side as i64 - 1);
        if hi < lo as i64 {
            return None;
        }
        Some((lo, hi as u32))
    }

    /// The inclusive index range `[lo, hi]` of lattice columns (or rows —
    /// the lattice is square) whose coordinate falls within `[min, max]`,
    /// or `None` if the slab misses the lattice entirely.
    ///
    /// This is exactly the span [`Lattice::for_each_in_rect`] enumerates
    /// per axis; exposed so callers that cache per-row aggregates (the
    /// incremental Grid scorer in `abp-placement`) can partition the
    /// lattice identically.
    pub fn index_span(&self, min: f64, max: f64) -> Option<(u32, u32)> {
        self.axis_range(min, max)
    }

    /// [`Lattice::index_span`] widened by one index on each side (and
    /// clamped to the lattice): a span that surely holds every index
    /// whose coordinate an exact test against `[min, max]` can accept.
    ///
    /// The slab bounds `min`/`max` carry rounding (`c ± r`, a square
    /// root), and dividing by an inexact step adds more, so the plain
    /// span can shave off a point that lies exactly on a disk's boundary.
    /// Callers that enumerate a disk take this cover and trim it with the
    /// exact membership test ([`Lattice::disk_row_span`]).
    pub fn cover_span(&self, min: f64, max: f64) -> Option<(u32, u32)> {
        let lo = ((min / self.step).ceil() as i64).saturating_sub(1).max(0);
        let hi = ((max / self.step).floor() as i64)
            .saturating_add(1)
            .min(self.per_side as i64 - 1);
        (lo <= hi).then_some((lo as u32, hi as u32))
    }

    /// Enumerates the lattice points inside `disk` (boundary included),
    /// invoking `f(index, point)` for each.
    ///
    /// This is the hot inner loop of the beacon-major survey: the caller
    /// visits, per beacon, only the `O((R/step)²)` points the beacon can
    /// reach rather than the full lattice.
    pub fn for_each_in_disk<F: FnMut(LatticeIndex, Point)>(&self, disk: Disk, f: F) {
        let c = disk.center();
        let r = disk.radius();
        let Some((j_lo, j_hi)) = self.cover_span(c.y - r, c.y + r) else {
            return;
        };
        self.for_each_in_disk_rows(disk, j_lo, j_hi, f);
    }

    /// [`Lattice::for_each_in_disk`] restricted to lattice rows
    /// `j_lo..=j_hi` — the same per-row membership math, over a caller-
    /// chosen row band.
    ///
    /// This is the banding primitive of the intra-survey tile scheduler
    /// (`abp-survey`): the disk's full row span comes from
    /// [`Lattice::cover_span`]`(c.y - r, c.y + r)`, gets split into
    /// contiguous bands, and each worker enumerates its band through this
    /// method. Because each row is processed independently, the union of
    /// any disjoint band cover visits exactly the points
    /// [`Lattice::for_each_in_disk`] would, with identical `(index,
    /// point)` values.
    ///
    /// Rows must lie within the lattice (`j_hi < per_side`); rows outside
    /// the disk simply match no points.
    pub fn for_each_in_disk_rows<F: FnMut(LatticeIndex, Point)>(
        &self,
        disk: Disk,
        j_lo: u32,
        j_hi: u32,
        mut f: F,
    ) {
        debug_assert!(j_hi < self.per_side, "row band exceeds the lattice");
        for j in j_lo..=j_hi {
            let Some((i_lo, i_hi)) = self.disk_row_span(disk, j) else {
                continue;
            };
            let y = j as f64 * self.step;
            for i in i_lo..=i_hi {
                f(LatticeIndex { i, j }, Point::new(i as f64 * self.step, y));
            }
        }
    }

    /// The inclusive column span `[a, b]` of row `j` whose lattice points
    /// lie inside `disk` (boundary included), or `None` if the row misses
    /// it — the points [`Lattice::for_each_in_disk_rows`] visits in that
    /// row.
    ///
    /// Membership is the exact test `dx * dx + dy * dy <= r * r` with
    /// `dx = i·step - c.x` and `dy = j·step - c.y` (the same bits as
    /// `center.distance_squared(point)`). The [`Lattice::cover_span`] of
    /// the slab `c.x ± sqrt(r² - dy²)` gives the candidate columns, and
    /// the ends are trimmed against the exact test. The computed
    /// `dx * dx` never increases towards the centre column and never
    /// decreases away from it (every step is a monotone rounded
    /// operation), so the members form one contiguous run and trimming
    /// the ends finds it.
    pub fn disk_row_span(&self, disk: Disk, j: u32) -> Option<(u32, u32)> {
        let c = disk.center();
        let r = disk.radius();
        let r2 = r * r;
        let dy = j as f64 * self.step - c.y;
        let dy2 = dy * dy;
        let span2 = r2 - dy2;
        if span2 < 0.0 {
            return None;
        }
        let span = span2.sqrt();
        let (mut a, mut b) = self.cover_span(c.x - span, c.x + span)?;
        let inside = |i: u32| {
            let dx = i as f64 * self.step - c.x;
            dx * dx + dy2 <= r2
        };
        while !inside(a) {
            if a == b {
                return None;
            }
            a += 1;
        }
        while !inside(b) {
            b -= 1;
        }
        Some((a, b))
    }

    /// Enumerates the lattice points inside the axis-aligned rectangle
    /// `rect` (boundary included), invoking `f(index, point)` for each.
    ///
    /// Used by the Grid placement algorithm to accumulate cumulative error
    /// per overlapping grid.
    pub fn for_each_in_rect<F: FnMut(LatticeIndex, Point)>(&self, rect: &Rect, mut f: F) {
        let Some((i_lo, i_hi)) = self.axis_range(rect.min().x, rect.max().x) else {
            return;
        };
        let Some((j_lo, j_hi)) = self.axis_range(rect.min().y, rect.max().y) else {
            return;
        };
        for j in j_lo..=j_hi {
            let y = j as f64 * self.step;
            for i in i_lo..=i_hi {
                f(LatticeIndex { i, j }, Point::new(i as f64 * self.step, y));
            }
        }
    }

    /// Collects the flat offsets of lattice points inside `disk`.
    ///
    /// Convenience wrapper over [`Lattice::for_each_in_disk`] for callers
    /// that need to revisit the same point set (e.g. incremental re-survey).
    pub fn offsets_in_disk(&self, disk: Disk) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_disk(disk, |ix, _| out.push(self.flat(ix)));
        out
    }
}

impl fmt::Display for Lattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} lattice (step {} m) over {}",
            self.per_side, self.per_side, self.step, self.terrain
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_lattice() -> Lattice {
        Lattice::new(Terrain::square(100.0), 1.0)
    }

    #[test]
    fn paper_dimensions() {
        let lat = paper_lattice();
        assert_eq!(lat.per_side(), 101);
        assert_eq!(lat.len(), 10_201);
    }

    #[test]
    fn fractional_step_dimensions() {
        let lat = Lattice::new(Terrain::square(10.0), 2.5);
        assert_eq!(lat.per_side(), 5); // 0, 2.5, 5, 7.5, 10
        let lat = Lattice::new(Terrain::square(1.0), 0.1);
        assert_eq!(lat.per_side(), 11);
    }

    #[test]
    fn point_and_flat_roundtrip() {
        let lat = paper_lattice();
        for &(i, j) in &[(0u32, 0u32), (100, 100), (3, 97), (50, 50)] {
            let ix = LatticeIndex::new(i, j);
            assert_eq!(lat.point(ix), Point::new(i as f64, j as f64));
            assert_eq!(lat.unflat(lat.flat(ix)), ix);
        }
        assert_eq!(lat.flat(LatticeIndex::new(0, 0)), 0);
        assert_eq!(lat.flat(LatticeIndex::new(100, 100)), 10_200);
    }

    #[test]
    fn indices_order_matches_flat() {
        let lat = Lattice::new(Terrain::square(3.0), 1.0);
        let idxs: Vec<_> = lat.indices().collect();
        assert_eq!(idxs.len(), 16);
        for (k, ix) in idxs.iter().enumerate() {
            assert_eq!(lat.flat(*ix), k);
        }
    }

    #[test]
    fn nearest_rounds_and_clamps() {
        let lat = paper_lattice();
        assert_eq!(lat.nearest(Point::new(3.4, 7.6)), LatticeIndex::new(3, 8));
        assert_eq!(
            lat.nearest(Point::new(-5.0, 50.0)),
            LatticeIndex::new(0, 50)
        );
        assert_eq!(
            lat.nearest(Point::new(500.0, 100.0)),
            LatticeIndex::new(100, 100)
        );
    }

    #[test]
    fn disk_enumeration_matches_bruteforce() {
        let lat = Lattice::new(Terrain::square(20.0), 1.0);
        for &(cx, cy, r) in &[
            (10.0, 10.0, 3.0),
            (0.0, 0.0, 5.0),
            (19.5, 2.5, 4.0),
            (10.0, 10.0, 0.0),
            (-3.0, 10.0, 2.0), // fully outside
            (10.0, 10.0, 100.0),
        ] {
            let disk = Disk::new(Point::new(cx, cy), r);
            let mut fast = Vec::new();
            lat.for_each_in_disk(disk, |ix, _| fast.push(ix));
            let mut brute: Vec<_> = lat
                .indices()
                .filter(|ix| lat.point(*ix).distance_squared(disk.center()) <= r * r)
                .collect();
            fast.sort();
            brute.sort();
            assert_eq!(fast, brute, "disk ({cx},{cy},{r})");
        }
    }

    /// A disk centred on a lattice point with a radius of whole steps,
    /// at a step that is not a binary fraction: the boundary points sit
    /// exactly `r` away, and `c.x / step` rounds above the column index,
    /// so the plain slab span misses the point straight above the
    /// centre. The widened cover keeps it.
    #[test]
    fn disk_enumeration_keeps_exact_boundary_points_at_an_inexact_step() {
        let step = 100.0 / 33.0;
        let lat = Lattice::new(Terrain::square(100.0), step);
        let c = Point::new(23.0 * step, 31.0 * step);
        let r = 12.0 * step;
        let disk = Disk::new(c, r);
        let mut fast = Vec::new();
        lat.for_each_in_disk(disk, |ix, _| fast.push(ix));
        let brute: Vec<_> = lat
            .indices()
            .filter(|ix| lat.point(*ix).distance_squared(c) <= r * r)
            .collect();
        assert!(brute.contains(&LatticeIndex::new(23, 19)));
        assert_eq!(fast, brute);
    }

    #[test]
    fn disk_row_bands_union_to_the_full_enumeration() {
        let lat = Lattice::new(Terrain::square(20.0), 1.0);
        for &(cx, cy, r) in &[(10.0, 10.0, 3.0), (0.0, 0.0, 5.0), (19.5, 2.5, 4.0)] {
            let disk = Disk::new(Point::new(cx, cy), r);
            let mut full = Vec::new();
            lat.for_each_in_disk(disk, |ix, p| full.push((ix, p)));
            let (j_lo, j_hi) = lat.cover_span(cy - r, cy + r).unwrap();
            // Any disjoint row-band cover must visit the same (index,
            // point) sequence band by band, in the same per-row order.
            for split in j_lo..=j_hi {
                let mut banded = Vec::new();
                lat.for_each_in_disk_rows(disk, j_lo, split, |ix, p| banded.push((ix, p)));
                if split < j_hi {
                    lat.for_each_in_disk_rows(disk, split + 1, j_hi, |ix, p| banded.push((ix, p)));
                }
                assert_eq!(banded, full, "disk ({cx},{cy},{r}) split at row {split}");
            }
            // Rows outside the disk match nothing.
            if j_hi + 1 < lat.per_side() {
                lat.for_each_in_disk_rows(disk, j_hi + 1, j_hi + 1, |ix, _| {
                    panic!("row past the disk matched {ix}")
                });
            }
        }
    }

    #[test]
    fn rect_enumeration_matches_bruteforce() {
        let lat = Lattice::new(Terrain::square(20.0), 1.0);
        let cases = [
            Rect::new(Point::new(2.5, 3.0), Point::new(7.0, 9.5)),
            Rect::new(Point::new(-5.0, -5.0), Point::new(3.0, 3.0)),
            Rect::new(Point::new(18.0, 18.0), Point::new(30.0, 30.0)),
            Rect::new(Point::new(25.0, 0.0), Point::new(30.0, 5.0)), // outside
        ];
        for rect in &cases {
            let mut fast = Vec::new();
            lat.for_each_in_rect(rect, |ix, _| fast.push(ix));
            let mut brute: Vec<_> = lat
                .indices()
                .filter(|ix| rect.contains(lat.point(*ix)))
                .collect();
            fast.sort();
            brute.sort();
            assert_eq!(fast, brute, "rect {rect}");
        }
    }

    #[test]
    fn offsets_in_disk_counts() {
        let lat = Lattice::new(Terrain::square(10.0), 1.0);
        // Unit-radius disk at a lattice point covers the point + 4 neighbors.
        let offs = lat.offsets_in_disk(Disk::new(Point::new(5.0, 5.0), 1.0));
        assert_eq!(offs.len(), 5);
    }

    #[test]
    #[should_panic(expected = "lattice step")]
    fn rejects_zero_step() {
        let _ = Lattice::new(Terrain::square(10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds terrain side")]
    fn rejects_step_larger_than_side() {
        let _ = Lattice::new(Terrain::square(10.0), 11.0);
    }
}
