//! The measured localization-error field.

use abp_field::{Beacon, BeaconField};
use abp_geom::{Disk, Lattice, LatticeIndex, Point, Rect};
use abp_localize::{ConnectivityOracle, Localizer, UnheardPolicy};
use abp_radio::{Annulus, Propagation};
use abp_stats::Summary;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The lattice region an incremental survey update touched.
///
/// Returned by [`ErrorMap::add_beacon`] / [`ErrorMap::kill_beacon`] so
/// downstream caches (incremental placement scoring in `abp-placement`)
/// can re-derive only the affected region instead of rescanning the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SurveyDelta {
    /// Inclusive `(min, max)` corners of the changed lattice-index
    /// bounding box, or `None` when the update changed no point (the
    /// beacon reached nothing).
    pub changed: Option<(LatticeIndex, LatticeIndex)>,
    /// Number of lattice points whose accumulators changed.
    pub touched: usize,
}

impl SurveyDelta {
    /// A delta that changed nothing.
    pub const EMPTY: SurveyDelta = SurveyDelta {
        changed: None,
        touched: 0,
    };

    /// Whether any lattice point changed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.changed.is_none()
    }

    /// Whether `ix` lies inside the changed bounding box.
    pub fn contains(&self, ix: LatticeIndex) -> bool {
        match self.changed {
            Some((lo, hi)) => lo.i <= ix.i && ix.i <= hi.i && lo.j <= ix.j && ix.j <= hi.j,
            None => false,
        }
    }
}

/// Explicit per-point accounting of a survey's measurement quality.
///
/// A healthy, fault-free survey puts every point in `measured` (plus
/// `unheard` holes where no beacon reaches). Fault injection opens two
/// more channels: `degraded` points heard *something* but fewer beacons
/// than the consuming estimator needs, and `dropped` points were visited
/// but their sample was lost (a GPS outage window, for instance). The
/// four channels partition the lattice:
/// `measured + degraded + unheard + dropped == len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SurveyAccounting {
    /// Points measured at the estimator's full fidelity.
    pub measured: usize,
    /// Points heard by at least one beacon but fewer than the estimator's
    /// minimum — localization there is a typed fallback, not the method.
    pub degraded: usize,
    /// Points hearing no beacon at all.
    pub unheard: usize,
    /// Points whose sample was lost in collection (never measured despite
    /// beacon coverage).
    pub dropped: usize,
}

impl SurveyAccounting {
    /// Fraction of `len` points that were measured at full fidelity.
    pub fn measured_fraction(&self, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        self.measured as f64 / len as f64
    }
}

impl fmt::Display for SurveyAccounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} measured, {} degraded, {} unheard, {} dropped",
            self.measured, self.degraded, self.unheard, self.dropped
        )
    }
}

/// The localization error measured at every lattice point — what the
/// paper's exploring agent produces in Step 2 of the Max/Grid algorithms
/// ("measure localization error at each point `(i·step, j·step)`"), and
/// the sole input the placement algorithms consume.
///
/// Internally the map keeps, per point, the running centroid accumulator
/// `(Σx, Σy, count)` of connected beacons. This enables:
///
/// * **beacon-major construction** ([`ErrorMap::survey`]): for each beacon
///   visit only the lattice points inside its maximum range — `O(Σ
///   points-in-range)` instead of `O(points × beacons)`, a ~6× saving at
///   paper scale and far more at low density;
/// * **incremental re-survey** ([`ErrorMap::add_beacon`]): adding a beacon
///   touches only the points inside *its* coverage disk, so the
///   after-placement survey costs `O((R/step)²)` instead of a full pass.
///
/// Unheard points follow the configured [`UnheardPolicy`]; with
/// [`UnheardPolicy::Exclude`] they carry no measurement and are skipped by
/// all statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorMap {
    lattice: Lattice,
    policy: UnheardPolicy,
    sum_x: Vec<f64>,
    sum_y: Vec<f64>,
    count: Vec<u32>,
    /// Localization error per point; NaN encodes "excluded".
    errors: Vec<f64>,
}

impl ErrorMap {
    /// Surveys `field` under `model` over `lattice` (beacon-major sweep).
    ///
    /// Semantically identical to running the paper's centroid localizer at
    /// every lattice point (validated against
    /// [`ErrorMap::survey_with_localizer`] in tests). A fresh-buffer
    /// [`ErrorMap::survey_with`] on one thread.
    pub fn survey(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        Self::survey_with(
            lattice,
            field,
            model,
            policy,
            &mut crate::SurveyScratch::new(),
            1,
        )
    }

    /// Point-major brute-force sweep: for every lattice point, scan every
    /// beacon. `O(points × beacons)` — the test and bench oracle the
    /// production sweep is bit-compared and timed against.
    ///
    /// Accumulates each point's heard beacons in insertion order — the
    /// same per-point addition order as the beacon-major
    /// [`ErrorMap::survey`] — so the two produce **bit-identical** maps.
    pub fn survey_point_major(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
    ) -> Self {
        let oracle = ConnectivityOracle::new(field, model);
        let n = lattice.len();
        let mut map = ErrorMap {
            lattice: *lattice,
            policy,
            sum_x: vec![0.0; n],
            sum_y: vec![0.0; n],
            count: vec![0; n],
            errors: vec![0.0; n],
        };
        {
            let _span = abp_trace::span!("radio.connectivity_sweep");
            for ix in lattice.indices() {
                let p = lattice.point(ix);
                let (mut sx, mut sy, mut n) = (0.0f64, 0.0f64, 0u32);
                oracle.for_each_heard(p, |b| {
                    sx += b.pos().x;
                    sy += b.pos().y;
                    n += 1;
                });
                let flat = lattice.flat(ix);
                map.sum_x[flat] = sx;
                map.sum_y[flat] = sy;
                map.count[flat] = n;
            }
        }
        map.derive_all_errors();
        map
    }

    /// The production survey: the beacon-major sweep through a reusable
    /// [`SurveyScratch`](crate::SurveyScratch), optionally split across
    /// row-band tiles.
    ///
    /// The accumulator grids come from (and, via
    /// [`SurveyScratch::recycle`](crate::SurveyScratch::recycle), return
    /// to) the scratch, so repeated calls allocate nothing once the
    /// buffers have grown to the largest lattice. For each beacon in
    /// insertion order the sweep walks the lattice points of its
    /// `max_range` disk row by row, adding the guaranteed core of the
    /// model's [`link`](Propagation::link) rule as whole runs and
    /// deciding the annulus with the rule (the kernel `for_each_heard_run`);
    /// the rule equals `connected` point for point.
    ///
    /// `threads` follows the workspace convention: `0` means all
    /// available cores, `<= 1` the plain sequential sweep. With more
    /// workers the lattice is split into row bands (about four per
    /// worker, for load balance); each band runs the same per-beacon walk
    /// over its own rows, owns disjoint grid slices, and derives its
    /// errors in the same pass.
    ///
    /// **Bit-identical at any thread count, and to
    /// [`ErrorMap::survey_point_major`]**: every point folds its heard
    /// beacons in insertion order, whichever band visits it. Asserted by
    /// tests here, in `scratch.rs`, the proptests, and at scale in
    /// `tests/indexing.rs`.
    pub fn survey_with(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut crate::SurveyScratch,
        threads: usize,
    ) -> Self {
        let workers = crate::tiles::resolve_survey_threads(threads);
        let n = lattice.len();
        let mut sum_x = std::mem::take(&mut scratch.sum_x);
        let mut sum_y = std::mem::take(&mut scratch.sum_y);
        let mut count = std::mem::take(&mut scratch.count);
        let mut errors = std::mem::take(&mut scratch.errors);
        for buf in [&mut sum_x, &mut sum_y, &mut errors] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        count.clear();
        count.resize(n, 0);

        if workers <= 1 {
            {
                let _span = abp_trace::span!("radio.connectivity_sweep");
                let mut band =
                    Band::whole(lattice, &mut sum_x, &mut sum_y, &mut count, &mut errors);
                abp_radio::metrics::LINKS_TESTED.add(band.sweep(lattice, field, model));
            }
            let mut map = ErrorMap::from_parts(*lattice, policy, sum_x, sum_y, count, errors);
            map.derive_all_errors();
            return map;
        }

        let per_side = lattice.per_side() as usize;
        let bands = crate::tiles::row_bands(per_side, workers * 4);
        let tasks = Band::split(
            per_side,
            &bands,
            &mut sum_x,
            &mut sum_y,
            &mut count,
            &mut errors,
        );
        let visited = AtomicU64::new(0);
        {
            // The banded pass fuses sweep + error derivation into one band
            // traversal; the fused work reports under the sweep span.
            let _span = abp_trace::span!("radio.connectivity_sweep");
            crate::tiles::run_pool(tasks, workers, |_, mut band| {
                visited.fetch_add(band.sweep(lattice, field, model), Ordering::Relaxed);
                let base = band.j_lo as usize * per_side;
                for off in 0..band.errors.len() {
                    band.errors[off] = derive_error_at(
                        lattice,
                        policy,
                        base + off,
                        band.sum_x[off],
                        band.sum_y[off],
                        band.count[off],
                    );
                }
            });
            abp_radio::metrics::LINKS_TESTED.add(visited.load(Ordering::Relaxed));
        }
        ErrorMap::from_parts(*lattice, policy, sum_x, sum_y, count, errors)
    }

    /// Former name of [`ErrorMap::survey_with`] on one thread.
    #[doc(hidden)]
    pub fn survey_indexed_with(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut crate::SurveyScratch,
    ) -> Self {
        Self::survey_with(lattice, field, model, policy, scratch, 1)
    }

    /// Former name of [`ErrorMap::survey_with`].
    #[doc(hidden)]
    pub fn survey_indexed_with_threads(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        policy: UnheardPolicy,
        scratch: &mut crate::SurveyScratch,
        threads: usize,
    ) -> Self {
        Self::survey_with(lattice, field, model, policy, scratch, threads)
    }

    /// Reference implementation: runs an arbitrary [`Localizer`] at every
    /// lattice point. `O(points × beacons)` — used for validation and for
    /// non-centroid localizers, not in the hot experiment path.
    ///
    /// The map records the localizer's own
    /// [`unheard_policy`](Localizer::unheard_policy), so per-point validity
    /// ([`ErrorMap::error_at`], [`ErrorMap::estimate_at`]) and the
    /// statistics agree with what the localizer actually returned at
    /// unheard points.
    pub fn survey_with_localizer<L: Localizer + ?Sized>(
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
        localizer: &L,
    ) -> Self {
        let n = lattice.len();
        let mut map = ErrorMap {
            lattice: *lattice,
            policy: localizer.unheard_policy(),
            sum_x: vec![0.0; n],
            sum_y: vec![0.0; n],
            count: vec![0; n],
            errors: vec![f64::NAN; n],
        };
        let _span = abp_trace::span!("localize.survey");
        // One index for the whole sweep: localizers gather neighbors
        // through it (Localizer::localize_via), which is order-identical
        // to the brute scan — see the CellIndex ordering contract.
        let index = ConnectivityOracle::build_index(field, model);
        let oracle = ConnectivityOracle::with_index(field, model, &index);
        for ix in lattice.indices() {
            let p = lattice.point(ix);
            let fix = localizer.localize_via(&oracle, p);
            let flat = lattice.flat(ix);
            map.count[flat] = fix.heard as u32;
            if let Some(est) = fix.estimate {
                map.sum_x[flat] = est.x * fix.heard.max(1) as f64;
                map.sum_y[flat] = est.y * fix.heard.max(1) as f64;
                map.errors[flat] = est.distance(p);
            }
        }
        map
    }

    /// Assembles a map from raw parts (robot surveys, snapshot decoding).
    pub(crate) fn from_parts(
        lattice: Lattice,
        policy: UnheardPolicy,
        sum_x: Vec<f64>,
        sum_y: Vec<f64>,
        count: Vec<u32>,
        errors: Vec<f64>,
    ) -> Self {
        let n = lattice.len();
        assert!(
            sum_x.len() == n && sum_y.len() == n && count.len() == n && errors.len() == n,
            "part lengths must equal the lattice size {n}"
        );
        ErrorMap {
            lattice,
            policy,
            sum_x,
            sum_y,
            count,
            errors,
        }
    }

    /// Raw accessors for snapshot encoding.
    pub(crate) fn parts(&self) -> (&[f64], &[f64], &[u32], &[f64]) {
        (&self.sum_x, &self.sum_y, &self.count, &self.errors)
    }

    /// Disassembles the map into its grid buffers so a
    /// [`SurveyScratch`](crate::SurveyScratch) can reuse them.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<u32>, Vec<f64>) {
        (self.sum_x, self.sum_y, self.count, self.errors)
    }

    /// Incrementally re-surveys after `beacon` was added to the field:
    /// only lattice points inside the beacon's maximum range are updated.
    ///
    /// The result is exactly what a full [`ErrorMap::survey`] of the
    /// extended field would produce (deterministic propagation makes the
    /// replay exact); tests assert this equivalence. The returned
    /// [`SurveyDelta`] bounds the changed region so cached scores can
    /// update incrementally.
    pub fn add_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        let _span = abp_trace::span!("radio.incremental_update");
        self.update_beacon(beacon, model, true)
    }

    /// Incrementally removes a beacon's contribution (the inverse of
    /// [`ErrorMap::add_beacon`]) — used by the self-scheduling extension
    /// when a beacon turns passive and by fault experiments when one dies.
    /// Returns the changed region, like [`ErrorMap::add_beacon`].
    pub fn remove_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        self.update_beacon(beacon, model, false)
    }

    /// [`ErrorMap::remove_beacon`] under its fault-experiment name: the
    /// beacon died, take its contribution out of the map.
    pub fn kill_beacon(&mut self, beacon: &Beacon, model: &dyn Propagation) -> SurveyDelta {
        self.remove_beacon(beacon, model)
    }

    /// [`ErrorMap::add_beacon`] across the tile scheduler: the beacon's
    /// coverage-disk row span is split into bands, each band owns
    /// disjoint grid slices, and workers update their bands concurrently
    /// (errors derived inline, which is exact because a single-beacon
    /// update touches each point at most once). `threads` follows the
    /// workspace convention (`0` = all cores, `<= 1` = the sequential
    /// path verbatim). Bit-identical to the sequential method at any
    /// thread count; the returned delta is identical too (bounds and
    /// touched counts merge in band order, and both are order-free).
    pub fn add_beacon_threaded(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        threads: usize,
    ) -> SurveyDelta {
        let workers = crate::tiles::resolve_survey_threads(threads);
        if workers <= 1 {
            return self.add_beacon(beacon, model);
        }
        let _span = abp_trace::span!("radio.incremental_update");
        self.update_beacon_banded(beacon, model, workers, true)
    }

    /// [`ErrorMap::remove_beacon`] across the tile scheduler — see
    /// [`ErrorMap::add_beacon_threaded`].
    pub fn remove_beacon_threaded(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        threads: usize,
    ) -> SurveyDelta {
        let workers = crate::tiles::resolve_survey_threads(threads);
        if workers <= 1 {
            return self.remove_beacon(beacon, model);
        }
        self.update_beacon_banded(beacon, model, workers, false)
    }

    /// The sequential single-beacon update: one band covering the whole
    /// lattice.
    fn update_beacon(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        add: bool,
    ) -> SurveyDelta {
        let lattice = self.lattice;
        let policy = self.policy;
        let mut band = Band::whole(
            &lattice,
            &mut self.sum_x,
            &mut self.sum_y,
            &mut self.count,
            &mut self.errors,
        );
        let out = band.update(&lattice, policy, beacon, model, add);
        if add {
            abp_radio::metrics::LINKS_TESTED.add(out.visited);
        }
        SurveyDelta {
            changed: out.bounds,
            touched: out.touched,
        }
    }

    /// The banded single-beacon update: row bands of the coverage disk,
    /// disjoint grid slices per band, one result slot per band merged in
    /// band order after the pool drains.
    fn update_beacon_banded(
        &mut self,
        beacon: &Beacon,
        model: &dyn Propagation,
        workers: usize,
        add: bool,
    ) -> SurveyDelta {
        let reach = model.max_range(beacon.tx(), beacon.pos());
        let lattice = self.lattice;
        let policy = self.policy;
        let c = beacon.pos();
        let Some((j_lo, j_hi)) = lattice.cover_span(c.y - reach, c.y + reach) else {
            if add {
                abp_radio::metrics::LINKS_TESTED.add(0);
            }
            return SurveyDelta::EMPTY;
        };
        let per_side = lattice.per_side() as usize;
        let bands: Vec<(usize, usize)> =
            crate::tiles::row_bands((j_hi - j_lo + 1) as usize, workers * 4)
                .into_iter()
                .map(|(start, rows)| (j_lo as usize + start, rows))
                .collect();
        let mut outs: Vec<BandUpdate> = vec![BandUpdate::default(); bands.len()];
        let tasks: Vec<_> = Band::split(
            per_side,
            &bands,
            &mut self.sum_x,
            &mut self.sum_y,
            &mut self.count,
            &mut self.errors,
        )
        .into_iter()
        .zip(outs.iter_mut())
        .collect();
        crate::tiles::run_pool(tasks, workers, |_, (mut band, out)| {
            *out = band.update(&lattice, policy, beacon, model, add);
        });

        let mut bounds: Option<(LatticeIndex, LatticeIndex)> = None;
        let mut touched = 0usize;
        let mut visited = 0u64;
        for out in &outs {
            visited += out.visited;
            touched += out.touched;
            if let Some((lo, hi)) = out.bounds {
                Self::grow_bounds(&mut bounds, lo);
                Self::grow_bounds(&mut bounds, hi);
            }
        }
        if add {
            abp_radio::metrics::LINKS_TESTED.add(visited);
        }
        SurveyDelta {
            changed: bounds,
            touched,
        }
    }

    fn grow_bounds(bounds: &mut Option<(LatticeIndex, LatticeIndex)>, ix: LatticeIndex) {
        *bounds = Some(match *bounds {
            None => (ix, ix),
            Some((lo, hi)) => (
                LatticeIndex::new(lo.i.min(ix.i), lo.j.min(ix.j)),
                LatticeIndex::new(hi.i.max(ix.i), hi.j.max(ix.j)),
            ),
        });
    }

    /// Derives every point's error from its accumulators.
    fn derive_all_errors(&mut self) {
        let _span = abp_trace::span!("localize.derive_errors");
        for flat in 0..self.len() {
            self.errors[flat] = self.derive_error(flat);
        }
    }

    fn derive_error(&self, flat: usize) -> f64 {
        derive_error_at(
            &self.lattice,
            self.policy,
            flat,
            self.sum_x[flat],
            self.sum_y[flat],
            self.count[flat],
        )
    }

    /// The survey lattice.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The unheard policy in effect.
    #[inline]
    pub fn policy(&self) -> UnheardPolicy {
        self.policy
    }

    /// Total number of lattice points (`PT`).
    #[inline]
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Always `false` (lattices are non-empty by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// The measured error at a lattice point, or `None` for excluded
    /// (unheard under [`UnheardPolicy::Exclude`]) points.
    pub fn error_at(&self, ix: LatticeIndex) -> Option<f64> {
        let e = self.errors[self.lattice.flat(ix)];
        (!e.is_nan()).then_some(e)
    }

    /// The measured error at the lattice point nearest `p` — the serving
    /// layer's *confidence* for an estimate at `p` (the error the survey
    /// measured where the client claims to be). `None` when that point is
    /// excluded. Allocation-free.
    pub fn error_near(&self, p: Point) -> Option<f64> {
        self.error_at(self.lattice.nearest(p))
    }

    /// The position estimate at a lattice point (`None` if excluded).
    pub fn estimate_at(&self, ix: LatticeIndex) -> Option<Point> {
        let flat = self.lattice.flat(ix);
        if self.count[flat] > 0 {
            let inv = 1.0 / self.count[flat] as f64;
            Some(Point::new(self.sum_x[flat] * inv, self.sum_y[flat] * inv))
        } else {
            self.policy.estimate(self.lattice.terrain())
        }
    }

    /// Number of beacons heard at a lattice point.
    pub fn heard_at(&self, ix: LatticeIndex) -> u32 {
        self.count[self.lattice.flat(ix)]
    }

    /// Iterates the valid (non-excluded) errors.
    pub fn valid_errors(&self) -> impl Iterator<Item = f64> + '_ {
        self.errors.iter().copied().filter(|e| !e.is_nan())
    }

    /// Number of valid measurements.
    pub fn valid_count(&self) -> usize {
        self.errors.iter().filter(|e| !e.is_nan()).count()
    }

    /// Number of lattice points hearing no beacon.
    pub fn unheard_count(&self) -> usize {
        self.count.iter().filter(|&&c| c == 0).count()
    }

    /// Classifies every lattice point into the explicit accounting
    /// channels of [`SurveyAccounting`], treating points that heard
    /// fewer than `min_beacons` beacons as *degraded*.
    ///
    /// `min_beacons` should match the estimator consuming the map:
    /// `1` for proximity/centroid methods, `3` for multilateration
    /// (see `Localizer::min_beacons` in `abp-localize`). Fault-injected
    /// surveys use this to report how much of the terrain was measured
    /// at full fidelity versus degraded, unheard, or lost outright.
    pub fn accounting_with(&self, min_beacons: u32) -> SurveyAccounting {
        let mut acc = SurveyAccounting::default();
        for (flat, &c) in self.count.iter().enumerate() {
            if c == 0 {
                acc.unheard += 1;
            } else if self.errors[flat].is_nan() {
                acc.dropped += 1;
            } else if c < min_beacons {
                acc.degraded += 1;
            } else {
                acc.measured += 1;
            }
        }
        acc
    }

    /// [`ErrorMap::accounting_with`] for a single-beacon estimator
    /// (the paper's centroid method): no point can be degraded, so the
    /// channels reduce to measured / unheard / dropped.
    pub fn accounting(&self) -> SurveyAccounting {
        self.accounting_with(1)
    }

    /// Mean localization error over all measured points — the statistic of
    /// Figures 4 and 6.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded (only possible with
    /// [`UnheardPolicy::Exclude`] and an unheard terrain).
    pub fn mean_error(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for e in self.valid_errors() {
            sum += e;
            n += 1;
        }
        assert!(n > 0, "no valid measurements in error map");
        sum / n as f64
    }

    /// Median localization error over all measured points (R-7
    /// interpolation, matching [`abp_stats::median`]), computed by
    /// selection in `O(points)` — the improvement experiments call this in
    /// their inner loop.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded.
    pub fn median_error(&self) -> f64 {
        self.median_error_with(&mut Vec::new())
    }

    /// [`ErrorMap::median_error`] into a caller-provided selection
    /// workspace: the same R-7 selection, bit-identical result, but the
    /// collected values live in `workspace` (cleared, then refilled) so a
    /// scratch-reusing caller pays no allocation after the first call.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded.
    pub fn median_error_with(&self, workspace: &mut Vec<f64>) -> f64 {
        workspace.clear();
        workspace.extend(self.valid_errors());
        assert!(!workspace.is_empty(), "no valid measurements in error map");
        let n = workspace.len();
        let k2 = n / 2;
        let (left, mid, _) =
            workspace.select_nth_unstable_by(k2, |a, b| a.partial_cmp(b).expect("no NaN here"));
        let hi = *mid;
        if n % 2 == 1 {
            hi
        } else {
            let lo = left.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo + hi) * 0.5
        }
    }

    /// Full descriptive statistics of the valid errors.
    ///
    /// # Panics
    ///
    /// Panics if every point is excluded.
    pub fn summary(&self) -> Summary {
        Summary::from_iter(self.valid_errors())
    }

    /// The lattice point with the highest measured error — Step 3 of the
    /// paper's Max algorithm. Ties break toward the first point in
    /// row-major order (deterministic). `None` if every point is excluded.
    pub fn max_error_point(&self) -> Option<(LatticeIndex, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (flat, &e) in self.errors.iter().enumerate() {
            if e.is_nan() {
                continue;
            }
            if best.map_or(true, |(_, be)| e > be) {
                best = Some((flat, e));
            }
        }
        best.map(|(flat, e)| (self.lattice.unflat(flat), e))
    }

    /// Cumulative (summed) error over the lattice points inside `rect` —
    /// Step 4 of the paper's Grid algorithm (`S(i, j)`). Excluded points
    /// contribute nothing.
    ///
    /// Summation association is fixed and documented: each lattice row's
    /// errors are summed left-to-right into a row subtotal, and the row
    /// subtotals are added bottom-to-top. The Grid scorers in
    /// `abp-placement` (the banded `GridPlacement::cumulative_errors` and
    /// the incremental scorer) share exactly those row subtotals among
    /// overlapping grids, so their scores are bit-identical to this
    /// function's, which stays their reference.
    pub fn cumulative_error_in(&self, rect: &Rect) -> f64 {
        let mut total = 0.0;
        let lattice = self.lattice;
        let mut row = u32::MAX;
        let mut row_sum = 0.0;
        lattice.for_each_in_rect(rect, |ix, _| {
            if ix.j != row {
                total += row_sum;
                row_sum = 0.0;
                row = ix.j;
            }
            let e = self.errors[lattice.flat(ix)];
            if !e.is_nan() {
                row_sum += e;
            }
        });
        total + row_sum
    }

    /// The row subtotal this map's [`ErrorMap::cumulative_error_in`]
    /// association uses: valid errors of row `j`, columns `i_lo..=i_hi`,
    /// summed left-to-right. Exposed for the Grid scorers.
    pub fn row_error_sum(&self, j: u32, i_lo: u32, i_hi: u32) -> f64 {
        let per_side = self.lattice.per_side() as usize;
        let base = j as usize * per_side;
        let mut sum = 0.0;
        for i in i_lo..=i_hi {
            let e = self.errors[base + i as usize];
            if !e.is_nan() {
                sum += e;
            }
        }
        sum
    }
}

/// Where the survey kernel reports one beacon's heard points: whole
/// runs of the guaranteed core, and annulus points one by one with their
/// decision. `row` is the lattice-global flat offset of `(0, j)`
/// ([`Lattice::flat`]).
pub(crate) trait HeardSink {
    /// Every point of row `j` in columns `a..=b` hears the beacon.
    fn run(&mut self, row: usize, j: u32, a: u32, b: u32);
    /// The annulus point `(i, j)` hears the beacon iff `heard`.
    fn ring(&mut self, row: usize, j: u32, i: u32, heard: bool);
}

/// Lattice columns of one beacon's disk whose speckle column hash the
/// kernel caches on the stack; a wider disk (a fine step) hashes the
/// column per point instead.
const COLUMN_CACHE: usize = 128;

/// The survey kernel every sweep and incremental update shares: walks
/// `beacon`'s `max_range` disk within rows `j_lo..=j_hi` row by row and
/// reports its heard points to `sink`; returns the number of points
/// visited.
///
/// The model's [`link`](Propagation::link) rule is fetched once per
/// beacon. In each row the disk is the exact span
/// [`Lattice::disk_row_span`]; the guaranteed core inside it is the
/// contiguous run where `distance_squared <= g * g` (found by scanning
/// the span's edges, valid because `d²` is valley-shaped along a row) and
/// goes to the sink as one run. The remaining annulus points are decided
/// by the link's [`Annulus`] rule: none heard for `Empty`; the speckle
/// draw from a per-beacon cache of column hashes for `Speckle`; a
/// `connected` call for `Ask`. The link contract makes every decision
/// equal `connected`, so the heard sets are those of
/// [`ErrorMap::survey_point_major`].
pub(crate) fn for_each_heard_run(
    lattice: &Lattice,
    beacon: &Beacon,
    model: &dyn Propagation,
    j_lo: u32,
    j_hi: u32,
    sink: &mut impl HeardSink,
) -> u64 {
    let (tx, pos) = (beacon.tx(), beacon.pos());
    let reach = model.max_range(tx, pos);
    let Some((lo, hi)) = lattice.cover_span(pos.y - reach, pos.y + reach) else {
        return 0;
    };
    let (lo, hi) = (lo.max(j_lo), hi.min(j_hi));
    if lo > hi {
        return 0;
    }
    let link = model.link(tx, pos);
    let g2 = link.core.map_or(f64::NEG_INFINITY, |g| g * g);
    let step = lattice.step();
    let per_side = lattice.per_side() as usize;
    let disk = Disk::new(pos, reach);

    let mut cache = [0u64; COLUMN_CACHE];
    let (mut first_col, mut cached) = (0u32, 0usize);
    if let Annulus::Speckle(s) = &link.annulus {
        if let Some((a, b)) = lattice.cover_span(pos.x - reach, pos.x + reach) {
            let width = (b - a + 1) as usize;
            if width <= COLUMN_CACHE {
                (first_col, cached) = (a, width);
                for (i, h) in (a..=b).zip(&mut cache) {
                    *h = s.key.column(i as f64 * step);
                }
            }
        }
    }
    let columns = &cache[..cached];

    let mut visited = 0u64;
    for j in lo..=hi {
        let Some((a, b)) = lattice.disk_row_span(disk, j) else {
            continue;
        };
        visited += u64::from(b - a + 1);
        let y = j as f64 * step;
        let dy2 = (y - pos.y) * (y - pos.y);
        // `pos.distance_squared(p)`'s bits: (x - c)² == (c - x)².
        let d2 = |i: u32| {
            let dx = i as f64 * step - pos.x;
            dx * dx + dy2
        };
        let core = |i: u32| d2(i) <= g2;
        let row = j as usize * per_side;
        // Core run [ca, cb]; the annulus is [a, ca) and (cb, b].
        let mut ca = a;
        while ca <= b && !core(ca) {
            ca += 1;
        }
        let mut cb = b;
        if ca <= b {
            while !core(cb) {
                cb -= 1;
            }
            sink.run(row, j, ca, cb);
        }
        let rings = [(a, ca), (cb + 1, b + 1)];
        match link.annulus {
            Annulus::Empty => {}
            Annulus::Speckle(s) => {
                for (from, to) in rings {
                    for i in from..to {
                        let column = match columns.get(i.wrapping_sub(first_col) as usize) {
                            Some(&h) => h,
                            None => s.key.column(i as f64 * step),
                        };
                        sink.ring(row, j, i, s.hears(column, y, d2(i)));
                    }
                }
            }
            Annulus::Ask => {
                for (from, to) in rings {
                    for i in from..to {
                        let p = Point::new(i as f64 * step, y);
                        sink.ring(row, j, i, model.connected(tx, pos, p));
                    }
                }
            }
        }
    }
    visited
}

/// A run of whole lattice rows `j_lo..=j_hi` and the grid slices that
/// cover them (band-local: index `flat - j_lo * per_side`).
pub(crate) struct Band<'a> {
    j_lo: u32,
    j_hi: u32,
    sum_x: &'a mut [f64],
    sum_y: &'a mut [f64],
    count: &'a mut [u32],
    errors: &'a mut [f64],
}

/// One band's share of a single-beacon update.
#[derive(Debug, Clone, Copy, Default)]
struct BandUpdate {
    visited: u64,
    touched: usize,
    bounds: Option<(LatticeIndex, LatticeIndex)>,
}

impl<'a> Band<'a> {
    /// One band over every row of `lattice`'s full-size grids.
    pub(crate) fn whole(
        lattice: &Lattice,
        sum_x: &'a mut [f64],
        sum_y: &'a mut [f64],
        count: &'a mut [u32],
        errors: &'a mut [f64],
    ) -> Self {
        Band {
            j_lo: 0,
            j_hi: lattice.per_side() - 1,
            sum_x,
            sum_y,
            count,
            errors,
        }
    }

    /// Splits full-lattice grids into disjoint bands, one per
    /// `(first_row, rows)` entry (ascending, non-overlapping).
    fn split(
        per_side: usize,
        bands: &[(usize, usize)],
        sum_x: &'a mut [f64],
        sum_y: &'a mut [f64],
        count: &'a mut [u32],
        errors: &'a mut [f64],
    ) -> Vec<Band<'a>> {
        fn carve<'s, T>(rest: &mut &'s mut [T], skip: usize, len: usize) -> &'s mut [T] {
            let (head, tail) = std::mem::take(rest)[skip..].split_at_mut(len);
            *rest = tail;
            head
        }
        let (mut rx, mut ry, mut rc, mut re) = (sum_x, sum_y, count, errors);
        let mut consumed = 0usize;
        let mut out = Vec::with_capacity(bands.len());
        for &(first, rows) in bands {
            let (skip, len) = (first * per_side - consumed, rows * per_side);
            consumed = (first + rows) * per_side;
            out.push(Band {
                j_lo: first as u32,
                j_hi: (first + rows - 1) as u32,
                sum_x: carve(&mut rx, skip, len),
                sum_y: carve(&mut ry, skip, len),
                count: carve(&mut rc, skip, len),
                errors: carve(&mut re, skip, len),
            });
        }
        out
    }

    /// Accumulates every beacon of `field`, in insertion order, into
    /// this band's rows (no error derivation); returns points visited.
    pub(crate) fn sweep(
        &mut self,
        lattice: &Lattice,
        field: &BeaconField,
        model: &dyn Propagation,
    ) -> u64 {
        let base = self.j_lo as usize * lattice.per_side() as usize;
        let mut visited = 0u64;
        for b in field {
            let mut fold = Fold {
                base,
                bx: b.pos().x.to_bits(),
                by: b.pos().y.to_bits(),
                sum_x: self.sum_x,
                sum_y: self.sum_y,
                count: self.count,
            };
            visited += for_each_heard_run(lattice, b, model, self.j_lo, self.j_hi, &mut fold);
        }
        visited
    }

    /// Adds (or removes) one beacon's contribution to this band's rows
    /// and re-derives the errors of the points it touched.
    fn update(
        &mut self,
        lattice: &Lattice,
        policy: UnheardPolicy,
        beacon: &Beacon,
        model: &dyn Propagation,
        add: bool,
    ) -> BandUpdate {
        let (j_lo, j_hi) = (self.j_lo, self.j_hi);
        let mut update = Update {
            lattice,
            policy,
            base: j_lo as usize * lattice.per_side() as usize,
            bx: beacon.pos().x,
            by: beacon.pos().y,
            add,
            band: self,
            touched: 0,
            bounds: None,
        };
        let visited = for_each_heard_run(lattice, beacon, model, j_lo, j_hi, &mut update);
        BandUpdate {
            visited,
            touched: update.touched,
            bounds: update.bounds,
        }
    }
}

/// The sweep's sink: adds one beacon's coordinates (as bits) to the
/// accumulators of the points that hear it.
///
/// A core run is a zipped slice loop the compiler vectorises. An annulus
/// point adds `bx` when heard and `-0.0` when not, selected by a mask
/// rather than a branch (the decision is a coin flip there). `-0.0` is
/// the identity of IEEE addition — `x + -0.0 == x` bit for bit for every
/// `x`, `+0.0` and `-0.0` included — so an unheard point's sums keep
/// their bits.
struct Fold<'s> {
    base: usize,
    bx: u64,
    by: u64,
    sum_x: &'s mut [f64],
    sum_y: &'s mut [f64],
    count: &'s mut [u32],
}

impl HeardSink for Fold<'_> {
    #[inline]
    fn run(&mut self, row: usize, _j: u32, a: u32, b: u32) {
        let lo = row + a as usize - self.base;
        let hi = row + b as usize + 1 - self.base;
        let (bx, by) = (f64::from_bits(self.bx), f64::from_bits(self.by));
        let sums = self.sum_x[lo..hi].iter_mut().zip(&mut self.sum_y[lo..hi]);
        for ((sx, sy), c) in sums.zip(&mut self.count[lo..hi]) {
            *sx += bx;
            *sy += by;
            *c += 1;
        }
    }

    #[inline]
    fn ring(&mut self, row: usize, _j: u32, i: u32, heard: bool) {
        const NEG_ZERO: u64 = 0x8000_0000_0000_0000;
        let off = row + i as usize - self.base;
        // All ones when heard, zero when not. Without the black box LLVM
        // turns the select back into a branch.
        let keep = std::hint::black_box(0u64.wrapping_sub(u64::from(heard)));
        self.sum_x[off] += f64::from_bits(self.bx & keep | NEG_ZERO & !keep);
        self.sum_y[off] += f64::from_bits(self.by & keep | NEG_ZERO & !keep);
        self.count[off] += u32::from(heard);
    }
}

/// The incremental update's sink: adds or removes one beacon at each
/// point that hears it and re-derives that point's error.
struct Update<'s, 'a> {
    lattice: &'s Lattice,
    policy: UnheardPolicy,
    base: usize,
    bx: f64,
    by: f64,
    add: bool,
    band: &'s mut Band<'a>,
    touched: usize,
    bounds: Option<(LatticeIndex, LatticeIndex)>,
}

impl Update<'_, '_> {
    fn touch(&mut self, flat: usize) {
        let off = flat - self.base;
        let band = &mut *self.band;
        if self.add {
            band.sum_x[off] += self.bx;
            band.sum_y[off] += self.by;
            band.count[off] += 1;
        } else {
            debug_assert!(band.count[off] > 0, "removing unaccounted beacon");
            band.sum_x[off] -= self.bx;
            band.sum_y[off] -= self.by;
            band.count[off] -= 1;
        }
        band.errors[off] = derive_error_at(
            self.lattice,
            self.policy,
            flat,
            band.sum_x[off],
            band.sum_y[off],
            band.count[off],
        );
        self.touched += 1;
    }
}

impl HeardSink for Update<'_, '_> {
    fn run(&mut self, row: usize, j: u32, a: u32, b: u32) {
        for i in a..=b {
            self.touch(row + i as usize);
        }
        ErrorMap::grow_bounds(&mut self.bounds, LatticeIndex::new(a, j));
        ErrorMap::grow_bounds(&mut self.bounds, LatticeIndex::new(b, j));
    }

    fn ring(&mut self, row: usize, j: u32, i: u32, heard: bool) {
        if heard {
            self.touch(row + i as usize);
            ErrorMap::grow_bounds(&mut self.bounds, LatticeIndex::new(i, j));
        }
    }
}

/// Derives one lattice point's localization error from its accumulator
/// values — the exact arithmetic of `ErrorMap::derive_error`, exposed as
/// a free function so survey tiles (which hold band-local slices, not a
/// finished map) derive errors in the same pass that sweeps them.
pub(crate) fn derive_error_at(
    lattice: &Lattice,
    policy: UnheardPolicy,
    flat: usize,
    sum_x: f64,
    sum_y: f64,
    count: u32,
) -> f64 {
    let p = lattice.point(lattice.unflat(flat));
    let estimate = if count > 0 {
        let inv = 1.0 / count as f64;
        Some(Point::new(sum_x * inv, sum_y * inv))
    } else {
        policy.estimate(lattice.terrain())
    };
    match estimate {
        Some(est) => est.distance(p),
        None => f64::NAN,
    }
}

impl fmt::Display for ErrorMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error map over {} ({} valid, {} unheard)",
            self.lattice,
            self.valid_count(),
            self.unheard_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_geom::Terrain;
    use abp_localize::CentroidLocalizer;
    use abp_radio::{IdealDisk, PerBeaconNoise};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn terrain() -> Terrain {
        Terrain::square(100.0)
    }

    fn lattice(step: f64) -> Lattice {
        Lattice::new(terrain(), step)
    }

    #[test]
    fn empty_field_policy_estimates() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        // Every point estimated at (50, 50): corner error = 50*sqrt(2).
        let corner = map.error_at(LatticeIndex::new(0, 0)).unwrap();
        assert!((corner - 50.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
        let center = map.error_at(lat.nearest(Point::new(50.0, 50.0))).unwrap();
        assert_eq!(center, 0.0);
        assert_eq!(map.unheard_count(), map.len());
    }

    #[test]
    fn exclude_policy_drops_unheard() {
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(50.0, 50.0)]);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Exclude);
        assert!(map.valid_count() > 0);
        assert!(map.valid_count() < map.len());
        assert_eq!(map.valid_count() + map.unheard_count(), map.len());
        assert!(map.error_at(LatticeIndex::new(0, 0)).is_none());
    }

    #[test]
    fn survey_matches_localizer_reference() {
        let lat = lattice(5.0);
        let mut rng = StdRng::seed_from_u64(7);
        let field = BeaconField::random_uniform(40, terrain(), &mut rng);
        for noise in [0.0, 0.3] {
            let model = PerBeaconNoise::new(15.0, noise, 13);
            let fast = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Exclude);
            let slow = ErrorMap::survey_with_localizer(
                &lat,
                &field,
                &model,
                &CentroidLocalizer::new(UnheardPolicy::Exclude),
            );
            for ix in lat.indices() {
                let a = fast.error_at(ix);
                let b = slow.error_at(ix);
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{ix}: {x} vs {y}"),
                    _ => panic!("validity mismatch at {ix}: {a:?} vs {b:?}"),
                }
                assert_eq!(fast.heard_at(ix), slow.heard_at(ix), "heard at {ix}");
            }
        }
    }

    /// Bitwise map comparison: every accumulator and error identical to
    /// the bit (NaN-safe via to_bits).
    fn assert_bit_identical(a: &ErrorMap, b: &ErrorMap, label: &str) {
        let (ax, ay, ac, ae) = a.parts();
        let (bx, by, bc, be) = b.parts();
        assert_eq!(ac, bc, "{label}: heard counts differ");
        for flat in 0..a.len() {
            assert_eq!(
                ax[flat].to_bits(),
                bx[flat].to_bits(),
                "{label}: sum_x at {flat}"
            );
            assert_eq!(
                ay[flat].to_bits(),
                by[flat].to_bits(),
                "{label}: sum_y at {flat}"
            );
            assert_eq!(
                ae[flat].to_bits(),
                be[flat].to_bits(),
                "{label}: error at {flat}"
            );
        }
    }

    #[test]
    fn survey_matches_point_major_oracle_at_any_thread_count() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let field = BeaconField::random_uniform(60, terrain(), &mut rng);
        let mut scratch = crate::SurveyScratch::new();
        let ideal = IdealDisk::new(15.0);
        for noise in [0.0, 0.4] {
            let noisy = PerBeaconNoise::new(15.0, noise, 5);
            for model in [&ideal as &dyn Propagation, &noisy] {
                for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
                    let oracle = ErrorMap::survey_point_major(&lat, &field, model, policy);
                    let fresh = ErrorMap::survey(&lat, &field, model, policy);
                    assert_bit_identical(&oracle, &fresh, "fresh survey vs point-major");
                    // More workers than cores is fine: oversubscription
                    // changes only scheduling, never bits.
                    for threads in [1usize, 2, 3, 4] {
                        let map = ErrorMap::survey_with(
                            &lat,
                            &field,
                            model,
                            policy,
                            &mut scratch,
                            threads,
                        );
                        assert_bit_identical(&oracle, &map, &format!("{threads}-thread survey"));
                        scratch.recycle(map);
                    }
                }
            }
        }
    }

    /// A beacon on a lattice point whose range is a whole number of
    /// steps, at a step that is not a binary fraction: boundary points
    /// sit exactly `R` away and `connected` hears them. The sweep and the
    /// incremental update must visit them too (a slab rounded the wrong
    /// way once dropped the point straight above the beacon).
    #[test]
    fn survey_hears_exact_boundary_points_at_an_inexact_step() {
        let step = 100.0 / 33.0;
        let lat = lattice(step);
        let beacon = Point::new(23.0 * step, 31.0 * step);
        let field = BeaconField::from_positions(terrain(), [beacon]);
        let ideal = IdealDisk::new(12.0 * step);
        let policy = UnheardPolicy::TerrainCenter;
        let oracle = ErrorMap::survey_point_major(&lat, &field, &ideal, policy);
        assert_eq!(oracle.heard_at(LatticeIndex::new(23, 19)), 1);
        let swept = ErrorMap::survey(&lat, &field, &ideal, policy);
        assert_bit_identical(&oracle, &swept, "sweep at an inexact step");
        let mut added = ErrorMap::survey(&lat, &BeaconField::new(terrain()), &ideal, policy);
        added.add_beacon(&field.beacons()[0], &ideal);
        assert_bit_identical(&oracle, &added, "add_beacon at an inexact step");
    }

    /// The banded pass on an empty field: every band sweeps nothing and
    /// still derives its policy errors.
    #[test]
    fn tiled_survey_handles_empty_field() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let mut scratch = crate::SurveyScratch::new();
        let oracle =
            ErrorMap::survey_point_major(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let tiled = ErrorMap::survey_with(
            &lat,
            &field,
            &model,
            UnheardPolicy::TerrainCenter,
            &mut scratch,
            4,
        );
        assert_bit_identical(&oracle, &tiled, "empty field tiled");
    }

    /// The link rule replaces `connected` calls without changing a bit:
    /// neither the ideal disk nor the noisy model asks `connected` at
    /// all, and both maps equal the same model's survey with the rule
    /// withheld (`Link::ASK`, a `connected` call per point).
    #[test]
    fn link_rule_skips_connected_calls() {
        use std::sync::atomic::AtomicUsize;
        struct Counting<'a> {
            inner: &'a dyn Propagation,
            calls: AtomicUsize,
            guarantee: bool,
        }
        impl Propagation for Counting<'_> {
            fn connected(&self, tx: abp_radio::TxId, p: Point, rx: Point) -> bool {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.connected(tx, p, rx)
            }
            fn max_range(&self, tx: abp_radio::TxId, p: Point) -> f64 {
                self.inner.max_range(tx, p)
            }
            fn nominal_range(&self) -> f64 {
                self.inner.nominal_range()
            }
            fn link(&self, tx: abp_radio::TxId, p: Point) -> abp_radio::Link {
                if self.guarantee {
                    self.inner.link(tx, p)
                } else {
                    abp_radio::Link::ASK
                }
            }
        }
        let lat = lattice(1.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(50.0, 50.0)]);
        let ideal = IdealDisk::new(15.0);
        let noisy = PerBeaconNoise::new(15.0, 0.5, 3);
        for model in [&ideal as &dyn Propagation, &noisy] {
            let with = Counting {
                inner: model,
                calls: AtomicUsize::new(0),
                guarantee: true,
            };
            let without = Counting {
                guarantee: false,
                calls: AtomicUsize::new(0),
                ..with
            };
            let policy = UnheardPolicy::TerrainCenter;
            let a = ErrorMap::survey(&lat, &field, &with, policy);
            let b = ErrorMap::survey(&lat, &field, &without, policy);
            assert_bit_identical(&a, &b, "with vs without the link rule");
            let (with_calls, without_calls) = (
                with.calls.load(Ordering::Relaxed),
                without.calls.load(Ordering::Relaxed),
            );
            assert_eq!(with_calls, 0);
            assert!(
                with_calls < without_calls,
                "{with_calls} vs {without_calls}"
            );
        }
    }

    /// The sweep folds an unheard annulus point as `+ -0.0`: the identity
    /// of IEEE addition, bit for bit, for every accumulator value.
    #[test]
    fn adding_negative_zero_keeps_every_bit() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -2.5e-300,
        ];
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            h = abp_geom::splitmix64(h);
            let x = f64::from_bits(h);
            if !x.is_nan() {
                values.push(x);
            }
        }
        for x in values {
            assert_eq!((x + -0.0).to_bits(), x.to_bits(), "{x:e}");
        }
        // `+0.0` is not an identity: it turns -0.0 into +0.0.
        assert_ne!((-0.0f64 + 0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn threaded_incremental_updates_match_sequential() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(31);
        for noise in [0.0, 0.3] {
            let mut field = BeaconField::random_uniform(25, terrain(), &mut rng);
            let model = PerBeaconNoise::new(15.0, noise, 8);
            let seq0 = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
            let mut seq = seq0.clone();
            let mut par = seq0.clone();
            let id = field.add_beacon(Point::new(41.0, 59.0));
            let beacon = *field.get(id).unwrap();
            let d_seq = seq.add_beacon(&beacon, &model);
            let d_par = par.add_beacon_threaded(&beacon, &model, 4);
            assert_eq!(d_seq, d_par, "add deltas (noise {noise})");
            assert_bit_identical(&seq, &par, "threaded add");
            let r_seq = seq.remove_beacon(&beacon, &model);
            let r_par = par.remove_beacon_threaded(&beacon, &model, 3);
            assert_eq!(r_seq, r_par, "remove deltas (noise {noise})");
            assert_bit_identical(&seq, &par, "threaded remove");
        }
    }

    /// A beacon whose disk misses the lattice entirely: both paths must
    /// report an empty delta and change nothing.
    #[test]
    fn threaded_incremental_empty_reach_is_a_noop() {
        let lat = lattice(10.0);
        let mut rng = StdRng::seed_from_u64(37);
        let field = BeaconField::random_uniform(5, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        // A probe far below the terrain: its whole disk misses the
        // lattice rows, so the banded path takes the empty-span exit.
        let probe = Beacon::new(abp_field::BeaconId(999), Point::new(5.0, -50.0));
        let mut map = before.clone();
        let delta = map.add_beacon_threaded(&probe, &model, 4);
        assert!(delta.is_empty());
        assert_eq!(delta.touched, 0);
        assert_bit_identical(&before, &map, "out-of-reach add");
    }

    #[test]
    fn add_beacon_delta_bounds_changed_region() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(23);
        let mut field = BeaconField::random_uniform(20, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(40.0, 60.0));
        let beacon = *field.get(id).unwrap();
        let mut map = before.clone();
        let delta = map.add_beacon(&beacon, &model);
        assert!(!delta.is_empty());
        assert!(delta.touched > 0);
        // Every point whose error changed lies inside the delta's box.
        for ix in lat.indices() {
            let changed = map.error_at(ix) != before.error_at(ix);
            if changed {
                assert!(delta.contains(ix), "changed point {ix} outside delta");
            }
        }
        // And the box is tight to the beacon's reach.
        let (lo, hi) = delta.changed.unwrap();
        let r = model.max_range(beacon.tx(), beacon.pos());
        assert!(lat.point(lo).distance(beacon.pos()) <= r * 2.0_f64.sqrt() + 1e-9);
        assert!(lat.point(hi).distance(beacon.pos()) <= r * 2.0_f64.sqrt() + 1e-9);
    }

    #[test]
    fn kill_beacon_inverts_add_and_reports_same_region() {
        let lat = lattice(4.0);
        let mut rng = StdRng::seed_from_u64(29);
        let mut field = BeaconField::random_uniform(15, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(70.0, 30.0));
        let beacon = *field.get(id).unwrap();
        let mut map = before.clone();
        let added = map.add_beacon(&beacon, &model);
        let killed = map.kill_beacon(&beacon, &model);
        assert_eq!(added.changed, killed.changed);
        assert_eq!(added.touched, killed.touched);
        for ix in lat.indices() {
            assert_eq!(map.heard_at(ix), before.heard_at(ix));
        }
    }

    #[test]
    fn row_error_sum_matches_cumulative_association() {
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(30.0, 30.0)]);
        let model = IdealDisk::new(25.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let rect = Rect::new(Point::new(5.0, 15.0), Point::new(75.0, 85.0));
        let (i_lo, i_hi) = lat.index_span(rect.min().x, rect.max().x).unwrap();
        let (j_lo, j_hi) = lat.index_span(rect.min().y, rect.max().y).unwrap();
        let mut total = 0.0;
        for j in j_lo..=j_hi {
            total += map.row_error_sum(j, i_lo, i_hi);
        }
        assert_eq!(
            total.to_bits(),
            map.cumulative_error_in(&rect).to_bits(),
            "row-sum association must reproduce cumulative_error_in exactly"
        );
    }

    #[test]
    fn incremental_add_equals_full_resurvey() {
        let lat = lattice(2.0);
        let mut rng = StdRng::seed_from_u64(3);
        for noise in [0.0, 0.5] {
            let mut field = BeaconField::random_uniform(30, terrain(), &mut rng);
            let model = PerBeaconNoise::new(15.0, noise, 21);
            let mut map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
            // Add a beacon both ways.
            let id = field.add_beacon(Point::new(33.3, 66.6));
            let beacon = *field.get(id).unwrap();
            map.add_beacon(&beacon, &model);
            let full = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
            for ix in lat.indices() {
                assert_eq!(map.heard_at(ix), full.heard_at(ix));
                let (a, b) = (map.error_at(ix).unwrap(), full.error_at(ix).unwrap());
                assert!((a - b).abs() < 1e-9, "{ix}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn incremental_remove_inverts_add() {
        let lat = lattice(4.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut field = BeaconField::random_uniform(20, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(20.0, 80.0));
        let beacon = *field.get(id).unwrap();
        let mut map = before.clone();
        map.add_beacon(&beacon, &model);
        map.remove_beacon(&beacon, &model);
        for ix in lat.indices() {
            assert_eq!(map.heard_at(ix), before.heard_at(ix));
            let (a, b) = (map.error_at(ix).unwrap(), before.error_at(ix).unwrap());
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn adding_a_beacon_never_reduces_heard_counts() {
        let lat = lattice(5.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut field = BeaconField::random_uniform(10, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let before = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(50.0, 50.0));
        let mut after = before.clone();
        after.add_beacon(field.get(id).unwrap(), &model);
        for ix in lat.indices() {
            assert!(after.heard_at(ix) >= before.heard_at(ix));
        }
    }

    #[test]
    fn mean_and_median_match_summary() {
        let lat = lattice(5.0);
        let mut rng = StdRng::seed_from_u64(5);
        let field = BeaconField::random_uniform(50, terrain(), &mut rng);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let s = map.summary();
        assert!((map.mean_error() - s.mean()).abs() < 1e-12);
        assert!((map.median_error() - s.median()).abs() < 1e-12);
        assert_eq!(map.valid_count(), s.len());
    }

    #[test]
    fn max_error_point_is_argmax() {
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Origin);
        let (ix, e) = map.max_error_point().unwrap();
        for other in lat.indices() {
            assert!(map.error_at(other).unwrap() <= e);
        }
        // With Origin policy the worst point is the far corner (100, 100).
        assert_eq!(ix, LatticeIndex::new(10, 10));
    }

    #[test]
    fn cumulative_error_in_rect_sums_members() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        let mut manual = 0.0;
        lat.for_each_in_rect(&rect, |ix, _| manual += map.error_at(ix).unwrap());
        assert!((map.cumulative_error_in(&rect) - manual).abs() < 1e-9);
        // Whole-terrain cumulative = mean * count.
        let whole = map.cumulative_error_in(&terrain().bounds());
        assert!((whole - map.mean_error() * map.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn localizer_survey_honors_unheard_policy() {
        // A single corner beacon leaves most of the terrain unheard; a
        // TerrainCenter localizer still estimates (50, 50) there, and the
        // map must reflect that — error and estimate both present,
        // mutually consistent, and counted by the statistics.
        let lat = lattice(10.0);
        let field = BeaconField::from_positions(terrain(), [Point::new(0.0, 0.0)]);
        let model = IdealDisk::new(15.0);
        let localizer = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        let map = ErrorMap::survey_with_localizer(&lat, &field, &model, &localizer);
        assert_eq!(map.policy(), UnheardPolicy::TerrainCenter);
        assert!(map.unheard_count() > 0);
        // Every point is valid under TerrainCenter.
        assert_eq!(map.valid_count(), map.len());
        let far = LatticeIndex::new(10, 10); // (100, 100): unheard corner
        assert_eq!(map.heard_at(far), 0);
        let est = map.estimate_at(far).expect("policy estimate must exist");
        assert_eq!(est, Point::new(50.0, 50.0));
        let err = map.error_at(far).expect("policy error must exist");
        assert!((err - est.distance(lat.point(far))).abs() < 1e-12);
        // And the whole map matches the beacon-major fast path, which has
        // always honored the policy.
        let fast = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::TerrainCenter);
        assert_eq!(fast.policy(), map.policy());
        for ix in lat.indices() {
            let (a, b) = (map.error_at(ix).unwrap(), fast.error_at(ix).unwrap());
            assert!((a - b).abs() < 1e-9, "{ix}: {a} vs {b}");
            assert_eq!(map.estimate_at(ix), fast.estimate_at(ix));
        }
    }

    #[test]
    #[should_panic(expected = "no valid measurements")]
    fn mean_panics_when_everything_excluded() {
        let lat = lattice(10.0);
        let field = BeaconField::new(terrain());
        let model = IdealDisk::new(15.0);
        let map = ErrorMap::survey(&lat, &field, &model, UnheardPolicy::Exclude);
        let _ = map.mean_error();
    }
}
