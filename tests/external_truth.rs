//! A check of the survey against truth computed outside the workspace.
//!
//! Every other survey gate compares one crate path with another (fast ==
//! slow). This one does not: on a regular beacon grid of spacing `d`
//! under the ideal disk, the paper's centroid error field is the error
//! field of the *infinite* beacon lattice `{(k·d, l·d)}` wherever a
//! point's whole hearing disk lies inside the terrain — the setting of
//! Zhang & Herman's grid-localization analysis. That field is periodic
//! with period `d`, and at a lattice point `(a·s, b·s)` it is a finite
//! integer computation: which `(k, l)` satisfy
//! `(k·d − a·s)² + (l·d − b·s)² ≤ R²`, and the centroid of those. The
//! test derives it from integers alone — no crate connectivity, lattice
//! or survey code — and holds the surveyed map to it.

use abp_field::generate::uniform_grid;
use abp_geom::{Lattice, LatticeIndex, Terrain};
use abp_localize::UnheardPolicy;
use abp_radio::IdealDisk;
use abp_survey::ErrorMap;

const SIDE: i64 = 100;

/// One grid configuration, in integer units of `1 / scale` metres so a
/// fractional lattice step stays exact: beacon spacing `d`, lattice step
/// `s`, radio range `r`.
struct Case {
    scale: i64,
    d: i64,
    s: i64,
    r: i64,
}

impl Case {
    fn metres(&self, units: i64) -> f64 {
        units as f64 / self.scale as f64
    }

    /// `(heard, error)` at lattice point `(a, b)` for the infinite beacon
    /// lattice, computed from integers: the squared-distance test is
    /// exact in `i64`, and the centroid sums are exact integers too.
    fn infinite_lattice_error(&self, a: i64, b: i64) -> (u32, f64) {
        let (px, py) = (a * self.s, b * self.s);
        let reach = self.r / self.d + 1;
        let (k0, l0) = (px / self.d, py / self.d);
        let (mut n, mut sx, mut sy) = (0i64, 0i64, 0i64);
        for k in k0 - reach..=k0 + reach {
            for l in l0 - reach..=l0 + reach {
                let (dx, dy) = (k * self.d - px, l * self.d - py);
                if dx * dx + dy * dy <= self.r * self.r {
                    n += 1;
                    sx += k * self.d;
                    sy += l * self.d;
                }
            }
        }
        assert!(n > 0, "an interior point always hears a beacon");
        let ex = sx as f64 / n as f64 - px as f64;
        let ey = sy as f64 / n as f64 - py as f64;
        (n as u32, self.metres(1) * (ex * ex + ey * ey).sqrt())
    }
}

#[test]
fn survey_matches_the_infinite_beacon_lattice() {
    let cases = [
        // R/d = 1.5 on the paper's 1 m lattice.
        Case {
            scale: 1,
            d: 10,
            s: 1,
            r: 15,
        },
        // R/d = 0.8: points between beacons can hear a single one.
        Case {
            scale: 1,
            d: 20,
            s: 2,
            r: 16,
        },
        // A fractional step (2.5 m, exact in binary) and R/d = 2.4.
        Case {
            scale: 2,
            d: 20,
            s: 5,
            r: 24,
        },
    ];
    for case in &cases {
        let side = SIDE * case.scale;
        assert_eq!(side % case.d, 0, "the grid spans the terrain");
        assert_eq!(case.d % case.s, 0, "d is a multiple of the step");
        let terrain = Terrain::square(case.metres(side));
        let field = uniform_grid(terrain, (side / case.d + 1) as usize);
        let lattice = Lattice::new(terrain, case.metres(case.s));
        let model = IdealDisk::new(case.metres(case.r));
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);

        // Interior: at least R + d from every edge, in lattice units.
        let margin = (case.r + case.d + case.s - 1) / case.s;
        let period = case.d / case.s;
        let last = side / case.s;
        let interior = margin..=last - margin;
        assert!(
            interior.end() - interior.start() >= period,
            "the interior holds a full period"
        );
        let at = |a: i64, b: i64| LatticeIndex::new(a as u32, b as u32);
        let mut checked = 0;
        for a in interior.clone() {
            for b in interior.clone() {
                let here = map.error_at(at(a, b)).expect("interior points are heard");
                let (heard, truth) = case.infinite_lattice_error(a, b);
                assert_eq!(map.heard_at(at(a, b)), heard, "heard at ({a}, {b})");
                assert!(
                    (here - truth).abs() <= 1e-9,
                    "({a}, {b}): surveyed {here}, infinite lattice {truth}"
                );
                // Periodicity: the translate by one period along either
                // axis, when it stays interior, hears exactly as many
                // beacons and carries the same error. (Not the same
                // bits: the centroid division rounds at the translated
                // coordinates' magnitude, a few ulps apart.)
                for (ta, tb) in [(a + period, b), (a, b + period)] {
                    if interior.contains(&ta) && interior.contains(&tb) {
                        let there = map.error_at(at(ta, tb)).expect("interior");
                        assert_eq!(map.heard_at(at(a, b)), map.heard_at(at(ta, tb)));
                        assert!(
                            (here - there).abs() <= 1e-12,
                            "({a}, {b}) vs its translate ({ta}, {tb}): {here} vs {there}"
                        );
                    }
                }
                checked += 1;
            }
        }
        assert!(checked >= (period * period) as usize);
    }
}
