//! Property-based tests for the survey substrate.

use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::{CentroidLocalizer, Localizer, UnheardPolicy};
use abp_radio::{IdealDisk, Link, PerBeaconNoise, Propagation, TxId};
use abp_survey::snapshot::{decode, encode};
use abp_survey::{ErrorMap, Robot, SurveyPlan, SurveyScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 60.0;

fn terrain() -> Terrain {
    Terrain::square(SIDE)
}

fn setup(n: usize, seed: u64, noise: f64, step: f64) -> (Lattice, BeaconField, PerBeaconNoise) {
    let lattice = Lattice::new(terrain(), step);
    let field = BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
    let model = PerBeaconNoise::new(12.0, noise, seed ^ 0xABCD);
    (lattice, field, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn survey_agrees_with_point_localizer(
        n in 0usize..40, seed in any::<u64>(), noise in 0.0..0.6f64
    ) {
        let (lattice, field, model) = setup(n, seed, noise, 6.0);
        let fast = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let loc = CentroidLocalizer::new(UnheardPolicy::TerrainCenter);
        for ix in lattice.indices() {
            let p = lattice.point(ix);
            let fix = loc.localize(&field, &model, p);
            let expected = fix.error(p).unwrap();
            let got = fast.error_at(ix).unwrap();
            prop_assert!((got - expected).abs() < 1e-9, "{ix}: {got} vs {expected}");
            prop_assert_eq!(fast.heard_at(ix) as usize, fix.heard);
        }
    }

    #[test]
    fn incremental_add_equals_full_survey(
        n in 0usize..40, seed in any::<u64>(), noise in 0.0..0.6f64,
        bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let (lattice, mut field, model) = setup(n, seed, noise, 4.0);
        let mut incremental =
            ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(bx, by));
        incremental.add_beacon(field.get(id).unwrap(), &model);
        let full = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        for ix in lattice.indices() {
            prop_assert_eq!(incremental.heard_at(ix), full.heard_at(ix));
            let (a, b) = (incremental.error_at(ix).unwrap(), full.error_at(ix).unwrap());
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn add_then_remove_is_identity(
        n in 0usize..30, seed in any::<u64>(), bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let (lattice, mut field, model) = setup(n, seed, 0.3, 5.0);
        let baseline = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(bx, by));
        let beacon = *field.get(id).unwrap();
        let mut map = baseline.clone();
        map.add_beacon(&beacon, &model);
        map.remove_beacon(&beacon, &model);
        for ix in lattice.indices() {
            prop_assert_eq!(map.heard_at(ix), baseline.heard_at(ix));
            let (a, b) = (map.error_at(ix).unwrap(), baseline.error_at(ix).unwrap());
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn error_bounds_under_ideal_model(n in 1usize..50, seed in any::<u64>()) {
        let (lattice, field, _) = setup(n, seed, 0.0, 3.0);
        let model = IdealDisk::new(12.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
        for ix in lattice.indices() {
            if map.heard_at(ix) == 1 {
                // Exactly one heard beacon: the error is that beacon's
                // distance, bounded by R.
                prop_assert!(map.error_at(ix).unwrap() <= 12.0 + 1e-9);
            }
        }
    }

    #[test]
    fn statistics_are_consistent(n in 1usize..60, seed in any::<u64>(), noise in 0.0..0.6f64) {
        let (lattice, field, model) = setup(n.max(1), seed, noise, 4.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let s = map.summary();
        prop_assert!((map.mean_error() - s.mean()).abs() < 1e-9);
        prop_assert!((map.median_error() - s.median()).abs() < 1e-9);
        prop_assert!(s.min() >= 0.0);
        let (_, max_e) = map.max_error_point().unwrap();
        prop_assert!((max_e - s.max()).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrip(n in 0usize..40, seed in any::<u64>(), noise in 0.0..0.6f64) {
        let (lattice, field, model) = setup(n, seed, noise, 5.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let restored = decode(&encode(&map)).unwrap();
        prop_assert_eq!(&restored, &map);
    }

    #[test]
    fn robot_with_perfect_gps_matches_survey(n in 0usize..30, seed in any::<u64>()) {
        let (lattice, field, model) = setup(n, seed, 0.2, 6.0);
        let plan = SurveyPlan::from_lattice(lattice);
        let (robot_map, report) = Robot::new(0.0, 0, seed)
            .survey(&plan, &field, &model, UnheardPolicy::TerrainCenter);
        let fast = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        prop_assert_eq!(report.waypoints, lattice.len());
        for ix in lattice.indices() {
            let (a, b) = (robot_map.error_at(ix).unwrap(), fast.error_at(ix).unwrap());
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adding_beacons_weakly_improves_coverage(
        n in 0usize..30, seed in any::<u64>(), bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let (lattice, mut field, _) = setup(n, seed, 0.0, 4.0);
        let model = IdealDisk::new(12.0);
        let before = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let id = field.add_beacon(Point::new(bx, by));
        let mut after = before.clone();
        after.add_beacon(field.get(id).unwrap(), &model);
        prop_assert!(after.unheard_count() <= before.unheard_count());
    }
}

/// A sharp-disk model whose reach varies per beacon — even tx ids are
/// mute (reach 0), odd ids hear out to `range` — and whose whole disk is
/// its guaranteed range, so the survey decides every point through the
/// guarantee's inline test, including reach-0 disks.
#[derive(Debug, Clone, Copy)]
struct VariableDisk {
    range: f64,
}

impl Propagation for VariableDisk {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        let r = self.max_range(tx, tx_pos);
        // The guaranteed-range contract's squared form, verbatim.
        tx_pos.distance_squared(rx) <= r * r
    }
    fn max_range(&self, tx: TxId, _tx_pos: Point) -> f64 {
        if tx.0 % 2 == 0 {
            0.0
        } else {
            self.range
        }
    }
    fn nominal_range(&self) -> f64 {
        self.range
    }
    fn link(&self, tx: TxId, tx_pos: Point) -> Link {
        Link::disk(self.max_range(tx, tx_pos))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The scratch-reused production sweep hears exactly the beacon sets
    /// of the point-major oracle, bit for bit — on random fields, with
    /// mute (reach = 0) beacons, with noise (where the guaranteed core
    /// and `connected` split the disk), and with beacons snapped onto
    /// lattice points and exactly `range` away from one so
    /// distance² == range² lands on the `<=` boundary.
    #[test]
    fn scratch_sweep_matches_point_major_oracle(
        n in 0usize..40, seed in any::<u64>(),
        range in 0.5..20.0f64, step_ix in 0usize..3, noise in 0.0..0.9f64,
        bx in 0.0..SIDE, by in 0.0..SIDE
    ) {
        let step = [1.5, 3.0, 6.0][step_ix];
        let lattice = Lattice::new(terrain(), step);
        let mut field =
            BeaconField::random_uniform(n, terrain(), &mut StdRng::seed_from_u64(seed));
        let snapped = Point::new((bx / step).floor() * step, (by / step).floor() * step);
        field.add_beacon(snapped);
        if snapped.x + range <= SIDE {
            field.add_beacon(Point::new(snapped.x + range, snapped.y));
        }
        let ideal = IdealDisk::new(range);
        let variable = VariableDisk { range };
        let noisy = PerBeaconNoise::new(range, noise, seed);
        let mut scratch = SurveyScratch::new();
        for model in [&ideal as &dyn Propagation, &variable, &noisy] {
            for policy in [UnheardPolicy::TerrainCenter, UnheardPolicy::Exclude] {
                let oracle = ErrorMap::survey_point_major(&lattice, &field, &model, policy);
                let swept =
                    ErrorMap::survey_with(&lattice, &field, &model, policy, &mut scratch, 1);
                for ix in lattice.indices() {
                    prop_assert_eq!(swept.heard_at(ix), oracle.heard_at(ix));
                    prop_assert_eq!(
                        swept.error_at(ix).map(f64::to_bits),
                        oracle.error_at(ix).map(f64::to_bits)
                    );
                }
                scratch.recycle(swept);
            }
        }
    }

    /// The tile scheduler's row-band decomposition keeps every
    /// per-point accumulation self-contained, so the surveyed map is
    /// bit-identical at any worker count — under the ideal disk (all
    /// guaranteed) and per-beacon noise (guaranteed core plus
    /// `connected`).
    #[test]
    fn threaded_survey_bit_identical_at_any_thread_count(
        n in 0usize..30, seed in any::<u64>(), noise in 0.0..0.5f64,
        threads in 2usize..6
    ) {
        let (lattice, field, noisy) = setup(n, seed, noise, 4.0);
        let ideal = IdealDisk::new(12.0);
        for model in [&ideal as &dyn Propagation, &noisy] {
            let mut seq_scratch = SurveyScratch::new();
            let mut par_scratch = SurveyScratch::new();
            let seq = ErrorMap::survey_with(
                &lattice, &field, &model, UnheardPolicy::TerrainCenter, &mut seq_scratch, 1,
            );
            let par = ErrorMap::survey_with(
                &lattice, &field, &model, UnheardPolicy::TerrainCenter,
                &mut par_scratch, threads,
            );
            for ix in lattice.indices() {
                prop_assert_eq!(par.heard_at(ix), seq.heard_at(ix));
                prop_assert_eq!(
                    par.error_at(ix).map(f64::to_bits),
                    seq.error_at(ix).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn partial_survey_subset_of_full(
        n in 0usize..30, seed in any::<u64>(), fraction in 0.05..1.0f64
    ) {
        use abp_survey::sampling::{survey_partial, SubsampleStrategy};
        let (lattice, field, model) = setup(n, seed, 0.2, 6.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let partial = survey_partial(
            &lattice, &field, &model, UnheardPolicy::TerrainCenter,
            SubsampleStrategy::Random { fraction }, &mut rng,
        );
        let full = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let expected = ((lattice.len() as f64 * fraction).round() as usize).clamp(1, lattice.len());
        prop_assert_eq!(partial.valid_count(), expected);
        for ix in lattice.indices() {
            if let Some(e) = partial.error_at(ix) {
                prop_assert_eq!(e, full.error_at(ix).unwrap());
            }
        }
    }

    #[test]
    fn adaptive_survey_accounting_consistent(
        n in 0usize..30, seed in any::<u64>(), stride in 2u32..6, refine in 0.0..=1.0f64
    ) {
        use abp_survey::sampling::survey_adaptive;
        let (lattice, field, model) = setup(n, seed, 0.0, 4.0);
        let (map, report) = survey_adaptive(
            &lattice, &field, &model, UnheardPolicy::TerrainCenter, stride, refine,
        );
        prop_assert_eq!(
            map.valid_count(),
            report.coarse_measured + report.refined_measured
        );
        prop_assert!(report.measured_fraction > 0.0 && report.measured_fraction <= 1.0);
        // More refinement never measures less.
        let (_, fuller) = survey_adaptive(
            &lattice, &field, &model, UnheardPolicy::TerrainCenter, stride,
            (refine + 0.3).min(1.0),
        );
        prop_assert!(fuller.refined_measured >= report.refined_measured);
    }

    #[test]
    fn heatmap_renders_for_any_map(
        n in 0usize..30, seed in any::<u64>(), width in 2usize..100
    ) {
        use abp_survey::render::{render_heatmap, HeatmapOptions};
        let (lattice, field, model) = setup(n, seed, 0.3, 6.0);
        let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::TerrainCenter);
        let art = render_heatmap(&map, Some(&field), HeatmapOptions {
            width,
            scale_max: None,
            show_beacons: true,
        });
        let lines: Vec<&str> = art.lines().collect();
        prop_assert_eq!(lines.len(), (width / 2).max(1) + 1);
        for l in &lines[..lines.len() - 1] {
            prop_assert_eq!(l.len(), width);
            prop_assert!(l.is_ascii());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The row-run survey kernel, bit for bit against the point-major
    /// oracle, on lattices wider than its column-hash cache (at a 0.1 m
    /// step a noisy disk spans up to 451 columns and the lattice 241, so
    /// every column hash is computed per point) as well as narrower ones,
    /// under all three noise readings. The field mixes random beacons off
    /// the lattice, one on a lattice point, and three on the terrain's
    /// far edges, which lie beyond the lattice's last column and row
    /// (24.05 m side: the last lattice line is at 24.0 m). The last
    /// beacon is also added incrementally to a survey of the others.
    #[test]
    fn row_run_kernel_matches_point_major_oracle_past_the_column_cache(
        n in 0usize..5, seed in any::<u64>(), range in 4.0..15.0f64, noise in 0.0..0.99f64,
        step_ix in 0usize..3, style_ix in 0usize..3, ex in 0.0..24.05f64, ey in 0.0..24.05f64
    ) {
        use abp_radio::NoiseStyle;
        let side = 24.05;
        let step = [0.1, 0.35, 1.0][step_ix];
        let terrain = Terrain::square(side);
        let lattice = Lattice::new(terrain, step);
        let mut field = BeaconField::random_uniform(n, terrain, &mut StdRng::seed_from_u64(seed));
        field.add_beacon(Point::new((ex / step).floor() * step, (ey / step).floor() * step));
        field.add_beacon(Point::new(side, ey));
        field.add_beacon(Point::new(ex, side));
        let without_corner = field.clone();
        let corner_id = field.add_beacon(Point::new(side, side));
        let corner = *field.get(corner_id).expect("just added");
        let style =
            [NoiseStyle::Speckled, NoiseStyle::Lossy, NoiseStyle::CoherentRadius][style_ix];
        let model = PerBeaconNoise::with_style(range, noise, seed, style);
        let policy = UnheardPolicy::TerrainCenter;
        let oracle = ErrorMap::survey_point_major(&lattice, &field, &model, policy);
        let swept = ErrorMap::survey(&lattice, &field, &model, policy);
        let mut incremental = ErrorMap::survey(&lattice, &without_corner, &model, policy);
        incremental.add_beacon(&corner, &model);
        for ix in lattice.indices() {
            prop_assert_eq!(swept.heard_at(ix), oracle.heard_at(ix));
            prop_assert_eq!(incremental.heard_at(ix), oracle.heard_at(ix));
            let want = oracle.error_at(ix).map(f64::to_bits);
            prop_assert_eq!(swept.error_at(ix).map(f64::to_bits), want);
            prop_assert_eq!(incremental.error_at(ix).map(f64::to_bits), want);
        }
    }
}
