//! The banded Grid scorer against its per-rectangle reference.
//!
//! `GridPlacement::cumulative_errors` and `IncrementalGrid::new` share one
//! banded kernel that sums each lattice row of a grid column band once.
//! Every score must equal `ErrorMap::cumulative_error_in` over the grid's
//! rectangle bit for bit, and the linear-scan `propose` must pick the same
//! grid as the head of `propose_top_k`'s sorted order, ties included.

use abp_field::BeaconField;
use abp_geom::{Lattice, Point, Terrain};
use abp_localize::UnheardPolicy;
use abp_placement::{GridPlacement, IncrementalGrid, PlacementAlgorithm, SurveyView};
use abp_radio::{IdealDisk, PerBeaconNoise, Propagation};
use abp_survey::ErrorMap;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: f64 = 100.0;

fn terrain() -> Terrain {
    Terrain::square(SIDE)
}

fn propose(
    grid: &GridPlacement,
    map: &ErrorMap,
    field: &BeaconField,
    model: &dyn Propagation,
) -> Point {
    let view = SurveyView { map, field, model };
    grid.propose(&view, &mut StdRng::seed_from_u64(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn banded_scores_match_per_rect_sums_bitwise(
        step in 2.0..25.0f64,
        ng_pick in 0usize..5,
        range in 0.5..50.0f64,
        beacons in 0usize..60,
        seed in any::<u64>(),
        exclude in any::<bool>(),
        noisy in any::<bool>(),
    ) {
        // NG ∈ {1, 4, 16, 25, 400}.
        let per_side = [1u32, 2, 4, 5, 20][ng_pick];
        let lattice = Lattice::new(terrain(), step);
        let field = BeaconField::random_uniform(beacons, terrain(), &mut StdRng::seed_from_u64(seed));
        let policy = if exclude { UnheardPolicy::Exclude } else { UnheardPolicy::TerrainCenter };
        let model: Box<dyn Propagation> = if noisy {
            Box::new(PerBeaconNoise::new(range, 0.5, seed ^ 0x5EED))
        } else {
            Box::new(IdealDisk::new(range))
        };
        let map = ErrorMap::survey(&lattice, &field, model.as_ref(), policy);
        let grid = GridPlacement::new(terrain(), range, (per_side * per_side) as usize);

        let banded = grid.cumulative_errors(&map);
        let cached = IncrementalGrid::new(grid, &map);
        prop_assert_eq!(banded.len(), grid.num_grids());
        for j in 0..per_side {
            for i in 0..per_side {
                let flat = (j * per_side + i) as usize;
                let oracle = map.cumulative_error_in(&grid.grid_rect(i, j)).to_bits();
                prop_assert_eq!(banded[flat].to_bits(), oracle, "banded grid ({}, {})", i, j);
                prop_assert_eq!(cached.scores()[flat].to_bits(), oracle, "cached grid ({}, {})", i, j);
            }
        }
        prop_assert_eq!(
            propose(&grid, &map, &field, model.as_ref()),
            grid.propose_top_k(&map, 1)[0]
        );
    }
}

#[test]
fn all_excluded_map_ties_every_grid_and_picks_the_first() {
    // No beacons and unheard points excluded: every grid scores 0.0.
    let lattice = Lattice::new(terrain(), 5.0);
    let field = BeaconField::from_positions(terrain(), []);
    let model = IdealDisk::new(15.0);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
    let grid = GridPlacement::paper(terrain(), 15.0);
    assert!(grid.cumulative_errors(&map).iter().all(|&s| s == 0.0));

    let picked = propose(&grid, &map, &field, &model);
    assert_eq!(picked, grid.propose_top_k(&map, 1)[0]);
    assert_eq!(picked, grid.center(0, 0));
}

#[test]
fn translated_clusters_tie_at_the_top_and_the_lower_index_wins() {
    // Two beacons 50 m apart on a 5 m lattice, unheard points excluded.
    // Grid centers fall every 10 m, so grids (1, 1) and (6, 1) each hold
    // one beacon's whole disk and see the same errors in the same order.
    let lattice = Lattice::new(terrain(), 5.0);
    let field =
        BeaconField::from_positions(terrain(), [Point::new(20.0, 20.0), Point::new(70.0, 20.0)]);
    let model = IdealDisk::new(10.0);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
    let grid = GridPlacement::new(terrain(), 10.0, 81);

    let scores = grid.cumulative_errors(&map);
    let (left, right) = (9 + 1, 9 + 6);
    assert!(scores[left] > 0.0);
    assert_eq!(scores[left].to_bits(), scores[right].to_bits());
    assert!(scores.iter().all(|&s| s <= scores[left]));

    let picked = propose(&grid, &map, &field, &model);
    assert_eq!(picked, grid.propose_top_k(&map, 1)[0]);
    assert_eq!(picked, Point::new(20.0, 20.0));
}

#[test]
fn more_than_64_grid_rows_match_per_rect_sums_bitwise() {
    // 65 × 65 grids: more grid rows than the scorer keeps on the stack.
    let lattice = Lattice::new(terrain(), 3.0);
    let field = BeaconField::random_uniform(25, terrain(), &mut StdRng::seed_from_u64(65));
    let model = PerBeaconNoise::new(12.0, 0.4, 65);
    let map = ErrorMap::survey(&lattice, &field, &model, UnheardPolicy::Exclude);
    let grid = GridPlacement::new(terrain(), 12.0, 65 * 65);

    let banded = grid.cumulative_errors(&map);
    let cached = IncrementalGrid::new(grid, &map);
    for j in 0..65 {
        for i in 0..65 {
            let flat = (j * 65 + i) as usize;
            let oracle = map.cumulative_error_in(&grid.grid_rect(i, j)).to_bits();
            assert_eq!(banded[flat].to_bits(), oracle, "banded grid ({i}, {j})");
            assert_eq!(
                cached.scores()[flat].to_bits(),
                oracle,
                "cached grid ({i}, {j})"
            );
        }
    }
}
