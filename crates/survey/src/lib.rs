//! Terrain exploration and measurement (paper §3).
//!
//! The paper's approach to adaptive placement is *empirical*: "a
//! GPS-equipped mobile robot or human ... can determine its geographic
//! position ... compute its localization estimate using the connectivity
//! based localization algorithm ... thus it has a means of computing the
//! localization error at any point on the terrain." This crate is that
//! instrumentation substrate:
//!
//! * [`SurveyPlan`] — the measurement lattice plus the order it is walked
//!   (boustrophedon, the natural sweep for a ground robot),
//! * [`Robot`] — the exploring agent: walks the plan, measures
//!   localization error (optionally through imperfect GPS), carries and
//!   deploys beacons, accounts for distance travelled,
//! * [`ErrorMap`] — the measured localization-error field the placement
//!   algorithms consume; built either by a [`Robot`] or directly by the
//!   fast beacon-major sweep ([`ErrorMap::survey`]), with an
//!   incremental-update path for re-surveying after a beacon is added.
//!
//! # Example
//!
//! ```
//! use abp_field::BeaconField;
//! use abp_geom::{Lattice, Point, Terrain};
//! use abp_localize::UnheardPolicy;
//! use abp_radio::IdealDisk;
//! use abp_survey::ErrorMap;
//!
//! let terrain = Terrain::square(100.0);
//! let lattice = Lattice::new(terrain, 5.0);
//! let field = BeaconField::from_positions(terrain, [Point::new(50.0, 50.0)]);
//! let map = ErrorMap::survey(&lattice, &field, &IdealDisk::new(15.0),
//!                            UnheardPolicy::TerrainCenter);
//! assert_eq!(map.len(), lattice.len());
//! assert!(map.mean_error() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod errormap;
pub mod plan;
pub mod render;
pub mod robot;
pub mod sampling;
pub mod scratch;
pub mod snapshot;
pub mod tiles;

pub use errormap::{ErrorMap, SurveyAccounting, SurveyDelta};
pub use plan::SurveyPlan;
pub use robot::{Robot, RobotReport};
pub use sampling::SubsampleStrategy;
pub use scratch::SurveyScratch;
pub use tiles::{resolve_survey_threads, row_bands};
