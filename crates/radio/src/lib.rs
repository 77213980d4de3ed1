//! Radio propagation models for the `beaconplace` workspace.
//!
//! Localization quality in the paper is governed entirely by *which beacons
//! a client can hear*, so the propagation model is the heart of the
//! simulation. This crate provides:
//!
//! * [`Propagation`] — the connectivity predicate every model implements,
//!   and its per-beacon [`Link`] rule (a guaranteed core plus an annulus
//!   decision, equal to `connected` point for point) that the survey
//!   kernel evaluates instead of a `connected` call per lattice point,
//! * [`IdealDisk`] — the paper's idealized radio model (§2.1): perfect
//!   spherical propagation, identical range `R` for all radios,
//! * [`PerBeaconNoise`] — the paper's noise model (§4.2.1): beacon `B`
//!   reaches point `P` iff `dist(P, B) <= R(1 + u·nf(B))` with a per-beacon
//!   noise factor `nf(B) ~ U[0, Noise]` and `u ~ U[-1, 1]` per
//!   (beacon, point), *static in time*,
//! * [`LogDistance`] — a log-distance path-loss model with deterministic
//!   log-normal shadowing (the "more sophisticated propagation model" of
//!   the paper's future work, §6),
//! * [`Obstructed`] — line-segment obstacles that attenuate any base model
//!   (terrain-commonality effects, §1 and §6),
//! * [`TimeVarying`] — epoch-indexed noise on top of any model (the
//!   time-varying propagation loss of §6),
//! * [`link`] — the packet-level connectivity procedure of §2.2 (beacons
//!   transmit every `T`, clients listen for `t >> T` and threshold the
//!   received fraction against `CMthresh`).
//!
//! All models are *deterministic*: randomness is derived from seeds via
//! hash fields ([`abp_geom::DeterministicField`]), so connectivity never
//! flickers between the before- and after-placement surveys — exactly the
//! paper's "location based and static with respect to time" property.
//!
//! # Example
//!
//! ```
//! use abp_geom::Point;
//! use abp_radio::{IdealDisk, PerBeaconNoise, Propagation, TxId};
//!
//! let ideal = IdealDisk::new(15.0);
//! let b = Point::new(0.0, 0.0);
//! assert!(ideal.connected(TxId(0), b, Point::new(15.0, 0.0)));
//! assert!(!ideal.connected(TxId(0), b, Point::new(15.1, 0.0)));
//!
//! // Noise 0.5, seeded: reachability beyond R(1 + nf) is impossible.
//! let noisy = PerBeaconNoise::new(15.0, 0.5, 42);
//! assert!(!noisy.connected(TxId(0), b, Point::new(23.0, 0.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ideal;
pub mod link;
pub mod metrics;
pub mod noise;
pub mod obstacles;
pub mod shadowing;
pub mod terrain;
pub mod timevarying;

pub use ideal::IdealDisk;
pub use link::{LinkObservation, MessageLink};
pub use noise::{NoiseStyle, PerBeaconNoise};
pub use obstacles::{Obstructed, Wall};
pub use shadowing::LogDistance;
pub use terrain::{HeightField, TerrainShadowed};
pub use timevarying::TimeVarying;

use abp_geom::{KeyedField, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a transmitter (beacon) as seen by propagation models.
///
/// Propagation models key their per-beacon randomness (noise factors,
/// shadowing) on this id, so the same id always experiences the same
/// propagation conditions — the paper's static noise field. The id is
/// assigned by the beacon field (`abp-field`) and is stable for the life of
/// a beacon.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(v: u64) -> Self {
        TxId(v)
    }
}

/// A radio propagation model: decides whether a transmitter reaches a
/// receiver position.
///
/// Implementations must be:
///
/// * **deterministic** — repeated queries with the same arguments return
///   the same answer (the paper's noise is static in time); and
/// * **range-bounded** — [`Propagation::max_range`] must upper-bound the
///   distance at which [`Propagation::connected`] can return `true`, which
///   the beacon-major survey uses to prune its inner loop.
///
/// The trait is object-safe; the experiment engine stores models as
/// `&dyn Propagation`.
pub trait Propagation: Send + Sync {
    /// Returns `true` if a transmission from `tx` located at `tx_pos`
    /// is received at `rx`.
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool;

    /// An upper bound on the distance at which `tx` (at `tx_pos`) can be
    /// received. `connected` must be `false` for every `rx` farther away.
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64;

    /// The nominal transmission range `R` of the paper — the design range
    /// ignoring noise. Placement algorithms size their grids from this.
    fn nominal_range(&self) -> f64;

    /// The rule that decides the points of `tx`'s disk, computed once
    /// per beacon: a guaranteed core plus how the ring between the core
    /// and [`Propagation::max_range`] is decided (see [`Link`]).
    ///
    /// The survey kernel calls this once per beacon and decides every
    /// lattice point of the disk with the returned rule instead of a
    /// `connected` call per point. **Contract:** for every `rx` within
    /// `max_range`, [`Link::hears`] must equal `connected(tx, tx_pos,
    /// rx)` — equality, not merely soundness, because the survey's heard
    /// sets and accumulated bits must not change. Defaults to
    /// [`Link::ASK`] (no core, ask `connected` everywhere), which always
    /// meets the contract; a model that can drop a link anywhere — a dead
    /// beacon at distance 0, an obstacle, a lossy channel — must keep it.
    fn link(&self, _tx: TxId, _tx_pos: Point) -> Link {
        Link::ASK
    }
}

/// One transmitter's connectivity rule, hoisted out of the per-point
/// loop ([`Propagation::link`]).
///
/// A receiver at squared distance `d2 = tx_pos.distance_squared(rx)` is
/// heard iff `d2 <= g * g` for the guaranteed core `g` (that squared
/// form verbatim), or else iff the [`Annulus`] rule hears it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// The guaranteed core radius `g`, or `None` for no core.
    pub core: Option<f64>,
    /// How points outside the core are decided.
    pub annulus: Annulus,
}

/// How a [`Link`] decides the points outside its guaranteed core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Annulus {
    /// No point outside the core is heard: connectivity is the sharp
    /// core disk ([`IdealDisk`], [`NoiseStyle::CoherentRadius`]).
    Empty,
    /// The per-point speckle draw of [`PerBeaconNoise`] under
    /// [`NoiseStyle::Speckled`] and [`NoiseStyle::Lossy`].
    Speckle(Speckle),
    /// Ask [`Propagation::connected`] per point — the default.
    Ask,
}

/// The hoisted form of [`PerBeaconNoise`]'s per-point rule `d <= R(1 +
/// u·nf(B))`: the beacon's keyed hash state and noise factor, drawn once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speckle {
    /// The noise field with the beacon's id mixed in.
    pub key: KeyedField,
    /// The nominal range `R`.
    pub nominal: f64,
    /// The beacon's noise factor `nf(B)`.
    pub nf: f64,
    /// [`NoiseStyle::Lossy`] (`u = -unit`) rather than
    /// [`NoiseStyle::Speckled`] (`u = 2·unit - 1`).
    pub lossy: bool,
}

impl Speckle {
    /// Whether the point with column hash `column` (from
    /// `self.key.column(x)`), row coordinate `y` and squared distance
    /// `d2` from the beacon hears it — the arithmetic of
    /// [`PerBeaconNoise::connected`], step for step.
    #[inline]
    pub fn hears(&self, column: u64, y: f64, d2: f64) -> bool {
        let unit = KeyedField::unit(column, y);
        let u = if self.lossy { -unit } else { unit * 2.0 - 1.0 };
        let r = self.nominal * (1.0 + u * self.nf);
        d2 <= r * r
    }
}

impl Link {
    /// No guaranteed core; every point asks `connected`.
    pub const ASK: Link = Link {
        core: None,
        annulus: Annulus::Ask,
    };

    /// Connectivity is exactly the disk `d2 <= g * g`.
    pub const fn disk(g: f64) -> Link {
        Link {
            core: Some(g),
            annulus: Annulus::Empty,
        }
    }

    /// The rule's decision at one receiver — the per-point form the
    /// survey kernel hoists. `model`, `tx` and `tx_pos` are the ones the
    /// rule came from; only [`Annulus::Ask`] consults them.
    pub fn hears<M: Propagation + ?Sized>(
        &self,
        model: &M,
        tx: TxId,
        tx_pos: Point,
        rx: Point,
    ) -> bool {
        let d2 = tx_pos.distance_squared(rx);
        if self.core.is_some_and(|g| d2 <= g * g) {
            return true;
        }
        match self.annulus {
            Annulus::Empty => false,
            Annulus::Speckle(s) => s.hears(s.key.column(rx.x), rx.y, d2),
            Annulus::Ask => model.connected(tx, tx_pos, rx),
        }
    }
}

// Allow `&M` and boxed models wherever a model is expected.
impl<M: Propagation + ?Sized> Propagation for &M {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        (**self).connected(tx, tx_pos, rx)
    }
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        (**self).max_range(tx, tx_pos)
    }
    fn nominal_range(&self) -> f64 {
        (**self).nominal_range()
    }
    fn link(&self, tx: TxId, tx_pos: Point) -> Link {
        (**self).link(tx, tx_pos)
    }
}

impl<M: Propagation + ?Sized> Propagation for Box<M> {
    fn connected(&self, tx: TxId, tx_pos: Point, rx: Point) -> bool {
        (**self).connected(tx, tx_pos, rx)
    }
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        (**self).max_range(tx, tx_pos)
    }
    fn nominal_range(&self) -> f64 {
        (**self).nominal_range()
    }
    fn link(&self, tx: TxId, tx_pos: Point) -> Link {
        (**self).link(tx, tx_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_display_and_from() {
        let id: TxId = 7u64.into();
        assert_eq!(id.to_string(), "tx7");
        assert_eq!(id, TxId(7));
    }

    #[test]
    fn trait_is_object_safe() {
        let model: Box<dyn Propagation> = Box::new(IdealDisk::new(10.0));
        assert!(model.connected(TxId(0), Point::ORIGIN, Point::new(5.0, 0.0)));
        assert_eq!(model.nominal_range(), 10.0);
        // And references delegate.
        let by_ref: &dyn Propagation = &*model;
        assert_eq!(by_ref.max_range(TxId(0), Point::ORIGIN), 10.0);
    }

    /// The blanket `&M` / `Box<M>` impls forward the link rule instead
    /// of falling back to the trait default.
    #[test]
    fn wrappers_forward_the_link_rule() {
        fn through<M: Propagation>(model: M) -> Link {
            model.link(TxId(4), Point::new(2.0, 3.0))
        }
        let bare = IdealDisk::new(10.0);
        let want = through(bare);
        assert_eq!(want, Link::disk(10.0));
        let boxed: Box<dyn Propagation> = Box::new(bare);
        assert_eq!(through::<&IdealDisk>(&bare), want);
        assert_eq!(through(&boxed), want);
        assert_eq!(through(Box::new(&bare)), want);
        let noisy = PerBeaconNoise::new(10.0, 0.5, 3);
        let noisy_want = through(noisy);
        assert!(noisy_want.core.is_some());
        assert!(matches!(noisy_want.annulus, Annulus::Speckle(_)));
        let noisy_boxed: Box<dyn Propagation> = Box::new(noisy);
        assert_eq!(through(&noisy_boxed), noisy_want);
    }
}
