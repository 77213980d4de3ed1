//! The paper's idealized radio model (§2.1).

use crate::{Link, Propagation, TxId};
use abp_geom::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Idealized radio: perfect circular propagation with identical range `R`
/// for every transmitter — connectivity for distances `<= R`, none beyond.
///
/// The paper uses this model to derive bounds on localization quality and
/// as the `Noise = 0` case of every experiment.
///
/// # Example
///
/// ```
/// use abp_geom::Point;
/// use abp_radio::{IdealDisk, Propagation, TxId};
///
/// let m = IdealDisk::new(15.0);
/// assert!(m.connected(TxId(3), Point::ORIGIN, Point::new(9.0, 12.0))); // d = 15
/// assert!(!m.connected(TxId(3), Point::ORIGIN, Point::new(9.1, 12.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdealDisk {
    range: f64,
}

impl IdealDisk {
    /// Creates the model with nominal range `range` (the paper's `R`).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not finite and strictly positive.
    pub fn new(range: f64) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be finite and positive, got {range}"
        );
        IdealDisk { range }
    }

    /// The configured range `R`.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }
}

impl Propagation for IdealDisk {
    #[inline]
    fn connected(&self, _tx: TxId, tx_pos: Point, rx: Point) -> bool {
        tx_pos.distance_squared(rx) <= self.range * self.range
    }

    #[inline]
    fn max_range(&self, _tx: TxId, _tx_pos: Point) -> f64 {
        self.range
    }

    #[inline]
    fn nominal_range(&self) -> f64 {
        self.range
    }

    /// Connectivity *is* the sharp range-`R` disk: `connected` is
    /// `distance_squared(rx) <= range * range`, the core's own test.
    #[inline]
    fn link(&self, _tx: TxId, _tx_pos: Point) -> Link {
        Link::disk(self.range)
    }
}

impl fmt::Display for IdealDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ideal disk (R = {} m)", self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_is_connected() {
        let m = IdealDisk::new(10.0);
        assert!(m.connected(TxId(0), Point::ORIGIN, Point::new(10.0, 0.0)));
        assert!(m.connected(TxId(0), Point::ORIGIN, Point::ORIGIN));
        assert!(!m.connected(TxId(0), Point::ORIGIN, Point::new(10.0001, 0.0)));
    }

    #[test]
    fn independent_of_txid() {
        let m = IdealDisk::new(5.0);
        let rx = Point::new(3.0, 0.0);
        assert_eq!(
            m.connected(TxId(0), Point::ORIGIN, rx),
            m.connected(TxId(99), Point::ORIGIN, rx)
        );
    }

    #[test]
    fn symmetric_links() {
        // With identical ranges the link is symmetric: a hears b iff b hears a.
        let m = IdealDisk::new(7.0);
        let a = Point::new(1.0, 2.0);
        let b = Point::new(6.0, 5.0);
        assert_eq!(m.connected(TxId(0), a, b), m.connected(TxId(1), b, a));
    }

    #[test]
    fn max_range_bounds_connectivity() {
        let m = IdealDisk::new(12.5);
        assert_eq!(m.max_range(TxId(0), Point::ORIGIN), 12.5);
        assert_eq!(m.nominal_range(), 12.5);
    }

    #[test]
    fn link_is_the_whole_disk() {
        let m = IdealDisk::new(9.0);
        let link = m.link(TxId(1), Point::ORIGIN);
        assert_eq!(link, Link::disk(9.0));
        // connected <=> distance_squared <= g^2, including at the boundary.
        for &(x, y) in &[(9.0, 0.0), (8.999, 0.0), (9.001, 0.0), (6.3, 6.4)] {
            let rx = Point::new(x, y);
            let r = link.core.unwrap();
            assert_eq!(
                m.connected(TxId(1), Point::ORIGIN, rx),
                Point::ORIGIN.distance_squared(rx) <= r * r,
                "at ({x}, {y})"
            );
            assert_eq!(
                link.hears(&m, TxId(1), Point::ORIGIN, rx),
                m.connected(TxId(1), Point::ORIGIN, rx)
            );
        }
    }

    #[test]
    #[should_panic(expected = "radio range")]
    fn rejects_nonpositive_range() {
        let _ = IdealDisk::new(0.0);
    }
}
