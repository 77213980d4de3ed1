//! The paper's message-counting connectivity rule as a [`Propagation`]
//! model.
//!
//! §2.2 of the paper defines connectivity procedurally: beacons transmit
//! every period `T`, a client listens for a window `t`, and the client
//! counts a beacon as connected when it receives at least `CMthresh` of
//! its messages. [`MessageCountOracle`] evaluates exactly that rule
//! against a recorded [`NetRun`] schedule: for a query `(tx, rx)`, it
//! replays the transmitter's messages whose airtime began inside the
//! listen window, keeps those the base model carries to `rx`, discards
//! those destroyed by an overlapping in-range transmission (a collision
//! *at this receiver*), and compares the count against `CMthresh`.
//!
//! Because it implements [`Propagation`], the oracle drops into every
//! existing consumer — `ErrorMap::survey`, `ConnectivityOracle`, the
//! placement algorithms — giving the whole pipeline a time-domain radio
//! without touching a line of it.
//!
//! # Reduction to the base predicate
//!
//! Under [`crate::NetConfig::always_on`] (ideal channel, always-on duty,
//! unlimited battery, `CMthresh` = 1, listen window spanning a run longer
//! than one period) every beacon lands at least one uncollided message in
//! the window, so `connected` degenerates to the base model's predicate —
//! bit-for-bit, which the acceptance tests gate on at paper scale.

use crate::sim::NetRun;
use abp_geom::Point;
use abp_radio::{Propagation, TxId};

/// [`Propagation`] backend that answers connectivity queries by counting
/// a transmitter's surviving messages in the run's listen window.
///
/// Borrowed from a [`NetRun`] via [`NetRun::oracle`]. The base model
/// should be the one the run was simulated with: it decides both which
/// messages reach `rx` and which overlapping transmissions interfere
/// there.
pub struct MessageCountOracle<'a, M: ?Sized> {
    run: &'a NetRun,
    base: &'a M,
    window: (u64, u64),
}

impl<'a, M: Propagation + ?Sized> MessageCountOracle<'a, M> {
    /// Builds the oracle over `run`'s schedule, backed by `base`.
    pub fn new(run: &'a NetRun, base: &'a M) -> Self {
        let window = run.listen_window();
        MessageCountOracle { run, base, window }
    }

    /// Messages from `tx` a listener at `rx` receives within the listen
    /// window: transmitted in-window, carried by the base model, and not
    /// destroyed by an overlapping in-range transmission.
    pub fn messages_heard(&self, tx: TxId, rx: Point) -> u32 {
        self.heard_up_to(tx, rx, u32::MAX)
    }

    /// Counts surviving messages, stopping early once `cap` is reached
    /// (the survey hot path only needs "≥ CMthresh").
    fn heard_up_to(&self, tx: TxId, rx: Point, cap: u32) -> u32 {
        let Some(slot) = self.run.slot_of_tx(tx) else {
            return 0;
        };
        let (w_start, w_end) = self.window;
        let mut heard = 0u32;
        for &i in self.run.transmissions_of_slot(slot) {
            let t = &self.run.transmissions()[i as usize];
            if t.start < w_start || t.start >= w_end {
                continue;
            }
            if !self.base.connected(t.tx, t.pos, rx) {
                continue;
            }
            let collided = self.run.overlaps_of(i as usize).iter().any(|&j| {
                let o = &self.run.transmissions()[j as usize];
                self.base.connected(o.tx, o.pos, rx)
            });
            if !collided {
                heard += 1;
                if heard >= cap {
                    return heard;
                }
            }
        }
        heard
    }
}

impl<M: Propagation + ?Sized> Propagation for MessageCountOracle<'_, M> {
    /// The §2.2 rule: `rx` hears `tx` iff at least `CMthresh` of its
    /// in-window messages survive. The passed `tx_pos` is ignored in
    /// favor of the position recorded in the schedule (they coincide for
    /// queries issued from the same field the run simulated).
    fn connected(&self, tx: TxId, _tx_pos: Point, rx: Point) -> bool {
        let cm = self.run.cfg().cmthresh;
        self.heard_up_to(tx, rx, cm) >= cm
    }

    /// Delegates to the base model: a message can never be heard farther
    /// than the base radio carries, so the base bound stays sound.
    fn max_range(&self, tx: TxId, tx_pos: Point) -> f64 {
        self.base.max_range(tx, tx_pos)
    }

    fn nominal_range(&self) -> f64 {
        self.base.nominal_range()
    }

    // link() stays the default `Link::ASK`: even over a base with a
    // guaranteed core, message counting can disconnect in-range pairs
    // (collisions, sleep, death), so the survey must ask `connected`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, NetSim};
    use abp_field::BeaconField;
    use abp_geom::Terrain;
    use abp_radio::IdealDisk;

    fn small_field() -> BeaconField {
        BeaconField::from_positions(
            Terrain::square(100.0),
            [(20.0, 20.0), (50.0, 50.0), (80.0, 80.0)].map(|(x, y)| Point::new(x, y)),
        )
    }

    #[test]
    fn always_on_reduces_to_base_predicate() {
        let field = small_field();
        let base = IdealDisk::new(15.0);
        let run = NetSim::run(&field, &base, &NetConfig::always_on(), 77);
        let oracle = run.oracle(&base);
        for b in field.iter() {
            for (x, y) in [(20.0, 25.0), (50.0, 40.0), (90.0, 90.0), (0.0, 0.0)] {
                let rx = Point::new(x, y);
                assert_eq!(
                    oracle.connected(b.tx(), b.pos(), rx),
                    base.connected(b.tx(), b.pos(), rx),
                    "reduction must hold for {} at ({x}, {y})",
                    b.tx()
                );
            }
        }
    }

    #[test]
    fn unknown_transmitter_is_never_connected() {
        let field = small_field();
        let base = IdealDisk::new(15.0);
        let run = NetSim::run(&field, &base, &NetConfig::always_on(), 77);
        let oracle = run.oracle(&base);
        assert!(!oracle.connected(TxId(999), Point::ORIGIN, Point::ORIGIN));
        assert_eq!(oracle.messages_heard(TxId(999), Point::ORIGIN), 0);
    }

    #[test]
    fn cmthresh_raises_the_bar() {
        let field = small_field();
        let base = IdealDisk::new(15.0);
        // 8 s run, ~1 s period, full-run window: ~8 messages audible.
        let cfg = NetConfig::tiny();
        let run = NetSim::run(&field, &base, &cfg, 5);
        let b = field.beacons()[0];
        let rx = Point::new(22.0, 22.0);
        let heard = run.oracle(&base).messages_heard(b.tx(), rx);
        assert!(heard >= 6, "expected most messages to land, got {heard}");
        // A threshold above what landed disconnects the link.
        let strict = NetConfig {
            cmthresh: heard + 1,
            ..cfg.clone()
        };
        let strict_run = NetSim::run(&field, &base, &strict, 5);
        assert!(!strict_run.oracle(&base).connected(b.tx(), b.pos(), rx));
        let lax = NetConfig { cmthresh: 1, ..cfg };
        let lax_run = NetSim::run(&field, &base, &lax, 5);
        assert!(lax_run.oracle(&base).connected(b.tx(), b.pos(), rx));
    }

    #[test]
    fn longer_period_starves_the_window() {
        let field = small_field();
        let base = IdealDisk::new(15.0);
        let slow = NetConfig {
            period: 6.0,
            cmthresh: 3,
            ..NetConfig::tiny()
        };
        let run = NetSim::run(&field, &base, &slow, 9);
        let b = field.beacons()[0];
        let rx = Point::new(22.0, 22.0);
        // At most ⌈8/6⌉ = 2 messages fit the window — below CMthresh 3.
        assert!(run.oracle(&base).messages_heard(b.tx(), rx) <= 2);
        assert!(!run.oracle(&base).connected(b.tx(), b.pos(), rx));
    }

    #[test]
    fn range_bounds_delegate_to_base() {
        let field = small_field();
        let base = IdealDisk::new(15.0);
        let run = NetSim::run(&field, &base, &NetConfig::always_on(), 1);
        let oracle = run.oracle(&base);
        let b = field.beacons()[0];
        assert_eq!(oracle.max_range(b.tx(), b.pos()), 15.0);
        assert_eq!(oracle.nominal_range(), 15.0);
        assert_eq!(
            oracle.link(b.tx(), b.pos()),
            abp_radio::Link::ASK,
            "the guaranteed-core shortcut must stay off"
        );
    }
}
