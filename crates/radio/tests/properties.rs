//! Property-based tests for the propagation models.
//!
//! The central invariant: for every model, `connected` implies the receiver
//! is within `max_range` of the transmitter — the survey's pruning bound.

use abp_geom::Point;
use abp_radio::{
    Annulus, HeightField, IdealDisk, Link, LogDistance, MessageLink, NoiseStyle, Obstructed,
    PerBeaconNoise, Propagation, TerrainShadowed, TimeVarying, TxId, Wall,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pt() -> impl Strategy<Value = Point> {
    (-200.0..200.0f64, -200.0..200.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// The link rule at `rx`: inside the core's squared test `connected`
/// must hold, and the rule's decision must equal `connected` exactly.
fn check_link<M: Propagation>(model: &M, tx: TxId, tx_pos: Point, rx: Point) -> bool {
    let link = model.link(tx, tx_pos);
    let connected = model.connected(tx, tx_pos, rx);
    let core_sound = match link.core {
        Some(g) => tx_pos.distance_squared(rx) > g * g || connected,
        None => true,
    };
    core_sound && link.hears(model, tx, tx_pos, rx) == connected
}

fn check_range_bound<M: Propagation>(model: &M, tx: TxId, tx_pos: Point, rx: Point) -> bool {
    !model.connected(tx, tx_pos, rx) || tx_pos.distance(rx) <= model.max_range(tx, tx_pos) + 1e-9
}

proptest! {
    #[test]
    fn ideal_connectivity_iff_within_range(
        r in 0.5..100.0f64, tx_pos in pt(), rx in pt(), id in any::<u64>()
    ) {
        let m = IdealDisk::new(r);
        let connected = m.connected(TxId(id), tx_pos, rx);
        prop_assert_eq!(connected, tx_pos.distance(rx) <= r);
        prop_assert!(check_range_bound(&m, TxId(id), tx_pos, rx));
    }

    #[test]
    fn noise_model_respects_max_range(
        r in 1.0..50.0f64, noise in 0.0..0.9f64, seed in any::<u64>(),
        id in 0u64..1000, tx_pos in pt(), rx in pt()
    ) {
        let m = PerBeaconNoise::new(r, noise, seed);
        prop_assert!(check_range_bound(&m, TxId(id), tx_pos, rx));
        // Noise factor always within [0, noise].
        let nf = m.noise_factor(TxId(id));
        prop_assert!((0.0..=noise.max(f64::MIN_POSITIVE)).contains(&nf));
    }

    #[test]
    fn noise_model_guaranteed_core(
        r in 1.0..50.0f64, noise in 0.0..0.9f64, seed in any::<u64>(),
        id in 0u64..1000, tx_pos in pt(), frac in 0.0..0.999f64, theta in 0.0..6.2f64
    ) {
        let m = PerBeaconNoise::new(r, noise, seed);
        let nf = m.noise_factor(TxId(id));
        let d = r * (1.0 - nf) * frac;
        let rx = Point::new(tx_pos.x + d * theta.cos(), tx_pos.y + d * theta.sin());
        prop_assert!(m.connected(TxId(id), tx_pos, rx));
    }

    #[test]
    fn noise_model_deterministic(
        r in 1.0..50.0f64, noise in 0.0..0.9f64, seed in any::<u64>(),
        id in any::<u64>(), tx_pos in pt(), rx in pt()
    ) {
        let m1 = PerBeaconNoise::new(r, noise, seed);
        let m2 = PerBeaconNoise::new(r, noise, seed);
        prop_assert_eq!(
            m1.connected(TxId(id), tx_pos, rx),
            m2.connected(TxId(id), tx_pos, rx)
        );
    }

    #[test]
    fn log_distance_respects_max_range(
        r in 2.0..50.0f64, n in 1.5..5.0f64, sigma in 0.0..8.0f64,
        seed in any::<u64>(), id in any::<u64>(), tx_pos in pt(), rx in pt()
    ) {
        let m = LogDistance::new(r, n, sigma, 1.0, seed);
        prop_assert!(check_range_bound(&m, TxId(id), tx_pos, rx));
    }

    #[test]
    fn obstruction_only_removes_links(
        r in 1.0..50.0f64, tx_pos in pt(), rx in pt(),
        wx in -50.0..50.0f64, att in 0.1..1.0f64
    ) {
        let base = IdealDisk::new(r);
        let wall = Wall::new(Point::new(wx, -300.0), Point::new(wx, 300.0), att);
        let m = Obstructed::new(base, vec![wall]);
        // A link the obstructed model makes, the base model must also make.
        if m.connected(TxId(0), tx_pos, rx) {
            prop_assert!(base.connected(TxId(0), tx_pos, rx));
        }
        prop_assert!(check_range_bound(&m, TxId(0), tx_pos, rx));
    }

    #[test]
    fn time_varying_respects_max_range(
        r in 1.0..50.0f64, jitter in 0.0..0.9f64, seed in any::<u64>(),
        epoch in any::<u64>(), id in any::<u64>(), tx_pos in pt(), rx in pt()
    ) {
        let m = TimeVarying::new(IdealDisk::new(r), jitter, seed).at_epoch(epoch);
        prop_assert!(check_range_bound(&m, TxId(id), tx_pos, rx));
    }

    #[test]
    fn lossfree_message_link_equals_geometry(
        r in 1.0..50.0f64, tx_pos in pt(), rx in pt(),
        period in 0.5..5.0f64, windows in 2u32..50, thresh in 0.01..1.0f64,
        seed in any::<u64>()
    ) {
        let model = IdealDisk::new(r);
        let link = MessageLink::new(period, period * windows as f64, thresh, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(
            link.connected(&model, TxId(0), tx_pos, rx, &mut rng),
            model.connected(TxId(0), tx_pos, rx)
        );
    }

    #[test]
    fn message_counts_never_exceed_sent(
        loss in 0.0..0.99f64, windows in 2u32..100, seed in any::<u64>()
    ) {
        let link = MessageLink::new(1.0, windows as f64, 0.5, loss);
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = link.observe(
            &IdealDisk::new(10.0), TxId(0), Point::ORIGIN, Point::new(1.0, 0.0), &mut rng,
        );
        prop_assert!(obs.received <= obs.sent);
        prop_assert_eq!(obs.sent, windows);
        prop_assert!((0.0..=1.0).contains(&obs.fraction()));
    }

    /// The link rule decides every point exactly as `connected` does —
    /// for the ideal disk and all three noise readings up to noise 0.99,
    /// at random points, at annulus points between the core and
    /// `max_range`, at a point built to sit exactly `g` away along an
    /// axis (`bx = px + g`), and at the transmitter itself. Every point
    /// inside the core is one `connected` accepts.
    #[test]
    fn link_matches_connected(
        r in 0.5..50.0f64, noise in 0.0..0.99f64, seed in any::<u64>(),
        id in any::<u64>(), tx_pos in pt(), rx in pt(), style_ix in 0usize..3,
        frac in 0.0..=1.0f64, theta in 0.0..std::f64::consts::TAU
    ) {
        let style = [NoiseStyle::Speckled, NoiseStyle::CoherentRadius, NoiseStyle::Lossy][style_ix];
        let noisy = PerBeaconNoise::with_style(r, noise, seed, style);
        let ideal = IdealDisk::new(r);
        let tx = TxId(id);
        for model in [&ideal as &dyn Propagation, &noisy] {
            let link = model.link(tx, tx_pos);
            let g = link.core.expect("these models guarantee a core");
            let reach = model.max_range(tx, tx_pos);
            prop_assert!(g >= 0.0 && g <= reach);
            prop_assert!(!matches!(link.annulus, Annulus::Ask));
            prop_assert!(check_link(&model, tx, tx_pos, rx));
            prop_assert!(check_link(&model, tx, tx_pos, tx_pos));
            // The annulus between the core and the maximal reach, densely:
            // 256 points spread over its radii and angles.
            for k in 0..256 {
                let t = (frac + (k as f64 + 0.5) / 256.0) % 1.0;
                let d = g + t * (reach - g);
                let a = theta + k as f64 * 2.399_963;
                let ring = Point::new(tx_pos.x + d * a.cos(), tx_pos.y + d * a.sin());
                prop_assert!(check_link(&model, tx, tx_pos, ring), "annulus point at {}", d);
            }
            // The boundary: the receiver sits at px, the transmitter at
            // px + g, so the computed distance² is exactly (bx - px)².
            let bx = Point::new(rx.x + g, rx.y);
            let d2 = bx.distance_squared(rx);
            if d2 <= g * g {
                prop_assert!(model.connected(tx, bx, rx), "boundary point dropped");
            }
            prop_assert!(check_link(&model, tx, bx, rx));
        }
    }

    /// Wrappers that can drop links inside the base model's disk keep
    /// the default rule — no core, ask `connected` — even over a base
    /// that has a core.
    #[test]
    fn link_dropping_wrappers_offer_no_guarantee(
        r in 1.0..50.0f64, seed in any::<u64>(), id in any::<u64>(), tx_pos in pt()
    ) {
        let tx = TxId(id);
        let base = IdealDisk::new(r);
        prop_assert!(base.link(tx, tx_pos).core.is_some());
        let wall = Wall::new(Point::new(0.0, -300.0), Point::new(0.0, 300.0), 0.5);
        let hill = HeightField::hill(10.0, 10, 30.0, 20.0);
        let wrapped: [&dyn Propagation; 4] = [
            &Obstructed::new(base, vec![wall]),
            &TerrainShadowed::new(base, hill, 1.0),
            &TimeVarying::new(base, 0.5, seed).at_epoch(3),
            &LogDistance::new(r, 3.0, 4.0, 1.0, seed),
        ];
        for model in wrapped {
            prop_assert_eq!(model.link(tx, tx_pos), Link::ASK);
        }
    }
}
