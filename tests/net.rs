//! Cross-crate guarantees of the time-domain simulator (`abp-net`).
//!
//! The headline gate: with an always-on radio and `CMthresh = 1`, the
//! message-counting oracle degenerates to the timeless base predicate,
//! so surveying the paper-preset lattice through either produces
//! **bit-identical** error maps. Everything the rest of the workspace
//! derives from a `Propagation` model is therefore a special case of
//! the packet-level simulation, not a parallel implementation.

use abp_fault::{FaultPlan, MortalityPlan};
use abp_net::{NetConfig, NetSim};
use abp_radio::{IdealDisk, Link, Propagation};
use abp_sim::SimConfig;
use abp_survey::ErrorMap;

/// §2.2/§6 reduction on the paper preset: always-on radio, `CMthresh`
/// 1 — the oracle's map equals the base model's map bit for bit.
#[test]
fn always_on_oracle_reproduces_the_paper_error_map() {
    let cfg = SimConfig::paper();
    let seed = cfg.trial_seed(0, 0);
    let field = cfg.trial_field(40, seed);
    let base = cfg.model(0.0, seed); // exact IdealDisk
    let ncfg = NetConfig::always_on();
    assert_eq!(ncfg.cmthresh, 1);

    let run = NetSim::run(&field, &*base, &ncfg, seed);
    // The ideal channel never collides and every beacon transmits.
    assert_eq!(run.stats.collisions, 0);
    assert!(run.stats.messages_sent >= field.len() as u64);

    let lattice = cfg.lattice();
    let oracle = run.oracle(&*base);
    let via_time = ErrorMap::survey(&lattice, &field, &oracle, cfg.policy);
    let timeless = ErrorMap::survey(&lattice, &field, &*base, cfg.policy);
    assert_eq!(via_time, timeless, "oracle map diverged from base map");
}

/// The reduction holds under a noisy base model too — the oracle layers
/// time on top of whatever `connected` it is given, so per-beacon noise
/// passes straight through.
#[test]
fn always_on_reduction_holds_under_noise() {
    let cfg = SimConfig::tiny();
    let seed = cfg.trial_seed(1, 3);
    let field = cfg.trial_field(60, seed);
    let base = cfg.model(0.3, seed); // PerBeaconNoise
    let run = NetSim::run(&field, &*base, &NetConfig::always_on(), seed);

    let lattice = cfg.lattice();
    let oracle = run.oracle(&*base);
    let via_time = ErrorMap::survey(&lattice, &field, &oracle, cfg.policy);
    let timeless = ErrorMap::survey(&lattice, &field, &*base, cfg.policy);
    assert_eq!(via_time, timeless, "noisy-base reduction broke");
}

/// Same seed, same everything: the event logs are byte-identical. A
/// different seed diverges (the log is not a constant).
#[test]
fn replay_is_byte_identical_and_seed_sensitive() {
    let cfg = SimConfig::tiny();
    let seed = cfg.trial_seed(0, 0);
    let field = cfg.trial_field(30, seed);
    let base = IdealDisk::new(cfg.nominal_range);
    let ncfg = NetConfig::tiny();

    let a = NetSim::run(&field, &base, &ncfg, 7);
    let b = NetSim::run(&field, &base, &ncfg, 7);
    assert_eq!(a.log_bytes(), b.log_bytes());
    let c = NetSim::run(&field, &base, &ncfg, 8);
    assert_ne!(a.log_bytes(), c.log_bytes());
}

/// An `abp-fault` radio composes as the base model: with every beacon
/// permanently dead, nothing is ever delivered and the oracle hears
/// silence everywhere; with the healthy plan the wrapper is transparent
/// and the run is byte-identical to the unwrapped one.
#[test]
fn faulty_radio_composes_as_the_base_model() {
    let cfg = SimConfig::tiny();
    let seed = cfg.trial_seed(2, 5);
    let field = cfg.trial_field(40, seed);
    let disk = IdealDisk::new(cfg.nominal_range);
    let ncfg = NetConfig::always_on();

    let dead_plan = FaultPlan {
        mortality: Some(MortalityPlan {
            death_rate: 1.0,
            flap_rate: 0.0,
            duty_cycle: 1.0,
        }),
        ..FaultPlan::none()
    };
    let dead = dead_plan.compile(seed).wrap(disk, 0);
    let run = NetSim::run(&field, &dead, &ncfg, seed);
    assert_eq!(run.stats.messages_delivered, 0, "dead beacons were heard");
    let oracle = run.oracle(&dead);
    for b in field.beacons() {
        assert!(!oracle.connected(b.tx(), b.pos(), b.pos()));
    }

    let healthy = FaultPlan::none().compile(seed).wrap(disk, 0);
    let wrapped = NetSim::run(&field, &healthy, &ncfg, seed);
    let plain = NetSim::run(&field, &disk, &ncfg, seed);
    assert_eq!(wrapped.log_bytes(), plain.log_bytes());
    assert_eq!(
        wrapped.stats.messages_delivered,
        plain.stats.messages_delivered
    );
}

/// The link-dropping wrappers outside `abp-radio` keep the default link
/// rule — no guaranteed core, ask `connected` — even over a base model
/// that has a core, so the survey asks `connected` everywhere: a dead beacon sitting exactly on
/// a lattice point (distance 0) stays unheard, and the message-counting
/// oracle decides every link itself.
#[test]
fn link_dropping_wrappers_offer_no_guaranteed_range() {
    use abp_field::BeaconField;
    use abp_geom::{Lattice, LatticeIndex, Point, Terrain};
    use abp_localize::UnheardPolicy;

    let terrain = Terrain::square(40.0);
    let disk = IdealDisk::new(15.0);
    let on_lattice = Point::new(20.0, 20.0);
    let field = BeaconField::from_positions(terrain, [on_lattice]);
    let b = field.beacons()[0];
    assert_eq!(disk.link(b.tx(), b.pos()), Link::disk(15.0));

    let dead_plan = FaultPlan {
        mortality: Some(MortalityPlan {
            death_rate: 1.0,
            flap_rate: 0.0,
            duty_cycle: 1.0,
        }),
        ..FaultPlan::none()
    };
    let dead = dead_plan.compile(3).wrap(disk, 0);
    assert_eq!(dead.link(b.tx(), b.pos()), Link::ASK);
    let healthy = FaultPlan::none().compile(3).wrap(disk, 0);
    assert_eq!(healthy.link(b.tx(), b.pos()), Link::ASK);

    let lattice = Lattice::new(terrain, 2.0);
    let map = ErrorMap::survey(&lattice, &field, &dead, UnheardPolicy::TerrainCenter);
    assert_eq!(
        map.heard_at(LatticeIndex::new(10, 10)),
        0,
        "dead beacon heard at distance 0"
    );
    assert_eq!(map.unheard_count(), map.len());

    let run = NetSim::run(&field, &disk, &NetConfig::always_on(), 3);
    let oracle = run.oracle(&disk);
    assert_eq!(oracle.link(b.tx(), b.pos()), Link::ASK);
}
