//! The figure slices: a fixed part of the paper's figures, timed through
//! `abp_sim::figures`, checked against the point-major survey oracle, and
//! in a traced run re-run through a mirror of the experiments' trial
//! functions that times every call into a crate.

use crate::report::{median, ms, quantile, us, Report};
use crate::{alloc, host};
use abp_field::BeaconField;
use abp_geom::splitmix64;
use abp_placement::SurveyView;
use abp_radio::Propagation;
use abp_sim::experiments::density_error::{self, TrialSample};
use abp_sim::experiments::improvement::{self, TrialImprovement};
use abp_sim::progress::{Ctx, Probe, TrialFailureReport};
use abp_sim::{figures, with_trial_scratch, AlgorithmKind, Figure, PaperConfig, Series, SimConfig};
use abp_stats::{ConfidenceInterval, Welford};
use abp_survey::ErrorMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker threads of every sweep (the benchmark host has 2 cores).
pub const THREADS: usize = 2;

/// Tolerance for incremental after-maps against a full re-survey, as in
/// the survey crate's property tests.
const AFTER_MAP_TOLERANCE: f64 = 1e-9;

/// The traced layers must cover at least this share of trial time.
const MAX_UNATTRIBUTED: f64 = 0.25;

/// Which figures a workload regenerates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slice {
    /// Figures 4 and 5: `IdealDisk`, the disk-exact sweep path.
    Ideal,
    /// Figures 6 to 9: `PerBeaconNoise` at the paper's noise levels.
    Noise,
}

/// One density sweep of an experiment, as a figure runs it.
#[derive(Clone, Debug)]
enum Sweep {
    Density(f64),
    Improvement(f64, Vec<AlgorithmKind>),
}

const NOISE_ALGORITHMS: [AlgorithmKind; 3] = [
    AlgorithmKind::Random,
    AlgorithmKind::Max,
    AlgorithmKind::Grid,
];

impl Slice {
    /// The sweeps of the slice, in the order the figures run them.
    fn sweeps(self) -> Vec<Sweep> {
        match self {
            Slice::Ideal => vec![
                Sweep::Density(0.0),
                Sweep::Improvement(0.0, AlgorithmKind::PAPER.to_vec()),
            ],
            Slice::Noise => {
                let mut out: Vec<Sweep> = PaperConfig::NOISE_LEVELS
                    .iter()
                    .map(|&n| Sweep::Density(n))
                    .collect();
                for algo in NOISE_ALGORITHMS {
                    for &n in &PaperConfig::NOISE_LEVELS {
                        out.push(Sweep::Improvement(n, vec![algo]));
                    }
                }
                out
            }
        }
    }

    /// Regenerates the slice's figures.
    fn figures(self, cfg: &SimConfig, ctx: Ctx<'_>) -> Vec<Figure> {
        match self {
            Slice::Ideal => {
                let fig4 = figures::fig4_with(cfg, ctx);
                let (mean, med) = figures::fig5_with(cfg, ctx);
                vec![fig4, mean, med]
            }
            Slice::Noise => {
                let mut out = vec![figures::fig6_with(cfg, ctx)];
                for algo in NOISE_ALGORITHMS {
                    let (mean, med) = figures::fig_noise_with(cfg, algo, ctx);
                    out.push(mean);
                    out.push(med);
                }
                out
            }
        }
    }

    /// The figure series each sweep feeds, aligned with [`Slice::sweeps`]:
    /// per algorithm a (mean, median) pair; density sweeps plot only the
    /// mean.
    fn curves(self, figs: &[Figure]) -> Vec<Vec<(&Series, Option<&Series>)>> {
        match self {
            Slice::Ideal => vec![
                vec![(&figs[0].series[0], None)],
                (0..AlgorithmKind::PAPER.len())
                    .map(|ai| (&figs[1].series[ai], Some(&figs[2].series[ai])))
                    .collect(),
            ],
            Slice::Noise => {
                let levels = PaperConfig::NOISE_LEVELS.len();
                let mut out: Vec<Vec<_>> = (0..levels)
                    .map(|k| vec![(&figs[0].series[k], None)])
                    .collect();
                for j in 0..NOISE_ALGORITHMS.len() {
                    for k in 0..levels {
                        out.push(vec![(
                            &figs[1 + 2 * j].series[k],
                            Some(&figs[2 + 2 * j].series[k]),
                        )]);
                    }
                }
                out
            }
        }
    }
}

/// The simulation config of a slice: the paper geometry (100 m side,
/// R = 15 m, step 1 m, NG = 400, 23 densities) or, for the benchmark's own
/// tests, a coarse three-density stand-in.
pub fn config(tiny: bool, trials: usize, seed: u64) -> SimConfig {
    let mut cfg = if tiny {
        SimConfig {
            trials,
            ..SimConfig::tiny()
        }
    } else {
        SimConfig {
            trials,
            ..SimConfig::paper()
        }
    };
    cfg.threads = THREADS;
    cfg.seed = splitmix64(seed ^ 0x5045_5246_4245_4e43);
    cfg
}

/// Set-up before the first timed slice, timed: config, lattice, and one
/// trial of each experiment at the largest density to size this thread's
/// scratch and fault in the code.
pub fn setup(tiny: bool, trials: usize, seed: u64) -> Duration {
    let started = Instant::now();
    let cfg = config(tiny, trials, seed);
    std::hint::black_box(cfg.lattice());
    let di = cfg.beacon_counts.len() - 1;
    let beacons = cfg.beacon_counts[di];
    let trial_seed = cfg.trial_seed(di, 0);
    std::hint::black_box(density_error::run_trial(&cfg, 0.0, beacons, trial_seed));
    std::hint::black_box(improvement::run_trial(
        &cfg,
        0.0,
        beacons,
        trial_seed,
        &AlgorithmKind::PAPER,
    ));
    started.elapsed()
}

/// Counts finished and panicked trials.
#[derive(Default)]
struct CountProbe {
    done: AtomicU64,
    failed: AtomicU64,
}

impl Probe for CountProbe {
    fn trial_done(&self, _busy: Duration) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    fn trial_failed(&self, _failure: &TrialFailureReport) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the slice once through the figure entry points, charging its
/// trials to `report`. Returns the figures and the wall time.
fn plain_slice(cfg: &SimConfig, slice: Slice, report: &mut Report) -> (Vec<Figure>, Duration) {
    let probe = CountProbe::default();
    let started = Instant::now();
    let figs = slice.figures(cfg, Ctx::new(&probe));
    let wall = started.elapsed();
    let failed = probe.failed.load(Ordering::Relaxed);
    report.ops(probe.done.load(Ordering::Relaxed) + failed, failed);
    (figs, wall)
}

/// Untimed slices at the start of the timed phase. On the virtual
/// machine the benchmark was built on, the first slices after an idle
/// stretch ran up to twice as slow as the rest.
const WARM_UP: Duration = Duration::from_secs(1);

/// Repeats the slice for `budget`, first untimed for [`WARM_UP`], then
/// timed (at least three times) with the host calibration kernel run
/// between slices. Reports `figures_s`: the median over slices of the
/// wall time scaled by [`host::REFERENCE`] over the mean of the kernel
/// times just before and after. Then checks the figures: every repeat
/// must equal the first, and sampled points must match the oracle
/// (`corrupt`: see [`check_against_oracle`]).
pub fn timed(
    cfg: &SimConfig,
    slice: Slice,
    budget: Duration,
    seed: u64,
    corrupt: bool,
    report: &mut Report,
) {
    let started = Instant::now();
    let (reference, _) = plain_slice(cfg, slice, report);
    let mut differs = false;
    while started.elapsed() < WARM_UP {
        differs |= plain_slice(cfg, slice, report).0 != reference;
    }
    let mut walls = Vec::new();
    let mut kernel = vec![host::calibrate(THREADS)];
    while walls.len() < 3 || started.elapsed() + mean(&walls) <= budget {
        let (figs, wall) = plain_slice(cfg, slice, report);
        walls.push(wall);
        kernel.push(host::calibrate(THREADS));
        differs |= figs != reference;
    }
    let scaled: Vec<f64> = walls
        .iter()
        .zip(kernel.windows(2))
        .map(|(wall, k)| {
            wall.as_secs_f64() * 2.0 * host::REFERENCE.as_secs_f64() / (k[0] + k[1]).as_secs_f64()
        })
        .collect();
    let secs: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
    let kernel_ms: Vec<f64> = kernel.iter().map(|k| ms(*k)).collect();
    report.put("figures_s", median(&scaled), "s", scaled.len());
    report.put("figures.wall_s", median(&secs), "s", secs.len());
    report.put("host.kernel_ms", median(&kernel_ms), "ms", kernel_ms.len());
    report.check(!differs, || "figure output differs between repeats".into());
    check_against_oracle(cfg, slice, &reference, seed, corrupt, report);
}

fn mean(walls: &[Duration]) -> Duration {
    if walls.is_empty() {
        return Duration::ZERO;
    }
    walls.iter().sum::<Duration>() / walls.len() as u32
}

fn same_ci(a: &ConfidenceInterval, b: &ConfidenceInterval) -> bool {
    a.estimate.to_bits() == b.estimate.to_bits() && a.half_width.to_bits() == b.half_width.to_bits()
}

fn ci_of(w: &Welford) -> ConfidenceInterval {
    ConfidenceInterval::from_moments(w.mean(), w.sample_std(), w.count())
}

/// A reproducible pick in `0..n` for check number `salt`.
fn pick(seed: u64, salt: u64, n: usize) -> usize {
    (splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n as u64) as usize
}

/// The sweeps checked against the oracle: one per figure (fig4 or fig6,
/// fig5 or each of figs 7 to 9), at a seeded density.
fn sampled_sweeps(slice: Slice, seed: u64) -> Vec<usize> {
    match slice {
        Slice::Ideal => vec![0, 1],
        Slice::Noise => {
            let levels = PaperConfig::NOISE_LEVELS.len();
            (0..=NOISE_ALGORITHMS.len())
                .map(|fig| fig * levels + pick(seed, fig as u64, levels))
                .collect()
        }
    }
}

/// Recomputes sampled densities of the figures: density trials through
/// the point-major oracle (bit for bit, per trial and aggregated),
/// improvement trials through the library's `run_trial` (aggregated bit
/// for bit) with one trial's after-maps against a point-major re-survey.
/// `corrupt` flips one bit of the first oracle value, which must trip
/// the checks.
fn check_against_oracle(
    cfg: &SimConfig,
    slice: Slice,
    figs: &[Figure],
    seed: u64,
    corrupt: bool,
    report: &mut Report,
) {
    let sweeps = slice.sweeps();
    let curves = slice.curves(figs);
    let lattice = cfg.lattice();
    for (salt, si) in sampled_sweeps(slice, seed).into_iter().enumerate() {
        let di = pick(seed, 100 + salt as u64, cfg.beacon_counts.len());
        let beacons = cfg.beacon_counts[di];
        match &sweeps[si] {
            Sweep::Density(noise) => {
                let mut w = Welford::new();
                for t in 0..cfg.trials {
                    let trial_seed = cfg.trial_seed(di, t);
                    let field = cfg.trial_field(beacons, trial_seed);
                    let model = cfg.model(*noise, splitmix64(trial_seed ^ 0x4E_01_5E));
                    let map = ErrorMap::survey_point_major(&lattice, &field, &*model, cfg.policy);
                    let mut oracle = TrialSample {
                        mean: map.mean_error(),
                        median: map.median_error(),
                        unheard_fraction: map.unheard_count() as f64 / map.len() as f64,
                    };
                    if corrupt && t == 0 {
                        oracle.mean = f64::from_bits(oracle.mean.to_bits() ^ 1);
                    }
                    let got = density_error::run_trial(cfg, *noise, beacons, trial_seed);
                    report.check(same_density_sample(&got, &oracle), || {
                        format!(
                            "density trial noise={noise} di={di} t={t} differs from point-major"
                        )
                    });
                    w.push(oracle.mean);
                }
                let plotted = &curves[si][0].0.points[di].y;
                report.check(same_ci(&ci_of(&w), plotted), || {
                    format!("figure density point noise={noise} di={di} differs from point-major")
                });
            }
            Sweep::Improvement(noise, algos) => {
                let mut means = vec![Welford::new(); algos.len()];
                let mut medians = vec![Welford::new(); algos.len()];
                let t_star = pick(seed, 200 + salt as u64, cfg.trials);
                for t in 0..cfg.trials {
                    let trial_seed = cfg.trial_seed(di, t);
                    let got = improvement::run_trial(cfg, *noise, beacons, trial_seed, algos);
                    for (ai, s) in got.iter().enumerate() {
                        means[ai].push(s.mean);
                        medians[ai].push(s.median);
                    }
                    if t == t_star {
                        let mut close = true;
                        let mirrored = mirror_improvement(
                            cfg,
                            *noise,
                            beacons,
                            trial_seed,
                            algos,
                            None,
                            &mut |extended, after, model| {
                                let full = ErrorMap::survey_point_major(
                                    &lattice, extended, model, cfg.policy,
                                );
                                close &= maps_close(after, &full);
                            },
                        );
                        report.check(close, || {
                            format!("after-map noise={noise} di={di} t={t} differs from a full re-survey")
                        });
                        report.check(same_improvements(&mirrored, &got), || {
                            format!("mirrored improvement trial noise={noise} di={di} t={t} differs from run_trial")
                        });
                    }
                }
                for (ai, (mean_series, median_series)) in curves[si].iter().enumerate() {
                    let mean_ok = same_ci(&ci_of(&means[ai]), &mean_series.points[di].y);
                    let median_ok = median_series
                        .is_none_or(|s| same_ci(&ci_of(&medians[ai]), &s.points[di].y));
                    report.check(mean_ok && median_ok, || {
                        format!("figure improvement point noise={noise} di={di} algo={ai} differs from run_trial")
                    });
                }
            }
        }
    }
}

fn same_density_sample(a: &TrialSample, b: &TrialSample) -> bool {
    a.mean.to_bits() == b.mean.to_bits()
        && a.median.to_bits() == b.median.to_bits()
        && a.unheard_fraction.to_bits() == b.unheard_fraction.to_bits()
}

fn same_improvements(a: &[TrialImprovement], b: &[TrialImprovement]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.mean.to_bits() == y.mean.to_bits() && x.median.to_bits() == y.median.to_bits()
        })
}

fn maps_close(a: &ErrorMap, b: &ErrorMap) -> bool {
    a.len() == b.len()
        && a.lattice()
            .indices()
            .all(|ix| match (a.error_at(ix), b.error_at(ix)) {
                (Some(x), Some(y)) => (x - y).abs() <= AFTER_MAP_TOLERANCE,
                (None, None) => true,
                _ => false,
            })
}

/// Per-call layer times of one mirrored trial.
struct TrialLayers {
    improvement: bool,
    field: Duration,
    sweep: Duration,
    medians: Vec<Duration>,
    clones: Vec<Duration>,
    adds: Vec<Duration>,
    proposes: Vec<(AlgorithmKind, Duration)>,
}

impl TrialLayers {
    fn new(improvement: bool) -> Self {
        TrialLayers {
            improvement,
            field: Duration::ZERO,
            sweep: Duration::ZERO,
            medians: Vec::new(),
            clones: Vec::new(),
            adds: Vec::new(),
            proposes: Vec::new(),
        }
    }

    fn attributed(&self) -> Duration {
        self.field
            + self.sweep
            + self.medians.iter().sum::<Duration>()
            + self.clones.iter().sum::<Duration>()
            + self.adds.iter().sum::<Duration>()
            + self.proposes.iter().map(|p| p.1).sum::<Duration>()
    }
}

#[derive(Default)]
struct Recorder {
    trials: Mutex<Vec<TrialLayers>>,
}

impl Recorder {
    fn push(&self, layers: TrialLayers) {
        self.trials.lock().expect("recorder poisoned").push(layers);
    }
}

fn timed_call<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot = started.elapsed();
    out
}

/// `density_error::run_trial`, step for step, with each crate call timed.
fn mirror_density(
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    trial_seed: u64,
    rec: &Recorder,
) -> TrialSample {
    let mut layers = TrialLayers::new(false);
    let field = timed_call(&mut layers.field, || cfg.trial_field(beacons, trial_seed));
    let model = cfg.model(noise, splitmix64(trial_seed ^ 0x4E_01_5E));
    let lattice = cfg.lattice();
    let sample = with_trial_scratch(|scratch| {
        let map = timed_call(&mut layers.sweep, || {
            ErrorMap::survey_indexed_with(
                &lattice,
                &field,
                &*model,
                cfg.policy,
                &mut scratch.survey,
            )
        });
        let mut took = Duration::ZERO;
        let median = timed_call(&mut took, || scratch.survey.median_error(&map));
        layers.medians.push(took);
        let sample = TrialSample {
            mean: map.mean_error(),
            median,
            unheard_fraction: map.unheard_count() as f64 / map.len() as f64,
        };
        scratch.survey.recycle(map);
        sample
    });
    rec.push(layers);
    sample
}

/// `improvement::run_trial`, step for step, with each crate call timed
/// (when `rec` is given) and every after-map handed to `on_after`.
fn mirror_improvement(
    cfg: &SimConfig,
    noise: f64,
    beacons: usize,
    trial_seed: u64,
    algorithms: &[AlgorithmKind],
    rec: Option<&Recorder>,
    on_after: &mut dyn FnMut(&BeaconField, &ErrorMap, &dyn Propagation),
) -> Vec<TrialImprovement> {
    let mut layers = TrialLayers::new(true);
    let field = timed_call(&mut layers.field, || cfg.trial_field(beacons, trial_seed));
    let model = cfg.model(noise, splitmix64(trial_seed ^ 0x4E_01_5E));
    let lattice = cfg.lattice();
    let samples = with_trial_scratch(|scratch| {
        let before = timed_call(&mut layers.sweep, || {
            ErrorMap::survey_indexed_with(
                &lattice,
                &field,
                &*model,
                cfg.policy,
                &mut scratch.survey,
            )
        });
        let before_mean = before.mean_error();
        let mut took = Duration::ZERO;
        let before_median = timed_call(&mut took, || scratch.survey.median_error(&before));
        layers.medians.push(took);
        let samples = algorithms
            .iter()
            .enumerate()
            .map(|(ai, kind)| {
                let algo = kind.build(cfg);
                let view = SurveyView {
                    map: &before,
                    field: &field,
                    model: &*model,
                };
                let mut rng =
                    StdRng::seed_from_u64(splitmix64(trial_seed ^ ((ai as u64) << 17) ^ 0xA160));
                let pos = timed_call(&mut took, || algo.propose(&view, &mut rng));
                layers.proposes.push((*kind, took));
                let mut extended = field.clone();
                let id = extended.add_beacon(pos);
                let mut after = timed_call(&mut took, || before.clone());
                layers.clones.push(took);
                let added = extended.get(id).expect("just added");
                timed_call(&mut took, || after.add_beacon(added, &*model));
                layers.adds.push(took);
                on_after(&extended, &after, &*model);
                let after_mean = after.mean_error();
                let after_median = timed_call(&mut took, || scratch.survey.median_error(&after));
                layers.medians.push(took);
                TrialImprovement {
                    mean: before_mean - after_mean,
                    median: before_median - after_median,
                }
            })
            .collect();
        scratch.survey.recycle(before);
        samples
    });
    if let Some(rec) = rec {
        rec.push(layers);
    }
    samples
}

/// Collects the runner's own accounting: per-trial busy time (tagged by
/// experiment) and per-density sweep wall time.
#[derive(Default)]
struct LayerProbe {
    improvement: AtomicBool,
    busy: Mutex<Vec<(bool, Duration)>>,
    sweep_wall: Mutex<Duration>,
    failed: AtomicU64,
}

impl Probe for LayerProbe {
    fn sweep_start(&self, experiment: &str, _beacons: usize, _trials: usize) {
        self.improvement
            .store(experiment == improvement::EXPERIMENT, Ordering::Relaxed);
    }

    fn sweep_done(&self, _experiment: &str, _beacons: usize, wall: Duration, _restored: bool) {
        *self.sweep_wall.lock().expect("probe poisoned") += wall;
    }

    fn trial_done(&self, busy: Duration) {
        let improvement = self.improvement.load(Ordering::Relaxed);
        self.busy
            .lock()
            .expect("probe poisoned")
            .push((improvement, busy));
    }

    fn trial_failed(&self, _failure: &TrialFailureReport) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The aggregated curves of one sweep: per algorithm (mean, median) CIs
/// per density (density sweeps: the mean error only).
type SweepCurves = Vec<Vec<(ConfidenceInterval, Option<ConfidenceInterval>)>>;

/// Runs the slice's sweeps with the mirrored trial functions.
fn mirror_slice(
    cfg: &SimConfig,
    slice: Slice,
    probe: &LayerProbe,
    rec: &Arc<Recorder>,
) -> Vec<SweepCurves> {
    let ctx = Ctx::new(probe);
    slice
        .sweeps()
        .into_iter()
        .map(|sweep| match sweep {
            Sweep::Density(noise) => {
                let rec = Arc::clone(rec);
                let out = density_error::run_sweep_with(cfg, noise, ctx, move |c, n, b, s| {
                    mirror_density(c, n, b, s, &rec)
                });
                vec![out.points.iter().map(|p| (p.mean_error, None)).collect()]
            }
            Sweep::Improvement(noise, algos) => {
                let out = improvement::run_sweep_with(cfg, noise, &algos, ctx, |c, n, b, s, a| {
                    mirror_improvement(c, n, b, s, a, Some(rec), &mut |_, _, _| {})
                });
                out.curves
                    .iter()
                    .map(|curve| {
                        curve
                            .points
                            .iter()
                            .map(|p| (p.mean_improvement, Some(p.median_improvement)))
                            .collect()
                    })
                    .collect()
            }
        })
        .collect()
}

/// The traced run: for `budget`, plain slices alternating with mirrored
/// ones (the crates' counters on); reports the per-layer metrics, checks
/// that the layers account for the trial time, and that the mirror
/// reproduces the figures.
pub fn traced(cfg: &SimConfig, slice: Slice, budget: Duration, seed: u64, report: &mut Report) {
    let probe = LayerProbe::default();
    let rec = Arc::new(Recorder::default());
    let started = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first_repeat = None;
    // Plain and traced slices alternate, so both see the same machine.
    while traced_walls.is_empty() || started.elapsed() + 2 * mean(&traced_walls) <= budget {
        let (figs, wall) = plain_slice(cfg, slice, report);
        plain_walls.push(wall);
        let expected = slice.curves(&figs);

        abp_trace::set_enabled(true);
        let links_before = abp_radio::metrics::LINKS_TESTED.total();
        let scanned_before = abp_placement::CANDIDATES_SCANNED.total();
        let threads_before = thread_serial();
        let t = Instant::now();
        let got = mirror_slice(cfg, slice, &probe, &rec);
        traced_walls.push(t.elapsed());
        abp_trace::set_enabled(false);
        if first_repeat.is_none() {
            first_repeat = Some((
                abp_radio::metrics::LINKS_TESTED.total() - links_before,
                abp_placement::CANDIDATES_SCANNED.total() - scanned_before,
                thread_serial() - threads_before - 1,
            ));
        }
        let same = got.iter().zip(&expected).all(|(sweep, series)| {
            sweep
                .iter()
                .zip(series)
                .all(|(points, (mean_s, median_s))| {
                    points.iter().enumerate().all(|(di, (mean_ci, median_ci))| {
                        same_ci(mean_ci, &mean_s.points[di].y)
                            && match (median_ci, median_s) {
                                (Some(ci), Some(s)) => same_ci(ci, &s.points[di].y),
                                _ => true,
                            }
                    })
                })
        });
        report.check(same, || {
            "traced mirror curves differ from the figures".into()
        });
    }
    let (links, scanned, spawned) = first_repeat.expect("one traced repeat ran");
    let failed = probe.failed.load(Ordering::Relaxed);
    let busy = probe.busy.into_inner().expect("probe poisoned");
    report.ops(busy.len() as u64 + failed, failed);

    let trials = Arc::try_unwrap(rec)
        .ok()
        .expect("sweeps have ended")
        .trials
        .into_inner()
        .expect("recorder poisoned");

    let sweep_ms: Vec<f64> = trials.iter().map(|t| ms(t.sweep)).collect();
    let field_us: Vec<f64> = trials.iter().map(|t| us(t.field)).collect();
    let flat = |pick: fn(&TrialLayers) -> &Vec<Duration>| -> Vec<f64> {
        trials
            .iter()
            .flat_map(|t| pick(t).iter().map(|d| us(*d)))
            .collect()
    };
    let medians_us = flat(|t| &t.medians);
    let clones_us = flat(|t| &t.clones);
    let adds_us = flat(|t| &t.adds);
    let propose = |kind: AlgorithmKind| -> Vec<Duration> {
        trials
            .iter()
            .flat_map(|t| t.proposes.iter().filter(move |p| p.0 == kind).map(|p| p.1))
            .collect()
    };
    let grid = propose(AlgorithmKind::Grid);
    let improvement_busy: Duration = busy.iter().filter(|b| b.0).map(|b| b.1).sum();
    let improvement_sweep: Duration = trials
        .iter()
        .filter(|t| t.improvement)
        .map(|t| t.sweep)
        .sum();
    let all_busy: Duration = busy.iter().map(|b| b.1).sum();
    let attributed: Duration = trials.iter().map(TrialLayers::attributed).sum();
    let sweep_wall = probe.sweep_wall.into_inner().expect("probe poisoned");

    report.put("survey.sweep_ms", median(&sweep_ms), "ms", sweep_ms.len());
    report.put(
        "survey.sweep_share",
        ratio(improvement_sweep, improvement_busy),
        "frac",
        busy.iter().filter(|b| b.0).count(),
    );
    report.put("radio.links_tested", links as f64, "count", 1);
    report.put(
        "survey.add_beacon_us",
        median(&adds_us),
        "us",
        adds_us.len(),
    );
    report.put(
        "survey.map_clone_us",
        median(&clones_us),
        "us",
        clones_us.len(),
    );
    report.put(
        "survey.median_us",
        median(&medians_us),
        "us",
        medians_us.len(),
    );
    let p50 = |v: &[Duration], scale: fn(Duration) -> f64| -> f64 {
        median(&v.iter().map(|d| scale(*d)).collect::<Vec<_>>())
    };
    report.put("placement.grid_ms", p50(&grid, ms), "ms", grid.len());
    let max = propose(AlgorithmKind::Max);
    report.put("placement.max_us", p50(&max, us), "us", max.len());
    let random = propose(AlgorithmKind::Random);
    report.put("placement.random_us", p50(&random, us), "us", random.len());
    report.put(
        "placement.grid_share",
        ratio(grid.iter().sum(), improvement_busy),
        "frac",
        grid.len(),
    );
    report.put("placement.candidates_scanned", scanned as f64, "count", 1);
    report.put("field.generate_us", median(&field_us), "us", field_us.len());
    for (improvement, name) in [(false, "density_error"), (true, "improvement")] {
        let per: Vec<f64> = busy
            .iter()
            .filter(|b| b.0 == improvement)
            .map(|b| ms(b.1))
            .collect();
        report.put(
            &format!("sim.{name}.trial_p50_ms"),
            median(&per),
            "ms",
            per.len(),
        );
        report.put(
            &format!("sim.{name}.trial_p99_ms"),
            quantile(&per, 0.99),
            "ms",
            per.len(),
        );
    }
    report.put(
        "sim.busy_frac",
        ratio(all_busy, sweep_wall * THREADS as u32),
        "frac",
        busy.len(),
    );
    report.put("sim.threads_spawned", spawned as f64, "count", 1);
    let unattributed = 1.0 - ratio(attributed, all_busy);
    report.put("sim.unattributed_frac", unattributed, "frac", busy.len());
    report.check((0.0..=MAX_UNATTRIBUTED).contains(&unattributed), || {
        format!("traced layers leave {unattributed:.3} of trial time unattributed")
    });
    let secs = |v: &[Duration]| median(&v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    report.put(
        "trace.overhead_frac",
        secs(&traced_walls) / secs(&plain_walls) - 1.0,
        "frac",
        traced_walls.len(),
    );

    check_mirror_trials(cfg, slice, seed, report);
    allocs_per_trial(cfg, slice, report);
}

/// The serial number std gives the next thread it creates. Serial
/// numbers count every thread the process created, so the difference
/// across a stretch of work, less the probe thread itself, is how many
/// threads that work spawned.
fn thread_serial() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .expect("probe thread");
    let digits: String = format!("{id:?}")
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    digits.parse().expect("ThreadId prints its serial number")
}

fn ratio(part: Duration, whole: Duration) -> f64 {
    part.as_secs_f64() / whole.as_secs_f64()
}

/// The mirrored trial functions against the library's, bit for bit, at a
/// seeded (density, trial) of every sweep.
fn check_mirror_trials(cfg: &SimConfig, slice: Slice, seed: u64, report: &mut Report) {
    let rec = Recorder::default();
    for (si, sweep) in slice.sweeps().iter().enumerate() {
        let di = pick(seed, 300 + si as u64, cfg.beacon_counts.len());
        let t = pick(seed, 400 + si as u64, cfg.trials);
        let beacons = cfg.beacon_counts[di];
        let trial_seed = cfg.trial_seed(di, t);
        let same = match sweep {
            Sweep::Density(noise) => same_density_sample(
                &mirror_density(cfg, *noise, beacons, trial_seed, &rec),
                &density_error::run_trial(cfg, *noise, beacons, trial_seed),
            ),
            Sweep::Improvement(noise, algos) => same_improvements(
                &mirror_improvement(
                    cfg,
                    *noise,
                    beacons,
                    trial_seed,
                    algos,
                    Some(&rec),
                    &mut |_, _, _| {},
                ),
                &improvement::run_trial(cfg, *noise, beacons, trial_seed, algos),
            ),
        };
        report.check(same, || {
            format!("mirrored trial of sweep {si} differs from run_trial")
        });
    }
}

/// Steady-state allocations of the library's trial functions on this
/// thread: one trial per distinct (experiment, algorithms) pair at the
/// slice's largest noise level and density, run once to warm the scratch
/// and once counted.
fn allocs_per_trial(cfg: &SimConfig, slice: Slice, report: &mut Report) {
    let noise = *PaperConfig::NOISE_LEVELS.last().expect("noise levels");
    let noise = if slice == Slice::Ideal { 0.0 } else { noise };
    let di = cfg.beacon_counts.len() - 1;
    let beacons = cfg.beacon_counts[di];
    let trial_seed = cfg.trial_seed(di, 0);
    let algo_sets: Vec<Vec<AlgorithmKind>> = match slice {
        Slice::Ideal => vec![AlgorithmKind::PAPER.to_vec()],
        Slice::Noise => NOISE_ALGORITHMS.iter().map(|a| vec![*a]).collect(),
    };
    let run = || {
        std::hint::black_box(density_error::run_trial(cfg, noise, beacons, trial_seed));
        for algos in &algo_sets {
            std::hint::black_box(improvement::run_trial(
                cfg, noise, beacons, trial_seed, algos,
            ));
        }
    };
    run();
    let before = alloc::allocs();
    run();
    let counted = alloc::allocs() - before;
    let trials = 1 + algo_sets.len();
    report.put(
        "sim.allocs_per_trial",
        counted as f64 / trials as f64,
        "count",
        trials,
    );
}
