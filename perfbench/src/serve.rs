//! The serving session: an in-process daemon driven open loop at a fixed
//! Localize rate over one connection, with Place(Grid, apply) writes at a
//! fixed low rate over a second one. In a traced run the request path's
//! layers and the rebuild's parts are timed in process afterwards.

use crate::host;
use crate::report::{median, ms, quantile, us, Report};
use abp_field::BeaconSoA;
use abp_geom::{splitmix64, Point};
use abp_localize::oracle::ConnectivityOracle;
use abp_localize::Localizer;
use abp_placement::{GridPlacement, MaxPlacement, PlacementAlgorithm, SurveyView};
use abp_serve::daemon::{Daemon, ServeConfig};
use abp_serve::engine;
use abp_serve::protocol::{self as wire, PlaceAlgo};
use abp_serve::snapshot::{SnapshotCell, WorldSnapshot, SERVE_POLICY};
use abp_survey::{ErrorMap, SurveyScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered Localize rate: well below what one daemon worker sustains on
/// a 2-core host (replies take ~20 µs at the median, with no queue
/// growth).
pub const READ_RPS: f64 = 10000.0;
/// One Place(Grid, apply) write per this interval (10 per second).
pub const WRITE_EVERY: Duration = Duration::from_millis(100);
/// Distinct Localize requests, cycled through by the generator.
const QUERIES: usize = 1024;
/// Rebuilds timed in process by a traced run.
const REBUILDS: usize = 8;
/// Tiles of every snapshot rebuild sweep. One: the daemon's threads
/// share one core (see [`pin`]), and on 2 cores the tiled sweep is no
/// faster than the sequential one anyway.
const SURVEY_THREADS: usize = 1;
/// How long a reply may take before the session counts it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon config: paper scale (or the tiny test world), 2 workers,
/// single-tile rebuild sweeps, initial field from the workload seed.
pub fn config(tiny: bool, seed: u64) -> ServeConfig {
    let mut cfg = if tiny {
        ServeConfig::tiny()
    } else {
        ServeConfig::paper_scale()
    };
    cfg.workers = 2;
    cfg.survey_threads = SURVEY_THREADS;
    cfg.seed = splitmix64(seed ^ 0x5345_5256_4542_4e43);
    cfg
}

/// A started daemon with its read and write connections.
pub struct Session {
    daemon: Daemon,
    reads: TcpStream,
    writes: TcpStream,
}

fn connect(daemon: &Daemon) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(daemon.local_addr())?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(conn)
}

/// Starts the daemon (its threads pinned to the last allowed CPU) and
/// connects, `repeats` times; all but the last start are shut down
/// again. Returns the last session and every set-up
/// time.
pub fn setup(cfg: &ServeConfig, repeats: usize) -> io::Result<(Session, Vec<Duration>)> {
    let mut times = Vec::with_capacity(repeats);
    loop {
        let started = Instant::now();
        let previous = pin(Cpu::Last);
        let daemon = Daemon::start(cfg);
        if let Some(mask) = previous {
            set_affinity(&mask);
        }
        let daemon = daemon?;
        let reads = connect(&daemon)?;
        let writes = connect(&daemon)?;
        times.push(started.elapsed());
        if times.len() >= repeats {
            let session = Session {
                daemon,
                reads,
                writes,
            };
            return Ok((session, times));
        }
        drop((reads, writes));
        daemon.shutdown();
    }
}

/// One prepared Localize request and the batch pipeline's answer to it.
struct Query {
    ids: Vec<u64>,
    frame: Vec<u8>,
    heard: usize,
    estimate: Option<(u64, u64)>,
}

/// Requests heard at seeded lattice points of `snap`, each with the
/// centroid the batch localizer computes for the same point.
fn queries(snap: &WorldSnapshot, seed: u64) -> Vec<Query> {
    let points: Vec<Point> = snap.map().lattice().points().collect();
    let oracle = snap.oracle();
    let localizer = snap.batch_localizer();
    (0..QUERIES as u64)
        .map(|i| {
            let at = points[(splitmix64(seed ^ i) % points.len() as u64) as usize];
            let mut ids = Vec::new();
            oracle.for_each_heard(at, |b| ids.push(b.id().0));
            let mut frame = Vec::new();
            wire::encode_localize_request(&mut frame, &ids);
            let fix = localizer.try_localize_via(&oracle, at).fix();
            Query {
                ids,
                frame,
                heard: fix.heard,
                estimate: fix.estimate.map(|p| (p.x.to_bits(), p.y.to_bits())),
            }
        })
        .collect()
}

/// What the session saw of the Localize replies.
struct Replies {
    /// Replies taken so far; reply `i` answers request `i`.
    taken: usize,
    latency_us: Vec<f64>,
    /// Which request each of `latency_us` answered.
    answered: Vec<u32>,
    /// `first_seen[e]`: when the first reply of epoch `e` (or later) came.
    first_seen: Vec<Option<Instant>>,
    last_epoch: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Replies {
    fn new(n: usize, epochs: usize) -> Replies {
        Replies {
            taken: 0,
            latency_us: Vec::with_capacity(n),
            answered: Vec::with_capacity(n),
            first_seen: vec![None; epochs + 1],
            last_epoch: 0,
            failed: 0,
            wrong: Vec::new(),
        }
    }

    /// Checks the next reply against the batch answer and, if right,
    /// times it from its request's scheduled send to `now`.
    fn take(&mut self, frame: &[u8], pool: &[Query], sched: Schedule, now: Instant) {
        let i = self.taken;
        self.taken += 1;
        let q = &pool[i % pool.len()];
        let ok = match wire::decode_localize_response(frame) {
            Ok(reply) => {
                let estimate = reply.estimate.map(|p| (p.x.to_bits(), p.y.to_bits()));
                let monotonic = reply.epoch >= self.last_epoch;
                while self.last_epoch < reply.epoch {
                    self.last_epoch += 1;
                    if let Some(slot) = self.first_seen.get_mut(self.last_epoch as usize) {
                        *slot = Some(now);
                    }
                }
                monotonic && estimate == q.estimate && reply.heard as usize == q.heard
            }
            Err(_) => false,
        };
        if ok {
            self.latency_us.push(us(now - sched.due(i)));
            self.answered.push(i as u32);
        } else {
            self.failed += 1;
            if self.wrong.len() < 4 {
                self.wrong
                    .push(format!("localize reply {i} is wrong or not OK"));
            }
        }
    }
}

/// When each Localize request is due.
#[derive(Clone, Copy)]
struct Schedule {
    t0: Instant,
    period_ns: u64,
}

impl Schedule {
    fn due(&self, i: usize) -> Instant {
        self.t0 + Duration::from_nanos(self.period_ns * i as u64)
    }
}

/// Frames arriving on a nonblocking connection.
struct Inbox {
    conn: TcpStream,
    buf: Vec<u8>,
    /// Where the first frame not yet handed out starts in `buf`.
    at: usize,
}

impl Inbox {
    fn new(conn: TcpStream) -> io::Result<Inbox> {
        conn.set_nonblocking(true)?;
        Ok(Inbox {
            conn,
            buf: Vec::with_capacity(1 << 16),
            at: 0,
        })
    }

    /// Takes in what has arrived, without waiting. Fails once the
    /// connection is closed or broken.
    fn poll(&mut self) -> io::Result<()> {
        self.buf.drain(..self.at);
        self.at = 0;
        let mut chunk = [0u8; 4096];
        match self.conn.read(&mut chunk) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(got) => {
                self.buf.extend_from_slice(&chunk[..got]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The payload of the next complete frame, if one has arrived.
    fn frame(&mut self) -> Option<&[u8]> {
        let rest = &self.buf[self.at..];
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        rest.get(4..4 + len)?;
        let start = self.at + 4;
        self.at = start + len;
        Some(&self.buf[start..self.at])
    }

    /// Writes all of `bytes`, spinning while the socket buffer is full,
    /// for at most [`REPLY_TIMEOUT`].
    fn send(&self, bytes: &[u8]) -> bool {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut sent = 0;
        while sent < bytes.len() {
            match (&self.conn).write(&bytes[sent..]) {
                Ok(0) => return false,
                Ok(n) => sent += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) && Instant::now() < deadline =>
                {
                    std::hint::spin_loop()
                }
                Err(_) => return false,
            }
        }
        true
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// A CPU set as `sched_{get,set}affinity` take it (1024 CPUs).
type CpuMask = [u8; 128];

fn set_affinity(mask: &CpuMask) {
    // SAFETY: the kernel reads `mask.len()` bytes from `mask`, a live
    // array of that size; the call only changes this thread's affinity.
    unsafe {
        sched_setaffinity(0, mask.len(), mask.as_ptr());
    }
}

/// Which allowed CPU [`pin`] picks.
#[derive(Clone, Copy)]
enum Cpu {
    /// The load generator's.
    First,
    /// The daemon's.
    Last,
}

/// Pins the calling thread, and the threads it spawns while pinned, to
/// one allowed CPU: the daemon's threads to the last, the load
/// generator's to the first. Client and server then keep their cores
/// from run to run instead of landing wherever the scheduler first puts
/// them; with one allowed CPU they share it. Returns the previous CPU
/// set; best effort.
fn pin(cpu: Cpu) -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 128];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`,
    // a live local array of that size.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (byte, bit) = match cpu {
        Cpu::First => {
            let byte = mask.iter().position(|b| *b != 0)?;
            (byte, mask[byte].trailing_zeros())
        }
        Cpu::Last => {
            let byte = mask.iter().rposition(|b| *b != 0)?;
            (byte, 7 - mask[byte].leading_zeros())
        }
    };
    let mut one: CpuMask = [0; 128];
    one[byte] = 1 << bit;
    set_affinity(&one);
    Some(mask)
}

/// Keeps the daemon's CPU running until `stop` is set, at the lowest
/// scheduling priority (`SCHED_IDLE`), so any daemon thread that becomes
/// runnable takes the CPU at once. A request then wakes a running CPU
/// instead of one the hypervisor has parked, and that wake-up's cost,
/// which the host sets, stays out of the latency. The CPU runs the
/// host-speed kernel meanwhile; returns its chunk time per `window`
/// from `t0` on.
fn pace_daemon_cpu(stop: &AtomicBool, t0: Instant, window: Duration) -> Vec<Option<Duration>> {
    const SCHED_IDLE: i32 = 5;
    let _ = pin(Cpu::Last);
    // SAFETY: the kernel reads one `struct sched_param` (a single int)
    // from a live local; the call only changes this thread's policy.
    unsafe {
        sched_setscheduler(0, SCHED_IDLE, &0);
    }
    host::chunk_times(stop, t0, window)
}

/// Drives the open-loop session for `duration` and reports the serve
/// metrics; then checks the daemon's final state and counts and shuts it
/// down. One thread, on its own CPU, sends every request on schedule and
/// takes every reply as it arrives, never sleeping, so that neither its
/// sends nor its reads wait on a wake-up; a second one keeps the daemon's
/// CPU awake and times the host's speed (see [`pace_daemon_cpu`]).
pub fn run(session: Session, duration: Duration, seed: u64, trace: bool, report: &mut Report) {
    let Session {
        daemon,
        reads,
        writes,
    } = session;
    let snap0 = daemon.snapshot();
    let pool = queries(&snap0, seed);
    let n = (duration.as_secs_f64() * READ_RPS) as usize;
    let k = (duration.as_secs_f64() / WRITE_EVERY.as_secs_f64()) as usize;
    let mut late_us = Vec::with_capacity(n);
    let mut applied_at = Vec::with_capacity(k);
    let mut replies = Replies::new(n, k);
    let mut place_failed = 0u64;
    let mut lost = 0u64;
    let (mut reads, mut writes) = match (Inbox::new(reads), Inbox::new(writes)) {
        (Ok(r), Ok(w)) => (r, w),
        _ => {
            report.check(false, || "cannot make the connections nonblocking".into());
            return;
        }
    };
    let t0 = Instant::now() + Duration::from_millis(5);
    let sched = Schedule {
        t0,
        period_ns: (1e9 / READ_RPS) as u64,
    };
    // Each write goes out at a seeded offset into a read period, so the
    // first reply that shows its epoch is not always the same whole
    // number of periods after it and the publish times do not fall on a
    // grid of read periods.
    let write_due = |w: usize| {
        let offset = splitmix64(seed ^ 0x0057_5249_5445 ^ w as u64) % sched.period_ns;
        t0 + WRITE_EVERY * w as u32 + WRITE_EVERY / 2 + Duration::from_nanos(offset)
    };
    let give_up = sched.due(n) + REPLY_TIMEOUT;
    let stop = AtomicBool::new(false);
    let mut last_send = t0;
    let (chunks, previous) = std::thread::scope(|s| {
        // Spawned before this thread pins itself to the first CPU, so that
        // it still sees the last one and can pin itself there.
        let pacer = s.spawn(|| pace_daemon_cpu(&stop, t0, WRITE_EVERY));
        let previous = pin(Cpu::First);
        let mut req = Vec::new();
        let (mut sent, mut w, mut place_pending) = (0, 0, false);
        loop {
            let now = Instant::now();
            if w < k && !place_pending && write_due(w) <= now {
                wire::encode_place_request(&mut req, PlaceAlgo::Grid, w as u64, true);
                place_pending = writes.send(&req);
                place_failed += u64::from(!place_pending);
                applied_at.push(Instant::now());
                w += 1;
            }
            if sent < n && sched.due(sent) <= now {
                late_us.push(us(now - sched.due(sent)));
                if !reads.send(&pool[sent % pool.len()].frame) {
                    lost = (n - replies.taken) as u64;
                    replies.wrong.push(format!("sending request {sent} failed"));
                    break;
                }
                sent += 1;
                last_send = now;
            }
            if reads.poll().is_err() {
                lost = (n - replies.taken) as u64;
                replies.wrong.push(format!(
                    "read connection lost after {} replies",
                    replies.taken
                ));
                break;
            }
            let arrived = Instant::now();
            while let Some(frame) = reads.frame() {
                replies.take(frame, &pool, sched, arrived);
            }
            if place_pending {
                let answer = match writes.poll() {
                    Ok(()) => writes.frame().map(|frame| {
                        matches!(
                            wire::decode_place_response(frame),
                            Ok(r) if r.applied && r.algo == PlaceAlgo::Grid
                        )
                    }),
                    Err(_) => Some(false),
                };
                if let Some(ok) = answer {
                    place_failed += u64::from(!ok);
                    place_pending = false;
                }
            }
            if replies.taken >= n && w == k && !place_pending {
                break;
            }
            if now > give_up {
                lost = (n - replies.taken) as u64;
                place_failed += u64::from(place_pending);
                replies
                    .wrong
                    .push(format!("only {} of {n} replies came", replies.taken));
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        (pacer.join().expect("pacer panicked"), previous)
    });
    let sending = last_send.saturating_duration_since(t0);

    if let Some(mask) = previous {
        set_affinity(&mask);
    }
    drop((reads, writes));

    let publish_ms: Vec<(usize, f64)> = applied_at
        .iter()
        .enumerate()
        .filter_map(|(w, sent)| {
            let seen = replies.first_seen[w + 1]?;
            Some((w, ms(seen.saturating_duration_since(*sent))))
        })
        .collect();
    report.ops(n as u64, replies.failed + lost);
    report.ops(k as u64, place_failed);
    report.failures.extend(replies.wrong);
    report.check(place_failed == 0, || {
        format!("{place_failed} place requests failed")
    });
    report.check(publish_ms.len() == k, || {
        format!(
            "{} of {k} applies never showed in a reply",
            k - publish_ms.len()
        )
    });

    let last = daemon.snapshot();
    report.check(engine::served_matches_batch(&last, 1), || {
        "final snapshot: served localization differs from batch".into()
    });
    let stats = daemon.shutdown();
    let expected_requests = (n + k) as u64;
    report.check(
        stats.requests == expected_requests
            && stats.errors == 0
            && stats.applies == k as u64
            && stats.final_epoch == k as u64,
        || {
            format!(
                "daemon counts: {} requests (want {expected_requests}), {} errors, {} applies and epoch {} (want {k})",
                stats.requests, stats.errors, stats.applies, stats.final_epoch
            )
        },
    );

    // Latencies in microseconds at the build host's usual speed: each
    // scaled by the host-speed kernel's chunk time in the same write
    // period (see `host::chunk_times`). The raw medians are printed too.
    let known: Vec<f64> = chunks.iter().flatten().map(|c| us(*c)).collect();
    let typical_us = if known.is_empty() {
        us(host::CHUNK_REFERENCE)
    } else {
        median(&known)
    };
    let speed = |window: usize| {
        let chunk_us = chunks.get(window).copied().flatten().map_or(typical_us, us);
        us(host::CHUNK_REFERENCE) / chunk_us
    };
    let reads_per_window = (READ_RPS * WRITE_EVERY.as_secs_f64()) as usize;
    let lat: Vec<f64> = replies
        .latency_us
        .iter()
        .zip(&replies.answered)
        .map(|(l, i)| l * speed(*i as usize / reads_per_window))
        .collect();
    let publish: Vec<f64> = publish_ms.iter().map(|(w, p)| p * speed(*w)).collect();
    report.put("serve_p50_us", median(&lat), "us", lat.len());
    report.put("serve_p90_us", quantile(&lat, 0.90), "us", lat.len());
    report.put("serve_p99_us", quantile(&lat, 0.99), "us", lat.len());
    report.put("publish_p50_ms", median(&publish), "ms", publish.len());
    report.put(
        "serve.wall_p50_us",
        median(&replies.latency_us),
        "us",
        lat.len(),
    );
    let publish_raw: Vec<f64> = publish_ms.iter().map(|(_, p)| *p).collect();
    report.put(
        "publish.wall_p50_ms",
        median(&publish_raw),
        "ms",
        publish.len(),
    );
    report.put("host.chunk_us", typical_us, "us", known.len());
    if trace {
        report.put("serve.requests", stats.requests as f64, "count", 1);
        report.put("serve.errors", stats.errors as f64, "count", 1);
        report.put("serve.applies", stats.applies as f64, "count", 1);
        report.put("serve.final_epoch", stats.final_epoch as f64, "count", 1);
        report.put(
            "loadgen.late_p99_us",
            quantile(&late_us, 0.99),
            "us",
            late_us.len(),
        );
        report.put(
            "loadgen.achieved_rps",
            late_us.len() as f64 / sending.as_secs_f64(),
            "1/s",
            late_us.len(),
        );
        layers(&snap0, &pool, report);
    }
}

/// Median of `batches` timings of `per_batch` operations, in ns per op.
fn ns_per_op(batches: usize, per_batch: usize, mut body: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            body();
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per)
}

/// Times the request path's layers and a chain of rebuilds in process.
fn layers(snap0: &Arc<WorldSnapshot>, pool: &[Query], report: &mut Report) {
    const BATCHES: usize = 31;
    let mut slots = Vec::new();
    let replies: Vec<wire::LocalizeReply> = pool
        .iter()
        .map(|q| engine::localize(snap0, &q.ids, &mut slots).expect("epoch-0 ids resolve"))
        .collect();
    let (mut out, mut ids) = (Vec::new(), Vec::new());
    let codec = ns_per_op(BATCHES, pool.len(), || {
        for (q, reply) in pool.iter().zip(&replies) {
            wire::encode_localize_request(&mut out, &q.ids);
            black_box(wire::decode_request(&out[4..], &mut ids).is_ok());
            wire::encode_localize_response(&mut out, reply);
            black_box(wire::decode_localize_response(&out[4..]).is_ok());
        }
    });
    report.put("serve.codec_ns", codec, "ns", BATCHES);
    let localize = ns_per_op(BATCHES, pool.len(), || {
        for q in pool {
            black_box(engine::localize(snap0, &q.ids, &mut slots).is_ok());
        }
    });
    report.put("serve.localize_ns", localize, "ns", BATCHES);

    let mut rebuild = Vec::new();
    let mut sweep = Vec::new();
    let mut index = Vec::new();
    let mut max = Vec::new();
    let mut grid = Vec::new();
    let mut current: Option<WorldSnapshot> = None;
    for _ in 0..REBUILDS {
        let base: &WorldSnapshot = current.as_ref().unwrap_or(snap0);
        let started = Instant::now();
        let next = base.with_beacon_added(engine::place(base, PlaceAlgo::Grid, 0));
        rebuild.push(started.elapsed());
        let parts = rebuild_parts(&next);
        sweep.push(parts[0]);
        index.push(parts[1]);
        max.push(parts[2]);
        grid.push(parts[3]);
        current = Some(next);
    }
    let p50 = |v: &[Duration]| median(&v.iter().map(|d| ms(*d)).collect::<Vec<_>>());
    report.put("serve.rebuild_ms", p50(&rebuild), "ms", rebuild.len());
    report.put("serve.rebuild_sweep_ms", p50(&sweep), "ms", sweep.len());
    report.put("serve.rebuild_index_ms", p50(&index), "ms", index.len());
    report.put("serve.rebuild_max_ms", p50(&max), "ms", max.len());
    report.put("serve.rebuild_grid_ms", p50(&grid), "ms", grid.len());
    let total = |v: &[Duration]| v.iter().sum::<Duration>().as_secs_f64();
    let parts = total(&sweep) + total(&index) + total(&max) + total(&grid);
    let unattributed = 1.0 - parts / total(&rebuild);
    report.put(
        "serve.rebuild_unattributed_frac",
        unattributed,
        "frac",
        rebuild.len(),
    );
    report.check((-0.15..=0.25).contains(&unattributed), || {
        format!("rebuild parts leave {unattributed:.3} of the rebuild unattributed")
    });

    let cell = SnapshotCell::new(current.expect("at least one rebuild"));
    let mut reader = cell.reader();
    let loads = 4096;
    let load = ns_per_op(BATCHES, loads, || {
        for _ in 0..loads {
            black_box(reader.current().epoch());
        }
    });
    report.put("serve.snapshot_load_ns", load, "ns", BATCHES);
}

/// The parts of `WorldSnapshot::build_with_threads` for `snap`'s world,
/// each timed: sweep, connectivity index and SoA mirror, Max placement,
/// Grid placement.
fn rebuild_parts(snap: &WorldSnapshot) -> [Duration; 4] {
    let field = snap.field();
    let model = snap.model();
    let lattice = snap.map().lattice();
    let mut took = [Duration::ZERO; 4];
    let started = Instant::now();
    let mut scratch = SurveyScratch::new();
    let map = ErrorMap::survey_indexed_with_threads(
        lattice,
        field,
        model,
        SERVE_POLICY,
        &mut scratch,
        SURVEY_THREADS,
    );
    took[0] = started.elapsed();
    let started = Instant::now();
    black_box(ConnectivityOracle::build_index(field, model));
    let mut soa = BeaconSoA::new();
    soa.rebuild_with(field, |b| {
        let r = model.max_range(b.tx(), b.pos());
        r * r
    });
    black_box(&soa);
    took[1] = started.elapsed();
    let view = SurveyView {
        map: &map,
        field,
        model,
    };
    let mut rng = StdRng::seed_from_u64(snap.epoch());
    let started = Instant::now();
    black_box(MaxPlacement::new().propose(&view, &mut rng));
    took[2] = started.elapsed();
    let started = Instant::now();
    black_box(
        GridPlacement::paper(field.terrain(), model.nominal_range()).propose(&view, &mut rng),
    );
    took[3] = started.elapsed();
    took
}
