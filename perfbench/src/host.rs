//! How fast the shared host runs right now, from fixed kernels of the
//! benchmark's own.
//!
//! On the 2-vCPU virtual machine the benchmark was built on, the same
//! figure slice took from 0.31 to 0.37 s in back-to-back runs, while the
//! ratio of slice time to [`calibrate`]'s time stayed within ±3 %. That
//! kernel is CPU- and L2-bound like the survey sweeps and runs on the
//! same number of threads, so it slows down with them. The serve
//! session's median latency and publish time moved by ±10 % with the
//! host too; [`chunk_times`] times the host's speed while the session
//! runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The kernel's typical time on the machine the benchmark was built on
/// (2 vCPU Intel Xeon): the unit `figures_s` is scaled to.
pub const REFERENCE: Duration = Duration::from_micros(18_500);

/// Runs the kernel on `threads` threads, each xorshifting through its
/// own 256 KiB buffer 200 times, and returns its wall time.
pub fn calibrate(threads: usize) -> Duration {
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut buf = vec![0.0f64; 32 * 1024];
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                for _ in 0..200 {
                    for v in buf.iter_mut() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *v += (x >> 11) as f64 * 1e-16;
                    }
                }
                std::hint::black_box(buf.iter().sum::<f64>());
            });
        }
    });
    started.elapsed()
}

/// The typical chunk time of [`chunk_times`] on the machine the
/// benchmark was built on: the unit the serve latencies are scaled to.
pub const CHUNK_REFERENCE: Duration = Duration::from_nanos(12_000);

extern "C" {
    fn getppid() -> i32;
}

/// Runs small fixed chunks of work until `stop` is set. A chunk is, like
/// a served request, some computation and a few system calls: 8
/// xorshift passes over a 4 KiB buffer and 20 `getppid` calls, about
/// 12 µs in all. Of the kernels tried, this one's time followed the
/// session's median latency and publish time most closely from run to
/// run (correlation 0.89 and 0.90 over 12 runs). Returns, for each `window`
/// of time from `t0` on, the lower quartile of the times of the chunks
/// started in it (`None` if none was). A chunk that another thread
/// preempted takes longer, so the lower quartile is the CPU's own speed
/// as long as the other threads leave it idle more than a quarter of the
/// time.
pub fn chunk_times(stop: &AtomicBool, t0: Instant, window: Duration) -> Vec<Option<Duration>> {
    let mut windows = Vec::new();
    let mut times: Vec<u32> = Vec::with_capacity(16 * 1024);
    let mut buf = vec![0.0f64; 512];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    while !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        for _ in 0..8 {
            for v in buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v += (x >> 11) as f64 * 1e-16;
            }
        }
        for _ in 0..20 {
            // SAFETY: getppid takes no arguments and cannot fail.
            std::hint::black_box(unsafe { getppid() });
        }
        let took = started.elapsed();
        let Some(since) = started.checked_duration_since(t0) else {
            continue;
        };
        let index = (since.as_nanos() / window.as_nanos()) as usize;
        while windows.len() < index {
            windows.push(lower_quartile(&mut times));
            times.clear();
        }
        times.push(took.as_nanos().min(u32::MAX as u128) as u32);
    }
    std::hint::black_box(&buf);
    windows.push(lower_quartile(&mut times));
    windows
}

fn lower_quartile(times: &mut [u32]) -> Option<Duration> {
    if times.is_empty() {
        return None;
    }
    let quarter = times.len() / 4;
    Some(Duration::from_nanos(
        *times.select_nth_unstable(quarter).1 as u64,
    ))
}
