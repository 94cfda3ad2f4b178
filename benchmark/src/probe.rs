//! The host-speed probe: a fixed piece of arithmetic, timed in the calling
//! thread's CPU time.
//!
//! The sizing box is a few cores of a shared host, and the speed of a core
//! there changes by up to 1.7× for seconds at a time (clock, or a sibling
//! hardware thread doing someone else's work): one `wire_small` run read
//! 5.8k–6.8k q/s in windows where this probe took 2.0–2.4 ms and 10.7k
//! where it took 1.4 ms. The probe is how the benchmark tells the two
//! apart. Each client takes it at the start of every timed window, and the
//! window's timings are scaled to what they would be on a core that runs
//! the probe in [`REFERENCE_MS`]. Ten seeds of `dashboard_warm`:
//! `queries_per_s` spread 14.3 % as timed and 3.8 % scaled; `wire_small`:
//! 18.7 % and 8.5 %.
//!
//! It is register-to-register arithmetic on purpose. A probe that also
//! walked 4 MiB of memory tracked the workloads worse (7.7 % and 16.5 % on
//! the same runs), and this one leaves `peak_rss_mb` alone. It is timed in
//! thread CPU time so that being descheduled in favour of the benchmark's
//! own other threads does not count; time the host takes away does, as it
//! does for the program under test.

use std::hint::black_box;

/// What the probe takes on the core the timings are scaled to: about what
/// the sizing box usually reads (median 1.9 ms; 1.5–2.5 ms for nine
/// readings in ten, 1.3–3.6 ms over all), so that the scaled numbers stay
/// close to the timed ones.
pub const REFERENCE_MS: f64 = 2.0;

const ROUNDS: usize = 480_000;
const LANES: usize = 64;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of this platform's
    // layout (x86-64 and aarch64 Linux: two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// How much slower than the reference core this thread's core runs right
/// now: the probe's CPU time over [`REFERENCE_MS`]. Takes about 2 ms.
pub fn slowdown() -> f64 {
    let start = thread_cpu_ms();
    let mut acc = [1.0f32; LANES];
    let step = [0.5f32; LANES];
    for _ in 0..ROUNDS {
        for (a, s) in acc.iter_mut().zip(&step) {
            *a = a.mul_add(0.999, *s);
        }
        black_box(&mut acc);
    }
    (thread_cpu_ms() - start) / REFERENCE_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_reads_a_positive_time_that_repeats() {
        let reads: Vec<f64> = (0..5).map(|_| slowdown()).collect();
        let fastest = reads.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = reads.iter().copied().fold(0.0, f64::max);
        assert!(
            fastest > 0.0 && slowest.is_finite(),
            "probe reads {reads:?}"
        );
        assert!(slowest / fastest < 5.0, "probe reads {reads:?}");
    }
}
