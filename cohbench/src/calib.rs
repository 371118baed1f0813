//! Host-speed normalization.
//!
//! The host these figures are taken on is a small VM whose speed drifts by
//! a third within seconds to minutes, invisibly to the guest (a thread's CPU
//! time equals its wall time). A fixed reference kernel — the benchmark's
//! own code, independent of every product crate, so no change to the
//! product can move it — reads the host's current speed. A [`Stopwatch`]
//! times work in laps of about [`LAP`], runs the kernel between laps
//! (outside the timed interval), and rescales each lap to a host on which
//! the kernel takes [`NOMINAL_MS`].

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The kernel's time, in ms, on the host the figures are normalized to.
pub const NOMINAL_MS: f64 = 4.0;

/// Timed work between two kernel readings.
pub const LAP: Duration = Duration::from_millis(100);

/// Points in the pairwise-distance part (`POINTS²/2` distances).
const POINTS: usize = 1_200;
/// Keys in the sort part.
const KEYS: usize = 120_000;

type Buffers = (Vec<(f64, f64)>, Vec<u64>);

thread_local! {
    /// The kernel's buffers, allocated once and refilled on every call: a
    /// run reads the host a time-dependent number of times, and allocating
    /// per reading would make the peak RSS the run reports depend on it.
    static BUFFERS: RefCell<Buffers> =
        RefCell::new((Vec::with_capacity(POINTS), Vec::with_capacity(KEYS)));
}

/// Runs the kernel once and returns its time in ms: an all-pairs maximum
/// distance over pseudo-random points (the arithmetic shape of the
/// monitors' scans) plus a sort of pseudo-random keys (branches and
/// memory traffic).
pub fn kernel_ms() -> f64 {
    BUFFERS.with(|buffers| {
        let (points, keys) = &mut *buffers.borrow_mut();
        let t0 = Instant::now();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        points.clear();
        points.extend((0..POINTS).map(|_| (unit(next()), unit(next()))));
        let mut best = 0.0f64;
        for i in 0..POINTS {
            for j in (i + 1)..POINTS {
                let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
                best = best.max((dx * dx + dy * dy).sqrt());
            }
        }
        keys.clear();
        keys.extend((0..KEYS).map(|_| next()));
        keys.sort_unstable();
        std::hint::black_box((best, keys[KEYS / 2]));
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// A timed stretch of work: raw seconds, and seconds rescaled to the
/// nominal host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub raw: f64,
    pub normalized: f64,
}

impl Timed {
    /// The host's mean kernel time over the stretch, in ms.
    pub fn host_ms(&self) -> f64 {
        NOMINAL_MS * self.raw / self.normalized
    }

    pub fn scaled(self, by: f64) -> Timed {
        Timed {
            raw: self.raw * by,
            normalized: self.normalized * by,
        }
    }
}

/// Times work in laps; see the module documentation.
pub struct Stopwatch {
    total: Timed,
    /// The kernel reading that opened the current lap.
    host_ms: f64,
    lap_start: Instant,
}

impl Stopwatch {
    /// Reads the host, then starts timing.
    pub fn start() -> Stopwatch {
        let host_ms = kernel_ms();
        Stopwatch {
            total: Timed::default(),
            host_ms,
            lap_start: Instant::now(),
        }
    }

    /// Call often from inside the timed work: closes the lap once it has
    /// run for [`LAP`].
    pub fn tick(&mut self) {
        if self.lap_start.elapsed() >= LAP {
            self.lap();
        }
    }

    /// Closes the lap: each lap is rescaled by the mean of the kernel
    /// readings just before and just after it.
    fn lap(&mut self) {
        let dt = self.lap_start.elapsed().as_secs_f64();
        let k = kernel_ms();
        self.total.raw += dt;
        self.total.normalized += dt * NOMINAL_MS * 2.0 / (self.host_ms + k);
        self.host_ms = k;
        self.lap_start = Instant::now();
    }

    pub fn stop(mut self) -> Timed {
        self.lap();
        self.total
    }
}

/// Times `f` with a [`Stopwatch`] that `f` may tick.
pub fn time<T>(f: impl FnOnce(&mut Stopwatch) -> T) -> (Timed, T) {
    let mut sw = Stopwatch::start();
    let out = f(&mut sw);
    (sw.stop(), out)
}
