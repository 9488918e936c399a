//! Timing on a host whose cores are shared with other tenants.
//!
//! When another tenant's thread runs on the sibling hyperthread,
//! throughput-bound code here slows by up to 2× for seconds at a time, and
//! a whole run can land in such a phase; medians over a run cannot remove
//! that. The meter pairs every timed interval with a short reference probe
//! taken right before and right after it: a burst of independent SipHash
//! computations (throughput-bound, so contention slows it) timed against a
//! dependent xorshift chain (latency-bound, so it hardly does), both in
//! this package's own code. Rates count only the intervals whose probe
//! ratio lies within `TOLERANCE` of the run's lowest; every interval is
//! still recorded, and the share counted is printed. When a probe shows
//! contention, the meter moves the benchmark thread to whichever CPU
//! probes best (through `taskset`, when present).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::report::{median, ratio};

/// Hashes per probe (about 20 µs uncontended).
const PROBE_HASHES: u64 = 2_000;

/// How far above the run's lowest probe ratios a probe's ratio may lie and
/// still count as uncontended.
const TOLERANCE: f64 = 0.1;

/// Percentile of the run's probe ratios taken as its uncontended ratio (a
/// low one: contention only ever raises the ratio).
const FAST_PERCENTILE: f64 = 0.02;

/// Steps of the dependent chain each probe also times (twice).
const PROBE_CHAIN: u64 = 4_000;

/// Hash time over chain time above which a run's lowest ratios count as
/// contended: then the run has not yet seen its core to itself. A busy
/// sibling slows the independent hashes (they compete for issue slots)
/// but hardly the dependent chain (bound by latency), so the ratio rises
/// from about 3.0 uncontended to 3.4 and beyond.
const CONTENDED_RATIO: f64 = 3.3;

/// One probe: ns per hash of a burst of independent SipHash computations
/// over ns per step of a dependent xorshift chain.
fn probe() -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..PROBE_HASHES {
        let mut h = DefaultHasher::new();
        black_box(i).hash(&mut h);
        acc = acc.wrapping_add(h.finish());
    }
    black_box(acc);
    let hash_ns = start.elapsed().as_nanos() as f64 / PROBE_HASHES as f64;
    // The faster of two chain timings: an interrupt inside one must not
    // make the ratio look uncontended.
    let chain_ns = (0..2)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..PROBE_CHAIN {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / PROBE_CHAIN as f64
        })
        .fold(f64::INFINITY, f64::min);
    hash_ns / chain_ns
}

#[derive(Clone, Copy, Debug)]
struct Interval {
    ns: f64,
    /// The larger hash-to-chain ratio of those two probes.
    ratio: f64,
    /// A set-up sample rather than measured work.
    setup: bool,
    steps: f64,
    txs: f64,
    ops: f64,
}

/// Seconds of set-up sampled before each operation when set-up is cheap.
const SETUP_BATCH_S: f64 = 0.02;

/// Set-up samples a run takes at least.
const SETUP_MIN_SAMPLES: usize = 3;

/// Least time between two moves to a less contended CPU.
const SETTLE_EVERY: Duration = Duration::from_millis(250);

/// Pins this process's main thread (the benchmark thread) to `cpu`.
fn pin(cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Timed intervals of one run with the work done in each.
pub struct Meter {
    last_probe: f64,
    intervals: Vec<Interval>,
    last_setup_secs: f64,
    /// CPUs the benchmark thread may move between (0: it stays put).
    cpus: usize,
    /// Lowest probe ratio seen so far.
    lowest: f64,
    last_settle: Instant,
}

/// Work per second over the uncontended intervals.
pub struct Rates {
    pub steps_per_s: f64,
    pub txs_per_s: f64,
    pub ops_per_s: f64,
}

impl Meter {
    pub fn new() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut meter = Meter {
            last_probe: probe(),
            intervals: Vec::new(),
            last_setup_secs: 0.0,
            cpus: if cpus > 1 { cpus } else { 0 },
            lowest: f64::INFINITY,
            last_settle: Instant::now(),
        };
        meter.settle();
        meter
    }

    /// Moves the benchmark thread to whichever CPU probes fastest now.
    fn settle(&mut self) {
        let mut best = (f64::INFINITY, 0);
        for cpu in 0..self.cpus {
            if !pin(cpu) {
                self.cpus = 0;
                return;
            }
            let ratio = probe().min(probe());
            if ratio < best.0 {
                best = (ratio, cpu);
            }
        }
        if self.cpus > 0 {
            pin(best.1);
            self.last_probe = probe();
        }
        self.last_settle = Instant::now();
    }

    /// Index the next interval will get.
    pub fn mark(&self) -> usize {
        self.intervals.len()
    }

    fn push(&mut self, start: Instant, setup: bool, steps: u64) -> f64 {
        let ns = start.elapsed().as_nanos() as f64;
        let after = probe();
        let ratio = self.last_probe.max(after);
        self.last_probe = after;
        self.lowest = self.lowest.min(after);
        if after > self.lowest * (1.0 + TOLERANCE) && self.last_settle.elapsed() >= SETTLE_EVERY {
            self.settle();
        }
        self.intervals.push(Interval { ns, ratio, setup, steps: steps as f64, txs: 0.0, ops: 0.0 });
        ns / 1e9
    }

    /// Records one timed interval of measured work and the delivery steps
    /// done in it.
    pub fn record(&mut self, start: Instant, steps: u64) {
        self.push(start, false, steps);
    }

    /// Samples set-up before one operation, so that set-up samples spread
    /// over the whole run: a short batch when set-up is cheap, nothing once
    /// the run holds three samples of a set-up slower than the batch.
    /// Returns the last value built, if a sample was taken.
    pub fn sample_setup<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let batch = Instant::now();
        let mut last = None;
        loop {
            let samples = self.intervals.iter().filter(|i| i.setup).count();
            if samples >= SETUP_MIN_SAMPLES
                && (self.last_setup_secs > SETUP_BATCH_S
                    || batch.elapsed().as_secs_f64() >= SETUP_BATCH_S)
            {
                return Ok(last);
            }
            let start = Instant::now();
            let value = setup()?;
            self.last_setup_secs = self.push(start, true, 0);
            last = Some(value);
        }
    }

    /// Credits `txs` transactions and `ops` operations to the intervals
    /// recorded since `mark`, in proportion to their steps (or time).
    pub fn credit(&mut self, mark: usize, txs: f64, ops: f64) {
        let span = &mut self.intervals[mark..];
        let steps: f64 = span.iter().map(|i| i.steps).sum();
        let ns: f64 = span.iter().map(|i| i.ns).sum();
        for i in span {
            let share = if steps > 0.0 { i.steps / steps } else { ratio(i.ns, ns) };
            i.txs += txs * share;
            i.ops += ops * share;
        }
    }

    /// Seconds of measured work recorded.
    pub fn secs(&self) -> f64 {
        self.intervals.iter().filter(|i| !i.setup).map(|i| i.ns).sum::<f64>() / 1e9
    }

    /// The run's uncontended probe ratio, over every probe of the run,
    /// set-up included.
    fn fast_ratio(&self) -> f64 {
        let mut ratios: Vec<f64> = self.intervals.iter().map(|i| i.ratio).collect();
        ratios.sort_by(f64::total_cmp);
        let at = (ratios.len() as f64 * FAST_PERCENTILE) as usize;
        ratios.get(at.min(ratios.len().saturating_sub(1))).copied().unwrap_or(0.0)
    }

    /// Highest probe ratio of an uncontended interval.
    pub fn limit(&self) -> f64 {
        self.fast_ratio() * (1.0 + TOLERANCE)
    }

    /// Probe ratio of the last interval recorded.
    pub fn last_ratio(&self) -> f64 {
        self.intervals.last().map_or(0.0, |i| i.ratio)
    }

    /// Intervals whose probes ran at the run's uncontended speed.
    fn uncontended(&self) -> impl Iterator<Item = &Interval> {
        let limit = self.limit();
        self.intervals.iter().filter(move |i| i.ratio <= limit)
    }

    /// Seconds of measured work that counted as uncontended — none while
    /// even the run's lowest probe ratios look contended.
    fn uncontended_secs(&self) -> f64 {
        if self.fast_ratio() > CONTENDED_RATIO {
            return 0.0;
        }
        self.uncontended().filter(|i| !i.setup).map(|i| i.ns).sum::<f64>() / 1e9
    }

    /// Share of the measured time that counted as uncontended.
    pub fn uncontended_share(&self) -> f64 {
        ratio(self.uncontended_secs(), self.secs())
    }

    /// `true` once `seconds` of work are recorded, half of them
    /// uncontended — or twice `seconds`, whatever the contention.
    pub fn done(&self, seconds: f64) -> bool {
        let secs = self.secs();
        secs >= 2.0 * seconds || (secs >= seconds && self.uncontended_secs() >= seconds / 2.0)
    }

    /// Steps per uncontended second; transactions and operations per
    /// second follow from it through their ratio to steps over all the
    /// measured work, so the uncontended subset need not mix operations
    /// the way the whole run does.
    pub fn rates(&self) -> Rates {
        let (mut ns, mut steps) = (0.0, 0.0);
        for i in self.uncontended().filter(|i| !i.setup) {
            ns += i.ns;
            steps += i.steps;
        }
        let steps_per_s = ratio(steps, ns / 1e9);
        let (mut all_steps, mut txs, mut ops) = (0.0, 0.0, 0.0);
        for i in self.intervals.iter().filter(|i| !i.setup) {
            all_steps += i.steps;
            txs += i.txs;
            ops += i.ops;
        }
        Rates {
            steps_per_s,
            txs_per_s: steps_per_s * ratio(txs, all_steps),
            ops_per_s: steps_per_s * ratio(ops, all_steps),
        }
    }

    /// Median seconds of the uncontended set-up samples (of all of them
    /// when fewer than three ran uncontended).
    pub fn setup_secs(&self) -> f64 {
        let secs = |i: &Interval| i.ns / 1e9;
        let fast: Vec<f64> = self.uncontended().filter(|i| i.setup).map(secs).collect();
        if fast.len() >= SETUP_MIN_SAMPLES {
            return median(&fast);
        }
        median(&self.intervals.iter().filter(|i| i.setup).map(secs).collect::<Vec<_>>())
    }

    /// Lowest and highest hash-to-chain probe ratio of the run.
    pub fn ratio_range(&self) -> (f64, f64) {
        let r = self.intervals.iter().map(|i| i.ratio);
        (r.clone().fold(f64::INFINITY, f64::min), r.fold(0.0, f64::max))
    }
}
