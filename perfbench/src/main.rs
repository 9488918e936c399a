//! The repository benchmark: four consensus workloads, each run in a closed
//! loop (one execution or checked cell at a time, back to back, on one
//! thread), printing end-to-end metrics, or with `--trace 1` the same
//! executions split across the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload latency_threshold16 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed to stderr; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod consensus;
mod exec;
mod layers;
mod meter;
mod probe;
mod report;
mod sweep;

use report::Metrics;

/// Delivery-step budget of one execution (the scenario default).
pub const MAX_STEPS: u64 = 500_000_000;

/// Least share of a traced execution's wall time the per-step timings must
/// cover for the layer split to count.
pub const MIN_ACCOUNTED: f64 = 0.8;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for item `index` of random stream `stream`, derived from the
/// workload seed.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream)) ^ index)
}

/// What a run found: operations attempted and failed, and its metrics.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    /// Counts a failed operation and prints its reproduction tuple.
    fn fail(&mut self, repro: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {repro}: {why}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let result = if args.workload == sweep::NAME {
        sweep::run(&args)
    } else if let Some(w) = consensus::Consensus::named(&args.workload) {
        w.run(&args)
    } else {
        Err(format!("unknown workload {}", args.workload))
    };
    match result {
        Ok(out) => {
            let correct = out.failed == 0 && out.attempted > 0;
            out.metrics.print_result(correct, out.attempted, out.failed);
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
