//! `simbench`: the simulator's benchmark, end to end and layer by layer.
//!
//! ```text
//! simbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for about `S` seconds on a 2-thread `Runtime` pool,
//! checks every operation's output, prints a readable report and, as the
//! last line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics (timing shim, profilers) and the tracing
//! overhead. Workloads, metrics and the layer map are documented in this
//! package's `README.md`.

mod checks;
mod report;
mod shim;
mod single;
mod stats;
mod sweeps;

use std::process::ExitCode;

use ga_simnet::runtime::Runtime;

use checks::Tally;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["active_ring", "sparse_wavefront", "protocol_sweep"];

/// Pool threads: the benchmark host has two cores.
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let n: u64 = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
                // The sweep runs seeds [seed, seed + 4): keep clear of overflow.
                if n >= 1 << 63 {
                    return Err(format!("--seed {value}: want below 2^63"));
                }
                seed = Some(n);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Fixes glibc's mmap threshold at its documented default (128 KiB).
/// Left dynamic, glibc raises the threshold after the first large free,
/// and whether later large buffers are then served from a thread's heap
/// arena depends on which pool thread freed what first — the same run's
/// peak RSS then lands on one of several levels tens of MiB apart. A fixed
/// threshold maps every large buffer and unmaps it on free, so the peak
/// RSS follows the live memory the simulator holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    // SAFETY: `mallopt` takes two integers and only updates malloc's own
    // parameters; it is called here before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    fix_mmap_threshold();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("simbench: {why}");
            eprintln!("usage: simbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = match args.workload.as_str() {
        "protocol_sweep" if args.trace => sweeps::per_layer(args.seed, args.seconds, &mut tally),
        "protocol_sweep" => sweeps::end_to_end(args.seed, args.seconds, &mut tally),
        name => {
            let workload = match name {
                "active_ring" => single::active_ring(),
                _ => single::sparse_wavefront(),
            };
            let rt = Runtime::new(THREADS);
            if args.trace {
                workload.per_layer(args.seed, args.seconds, &rt, &mut tally)
            } else {
                workload.end_to_end(args.seed, args.seconds, &rt, &mut tally)
            }
        }
    };
    report::emit(
        &args.workload,
        args.trace,
        tally.attempted,
        tally.failed,
        &tally.reasons,
        &metrics,
    );
    ExitCode::SUCCESS
}
