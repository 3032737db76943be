//! Metric names, units and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a run
//! prints every end-to-end metric (untraced) or every per-layer metric
//! (traced), each once, and [`emit`] refuses to print anything else.

use ga_simnet::telemetry::ProfileData;

/// End-to-end metrics: `(name, unit)`, as a user of the simulator sees
/// them. Reported by every workload; see `README.md` for what a "pulse"
/// and a "run" are in each.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pulses_per_s", "1/s"),
    ("pulse_ms_p50", "ms"),
    ("pulse_ms_p90", "ms"),
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit, layer, end-to-end metric it should
/// move, workload where the layer does most / least work)`.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str, &str); 29] = [
    ("topology.build_ms", "ms", "simnet::topology", "setup_s", "sparse_wavefront / active_ring"),
    ("store.build_ms", "ms", "simnet::store (build_slab)", "setup_s, peak_rss_mib", "sparse_wavefront / active_ring"),
    ("sim.step_ms", "ms", "simnet::sim", "pulse_ms_p50", "active_ring / protocol_sweep"),
    ("sim.merge_ms", "ms", "simnet::sim + inbox (merge)", "pulse_ms_p50, pulses_per_s", "active_ring / protocol_sweep"),
    ("sim.self_ms", "ms", "simnet::sim (step - on_pulse)", "pulse_ms_p50", "active_ring / protocol_sweep"),
    ("sim.active_mean", "count", "simnet::sim scheduler", "pulses_per_s", "active_ring / sparse_wavefront"),
    ("sim.deliveries", "count", "simnet::trace", "none (must repeat exactly)", "sparse_wavefront, active_ring / protocol_sweep"),
    ("sim.drops_lossy", "count", "simnet::trace", "none (must repeat exactly)", "active_ring / sparse_wavefront"),
    ("sim.drops_fault", "count", "simnet::trace", "none (must repeat exactly)", "active_ring / sparse_wavefront"),
    ("fault.burst_pulse_ms_p50", "ms", "simnet::fault + schedule", "pulse_ms_p90", "active_ring / sparse_wavefront"),
    ("fault.clean_pulse_ms_p50", "ms", "simnet::fault + schedule", "pulse_ms_p90", "active_ring / sparse_wavefront"),
    ("runtime.batches", "count", "simnet::runtime", "pulse_ms_p90, runs_per_s", "sparse_wavefront / protocol_sweep"),
    ("runtime.queue_ms", "ms", "simnet::runtime", "pulse_ms_p90, runs_per_s", "active_ring, protocol_sweep / sparse_wavefront"),
    ("runtime.busy_ms", "ms", "simnet::runtime", "pulse_ms_p90, runs_per_s", "active_ring, protocol_sweep / sparse_wavefront"),
    ("runtime.idle_share", "ratio", "simnet::runtime", "pulse_ms_p90, runs_per_s", "active_ring, protocol_sweep / sparse_wavefront"),
    ("protocol.on_pulse_ms", "ms", "Process::on_pulse (timing shim)", "run_ms_p50, pulses_per_s", "protocol_sweep / active_ring"),
    ("protocol.calls", "count", "Process::on_pulse (timing shim)", "run_ms_p50, pulses_per_s", "active_ring / protocol_sweep"),
    ("protocol.inbox_msgs", "count", "Process::on_pulse (timing shim)", "run_ms_p50, pulses_per_s", "active_ring / protocol_sweep"),
    ("protocol.empty_inbox_ratio", "ratio", "Process::on_pulse (timing shim)", "run_ms_p50, pulses_per_s", "active_ring / sparse_wavefront"),
    ("spec.run_ms", "ms", "scenario::spec", "run_ms_p50", "protocol_sweep / single-simulation workloads"),
    ("spec.harness_ms", "ms", "scenario::spec (run - step)", "run_ms_p50", "protocol_sweep / single-simulation workloads"),
    ("sweep.summary_ms", "ms", "scenario::sweep + json", "runs_per_s", "protocol_sweep / single-simulation workloads"),
    ("sweep.worker_idle_ms", "ms", "scenario::sweep", "runs_per_s", "protocol_sweep / single-simulation workloads"),
    ("sweep.passed", "count", "scenario::sweep", "none (must repeat exactly)", "protocol_sweep / single-simulation workloads"),
    ("suite.stabilize_ms", "ms", "clocksync + agreement (stabilize suite)", "runs_per_s", "protocol_sweep / single-simulation workloads"),
    ("suite.unsupportive_ms", "ms", "scenario::bfs (unsupportive suite)", "runs_per_s", "protocol_sweep / single-simulation workloads"),
    ("suite.authority_ms", "ms", "core authority (authority suite)", "runs_per_s", "protocol_sweep / single-simulation workloads"),
    ("suite.paper_ms", "ms", "bench e1-e8 ports (paper suite)", "runs_per_s", "protocol_sweep / single-simulation workloads"),
    ("trace.overhead", "ratio", "the benchmark (traced / untraced pulses_per_s)", "none", "all"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value (0 where the metric does not apply).
    pub samples: usize,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        value,
        samples,
    }
}

/// `total / units`, or 0 when there were no units.
pub fn per(total: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total / units as f64
    }
}

/// Nanoseconds to milliseconds.
pub fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The profiler accumulators gathered between two snapshots.
pub fn profile_delta(after: &ProfileData, before: &ProfileData) -> ProfileData {
    ProfileData {
        steps: after.steps - before.steps,
        step_ns: after.step_ns - before.step_ns,
        step_hist: std::array::from_fn(|i| after.step_hist[i] - before.step_hist[i]),
        merge_ns: after.merge_ns - before.merge_ns,
        batches: after.batches - before.batches,
        batch_ns: after.batch_ns - before.batch_ns,
        tasks: after.tasks - before.tasks,
        task_queue_ns: after.task_queue_ns - before.task_queue_ns,
        task_busy_ns: after.task_busy_ns - before.task_busy_ns,
    }
}

/// The `runtime.*` metrics of one traced phase, normalised per `units`
/// (simulations or sweep passes) for the batch count.
pub fn runtime_metrics(p: &ProfileData, threads: usize, units: u64) -> Vec<Metric> {
    let tasks = p.tasks.max(1) as usize;
    let capacity = threads as f64 * p.batch_ns as f64;
    let idle = if capacity > 0.0 {
        (1.0 - p.task_busy_ns as f64 / capacity).max(0.0)
    } else {
        0.0
    };
    vec![
        metric(
            "runtime.batches",
            per(p.batches as f64, units),
            units as usize,
        ),
        metric(
            "runtime.queue_ms",
            per(ns_ms(p.task_queue_ns), p.tasks),
            tasks,
        ),
        metric(
            "runtime.busy_ms",
            per(ns_ms(p.task_busy_ns), p.tasks),
            tasks,
        ),
        metric("runtime.idle_share", idle, p.batches as usize),
    ]
}

/// Resets this process's peak resident set size to its current size, so
/// the next [`peak_rss_mib`] reads the peak of one operation rather than
/// of the whole process. Where the kernel refuses, the peak stays the
/// process-wide one.
pub fn reset_peak_rss() {
    // "5" resets VmHWM (proc(5), /proc/pid/clear_refs).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) since the last [`reset_peak_rss`],
/// in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Prints the human-readable report and, as the last line, the result
/// object. `expected` is the metric table this run must cover exactly.
///
/// # Panics
///
/// Panics if `metrics` is not exactly the expected set — a bug in the
/// workload code, not a measurement outcome.
pub fn emit(
    workload: &str,
    trace: bool,
    attempted: u64,
    failed: u64,
    reasons: &[String],
    metrics: &[Metric],
) {
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.0).collect();
    assert_eq!(
        names, want,
        "a run reports exactly its metric table, in order"
    );

    println!(
        "workload {workload} ({})",
        if trace { "traced" } else { "untraced" }
    );
    for (m, (_, unit)) in metrics.iter().zip(&expected) {
        let moves = PER_LAYER
            .iter()
            .find(|row| row.0 == m.name)
            .map(|row| format!("  [{}; moves {}; heavy/light {}]", row.2, row.3, row.4))
            .unwrap_or_default();
        println!(
            "  {:<28} {:>16.6} {:<6} n={}{moves}",
            m.name, m.value, unit, m.samples
        );
    }
    // JSON has no NaN or infinity: a non-finite value is a measurement
    // bug, counted as a failed check and printed as 0.
    let nonfinite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    let failed = failed + nonfinite.len() as u64;
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.6} {:<6} n={attempted}",
        "failed_frac", failed_frac, "ratio"
    );
    for why in reasons {
        println!("  FAILED: {why}");
    }
    for name in &nonfinite {
        println!("  FAILED: {name} is not a finite number");
    }

    let body: Vec<String> = metrics
        .iter()
        .zip(&expected)
        .map(|(m, (_, unit))| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                m.name
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
