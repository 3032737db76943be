//! The `protocol_sweep` workload: the registered `stabilize`,
//! `unsupportive`, `authority` and `paper` suites swept over a seed range
//! that starts at the benchmark's seed, on a 2-thread pool with 2 sweep
//! workers and unsharded runs.
//!
//! One pass runs each suite once, exactly as `sweep::sweep_on` does —
//! `jobs_for`, `run_jobs_on`, `SweepSummary::new` — with the stages timed
//! apart, plus the summary's JSON rendering. Passes repeat until the time
//! budget is spent; each must reproduce the first byte for byte.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ga_agreement::consensus::OmConsensus;
use ga_agreement::traits::BaInstance;
use ga_clocksync::pulse::PulseProcess;
use ga_clocksync::ssba::SsbaProcess;
use ga_scenario::prelude::*;
use ga_scenario::stabilize::CORRUPTION_ROUND;
use ga_scenario::suites;
use ga_scenario::sweep::{jobs_for, run_jobs_on};

use crate::checks::{self, Tally};
use crate::report::{self, metric, ns_ms, per, Metric};
use crate::shim::{self, Timed};
use crate::stats::{median, percentile};

/// The suites swept, in order.
const SUITES: [&str; 4] = ["stabilize", "unsupportive", "authority", "paper"];
/// Seeds per scenario in one pass.
const SEEDS_PER_PASS: u64 = 4;
/// Concurrent sweep runs; with unsharded runs this fills the 2-thread pool.
const WORKERS: usize = 2;
/// Unsharded runs: these are n ≤ 16 systems.
const SHARDS: usize = 1;
/// `setup_s` samples per run, at least.
const MIN_SETUPS: usize = 21;
/// Passes an untraced run makes at least: with one pulse-latency sample
/// per seed and pass, 25 passes give the p90 ten samples beyond it.
const MIN_PASSES: u64 = 25;

/// Host time and pulses of one scenario run.
#[derive(Debug, Clone, Copy)]
struct RunTime {
    seed: u64,
    ms: f64,
    rounds: u64,
}

/// Times every run of the wrapped scenario from outside and logs it.
struct Clocked {
    inner: Arc<dyn Scenario>,
    log: Arc<Mutex<Vec<RunTime>>>,
}

impl Clocked {
    fn clocked(&self, seed: u64, run: impl FnOnce() -> RunRecord) -> RunRecord {
        let start = Instant::now();
        let record = run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.log
            .lock()
            .expect("run log is only pushed to")
            .push(RunTime {
                seed,
                ms,
                rounds: record.rounds,
            });
        record
    }
}

impl Scenario for Clocked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, seed: u64) -> RunRecord {
        self.clocked(seed, || self.inner.run(seed))
    }

    fn run_telemetry(
        &self,
        seed: u64,
        shards: usize,
        runtime: &Runtime,
        telemetry: Option<&TelemetryConfig>,
    ) -> RunRecord {
        self.clocked(seed, || {
            self.inner.run_telemetry(seed, shards, runtime, telemetry)
        })
    }

    fn supports_sharding(&self) -> bool {
        self.inner.supports_sharding()
    }
}

/// The pool and the instantiated suites.
struct Prepared {
    rt: Runtime,
    suites: Vec<(&'static str, Vec<Arc<dyn Scenario>>)>,
    log: Arc<Mutex<Vec<RunTime>>>,
}

/// Set-up: pool start plus suite instantiation.
fn prepare() -> Prepared {
    let rt = Runtime::new(WORKERS);
    let log = Arc::new(Mutex::new(Vec::new()));
    let suites = SUITES
        .iter()
        .map(|&name| {
            let suite = suites::find(name).expect("suite is registered");
            let scenarios = suite
                .scenarios()
                .into_iter()
                .map(|inner| {
                    Arc::new(Clocked {
                        inner,
                        log: Arc::clone(&log),
                    }) as Arc<dyn Scenario>
                })
                .collect();
            (name, scenarios)
        })
        .collect();
    Prepared { rt, suites, log }
}

/// Runs `scenarios × seeds` on the pool, returning the records in job
/// order and the sweep's wall time.
fn run_jobs(
    rt: &Runtime,
    scenarios: &[Arc<dyn Scenario>],
    seeds: std::ops::Range<u64>,
) -> (Vec<RunRecord>, f64) {
    let jobs = jobs_for(scenarios, seeds);
    let mut records = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    run_jobs_on(rt, &jobs, WORKERS, SHARDS, None, &mut |_, r| {
        records.push(r)
    });
    (records, start.elapsed().as_secs_f64() * 1e3)
}

/// What the passes of one phase saw.
#[derive(Default)]
struct Passes {
    passes: u64,
    runs: Vec<RunTime>,
    /// Host time of each pass: the suites' sweeps and summaries, not the
    /// benchmark's own checks.
    pass_ms: Vec<f64>,
    /// Per pass and seed: the mean host time of one pulse, i.e. the time
    /// of that seed's runs over their rounds (runs with no rounds, the
    /// simulator-free `paper` ports, left out).
    pulse_ms: Vec<f64>,
    suite_ms: [f64; 4],
    summary_ms: f64,
    idle_ms: f64,
    /// Peak RSS of each pass, MiB.
    peak_rss_mib: Vec<f64>,
    /// Per pass: deliveries, lossy drops, fault drops, passed runs.
    counts: [u64; 4],
    /// The last pass's stabilize records, keyed by (scenario, seed).
    stabilize: HashMap<(String, u64), String>,
}

impl Passes {
    /// Every pass does the same work; this is one pass's share.
    fn per_pass(&self, total: f64) -> f64 {
        total / self.passes as f64
    }

    /// Pulses per host second, from the median pass.
    fn pulses_per_s(&self) -> f64 {
        let pulses: u64 = self.runs.iter().map(|r| r.rounds).sum();
        self.per_pass(pulses as f64) / (median(&self.pass_ms).value / 1e3)
    }

    /// Runs per host second, from the median pass.
    fn runs_per_s(&self) -> f64 {
        self.per_pass(self.runs.len() as f64) / (median(&self.pass_ms).value / 1e3)
    }
}

impl Prepared {
    /// Sweeps every suite once per pass until `budget` has passed.
    /// `reference` holds the first pass's summaries; every later pass
    /// must render identically.
    fn passes(
        &self,
        seed: u64,
        budget: Duration,
        min_passes: u64,
        tally: &mut Tally,
        reference: &mut Vec<String>,
    ) -> Passes {
        let mut out = Passes::default();
        let start = Instant::now();
        while out.passes < min_passes || start.elapsed() < budget {
            let mut pass_ms = 0.0;
            let first_run = out.runs.len();
            let mut counts = [0u64; 4];
            report::reset_peak_rss();
            for (i, (name, scenarios)) in self.suites.iter().enumerate() {
                let suite_start = Instant::now();
                let (records, sweep_ms) =
                    run_jobs(&self.rt, scenarios, seed..seed + SEEDS_PER_PASS);
                let summary_start = Instant::now();
                let summary = SweepSummary::new(*name, records);
                let json = summary.to_json(true).render();
                out.summary_ms += summary_start.elapsed().as_secs_f64() * 1e3;
                let suite_ms = suite_start.elapsed().as_secs_f64() * 1e3;
                out.suite_ms[i] += suite_ms;
                pass_ms += suite_ms;

                let runs: Vec<RunTime> =
                    std::mem::take(&mut *self.log.lock().expect("run log is only pushed to"));
                let busy: f64 = runs.iter().map(|r| r.ms).sum();
                out.idle_ms += (WORKERS as f64 * sweep_ms - busy).max(0.0);
                out.runs.extend(runs);

                for record in &summary.records {
                    tally.record(checks::sweep_rule(name, record));
                    counts[0] += record.messages.delivered;
                    counts[1] += record.messages.dropped_lossy;
                    counts[2] += record.messages.dropped_fault;
                    counts[3] += u64::from(record.verdict.passed());
                    if *name == "stabilize" {
                        out.stabilize.insert(
                            (record.scenario.clone(), record.seed),
                            record.to_json().render(),
                        );
                    }
                }
                match reference.get(i) {
                    None => reference.push(json),
                    Some(first) if *first != json => {
                        tally.fail(format!("{name}: summary changed between passes"));
                    }
                    Some(_) => {}
                }
            }
            out.pass_ms.push(pass_ms);
            for s in seed..seed + SEEDS_PER_PASS {
                let (ms, rounds) = out.runs[first_run..]
                    .iter()
                    .filter(|r| r.seed == s && r.rounds > 0)
                    .fold((0.0, 0), |(ms, rounds), r| (ms + r.ms, rounds + r.rounds));
                out.pulse_ms.push(ms / rounds as f64);
            }
            out.peak_rss_mib.push(report::peak_rss_mib().unwrap_or(0.0));
            if out.passes == 0 {
                out.counts = counts;
            } else if let Err(why) = checks::same("sweep counts", &out.counts, &counts) {
                tally.fail(why);
            }
            out.passes += 1;
        }
        out
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let mut setups = Vec::new();
    let mut prepared = None;
    let start = Instant::now();
    while setups.len() < MIN_SETUPS || start.elapsed() < Duration::from_millis(200) {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare());
        setups.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let mut reference = Vec::new();
    let p = prepared.passes(
        seed,
        Duration::from_secs_f64(seconds),
        MIN_PASSES,
        tally,
        &mut reference,
    );

    let setup = median(&setups);
    let p50 = median(&p.pulse_ms);
    let p90 = percentile(&p.pulse_ms, 0.9).expect("MIN_PASSES gives ten beyond p90");
    let run_ms: Vec<f64> = p.runs.iter().map(|r| r.ms).collect();
    let run = median(&run_ms);
    let rss = median(&p.peak_rss_mib);
    match percentile(&run_ms, 0.9) {
        Ok(p90) => println!(
            "  run_ms_p90 {:.6} ms n={} (report only)",
            p90.value, p90.samples
        ),
        Err(why) => println!("  run_ms_p90 not reported: {why}"),
    }
    vec![
        metric("setup_s", setup.value, setup.samples),
        metric("pulses_per_s", p.pulses_per_s(), p.pass_ms.len()),
        metric("pulse_ms_p50", p50.value, p50.samples),
        metric("pulse_ms_p90", p90.value, p90.samples),
        metric("runs_per_s", p.runs_per_s(), p.pass_ms.len()),
        metric("run_ms_p50", run.value, run.samples),
        metric("peak_rss_mib", rss.value, rss.samples),
    ]
}

/// Salt of the registered `stabilize` frontier's corruption family,
/// repeated here so the re-declared frontier does the same work.
const FRONTIER_SALT: u64 = 0x57AB_112E;
/// Round budget of the registered frontier.
const FRONTIER_BUDGET: u64 = 240;

fn frontier_grid() -> ParamGrid {
    ParamGrid::new()
        .axis("loss", [0.0, 0.05, 0.15])
        .axis("c", [0.3, 1.0])
        .axis("n", [4.0, 7.0])
}

fn param(point: &[(String, f64)], name: &str) -> f64 {
    point
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .expect("grid axis present")
}

/// The frontier's spec around one protocol, with the timing shim inside
/// the factory.
fn frontier_spec(
    name: &str,
    point: &[(String, f64)],
    make: impl Fn(ProcessId, usize) -> Box<dyn Process> + Send + Sync + 'static,
    legal: fn(&Simulation, usize) -> bool,
) -> ScenarioSpec {
    let (loss, c) = (param(point, "loss"), param(point, "c"));
    let n = param(point, "n") as usize;
    let k = ((c * n as f64).ceil() as usize).clamp(1, n);
    let delivery = if loss > 0.0 {
        Delivery::Lossy { p: loss }
    } else {
        Delivery::Reliable
    };
    ScenarioSpec::new(name, TopologyFamily::Complete(n), make)
        .delivery(delivery)
        .schedule(Schedule::new().at(
            CORRUPTION_ROUND,
            ScheduledAction::Corrupt(
                CorruptionFamily::intensity(k, c, FRONTIER_SALT),
                Recurrence::Once,
            ),
        ))
        .max_rounds(FRONTIER_BUDGET)
        .stabilization(CORRUPTION_ROUND, move |sim| legal(sim, n))
        .verdict(|_, record| {
            Verdict::check(
                record.get_metric("censored") == Some(0.0),
                "stabilized within the round budget",
            )
        })
}

fn all_agree<P: 'static>(sim: &Simulation, n: usize, value: impl Fn(&P) -> u64) -> bool {
    let mut first = None;
    (0..n).all(|id| {
        sim.process_as::<P>(ProcessId(id))
            .is_some_and(|p| *first.get_or_insert(value(p)) == value(p))
    })
}

/// The `stabilize_ssba` and `stabilize_pulse` frontier, declared again
/// from the public protocol constructors with [`Timed`] around every
/// process.
fn shimmed_frontier() -> Vec<Arc<dyn Scenario>> {
    let mut scenarios = expand_grid("stabilize_ssba", &frontier_grid(), |point| {
        let n = param(point, "n") as usize;
        let f = (n - 1) / 3;
        let modulus = OmConsensus::new(0, n, f).rounds() + 2;
        frontier_spec(
            "stabilize_ssba",
            point,
            move |id, _| {
                Box::new(Timed(SsbaProcess::new(
                    n,
                    f,
                    modulus,
                    Box::new(OmConsensus::new(id.index(), n, f)),
                    1 + id.index() as u64,
                )))
            },
            |sim, n| all_agree(sim, n, SsbaProcess::clock_value),
        )
    });
    scenarios.extend(expand_grid("stabilize_pulse", &frontier_grid(), |point| {
        let n = param(point, "n") as usize;
        let f = (n - 1) / 3;
        frontier_spec(
            "stabilize_pulse",
            point,
            move |_, _| Box::new(Timed(PulseProcess::new(n, f, 8, 1))),
            |sim, n| all_agree(sim, n, PulseProcess::value),
        )
    }));
    scenarios
}

/// The traced run: half the budget untraced (the overhead baseline),
/// half with a profiler on the pool (and so on every run's simulation),
/// then one pass of the shimmed frontier for the protocol split.
pub fn per_layer(seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let prepared = prepare();
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let mut reference = Vec::new();
    let plain = prepared.passes(seed, budget, 1, tally, &mut reference);

    let profiler = Profiler::new();
    prepared.rt.attach_profiler(profiler.clone());
    let prof0 = profiler.snapshot();
    let p = prepared.passes(seed, budget, 1, tally, &mut reference);
    let prof = report::profile_delta(&profiler.snapshot(), &prof0);
    if let Err(why) = checks::same(
        "sweep counts (traced vs untraced)",
        &plain.counts,
        &p.counts,
    ) {
        tally.fail(why);
    }

    // The protocol split: the frontier again, every process shimmed; its
    // records must equal the registered suite's for the same seeds.
    let (prof1, shim1) = (profiler.snapshot(), shim::totals());
    let (records, _) = run_jobs(
        &prepared.rt,
        &shimmed_frontier(),
        seed..seed + SEEDS_PER_PASS,
    );
    let split = report::profile_delta(&profiler.snapshot(), &prof1);
    let calls = shim::totals().since(&shim1);
    for record in &records {
        let registered = p.stabilize.get(&(record.scenario.clone(), record.seed));
        let outcome = match registered {
            Some(json) if *json == record.to_json().render() => Ok(()),
            Some(_) => Err(format!(
                "{} (seed {}): shimmed record differs",
                record.scenario, record.seed
            )),
            None => Err(format!(
                "{} is not a registered stabilize scenario",
                record.scenario
            )),
        };
        tally.record(outcome);
    }

    let passes = p.passes;
    let step_ms = per(ns_ms(split.step_ns), split.steps);
    let on_pulse_ms = per(ns_ms(calls.nanos), split.steps);
    let run_ms: f64 = p.runs.iter().map(|r| r.ms).sum();
    let n_passes = passes as usize;
    let mut metrics = vec![
        metric("topology.build_ms", 0.0, 0),
        metric("store.build_ms", 0.0, 0),
        metric("sim.step_ms", step_ms, split.steps as usize),
        metric(
            "sim.merge_ms",
            per(ns_ms(split.merge_ns), split.steps),
            split.steps as usize,
        ),
        metric("sim.self_ms", step_ms - on_pulse_ms, split.steps as usize),
        metric(
            "sim.active_mean",
            calls.calls as f64 / split.steps.max(1) as f64,
            split.steps as usize,
        ),
        metric("sim.deliveries", p.counts[0] as f64, n_passes),
        metric("sim.drops_lossy", p.counts[1] as f64, n_passes),
        metric("sim.drops_fault", p.counts[2] as f64, n_passes),
        metric("fault.burst_pulse_ms_p50", 0.0, 0),
        metric("fault.clean_pulse_ms_p50", 0.0, 0),
    ];
    metrics.extend(report::runtime_metrics(
        &prof,
        prepared.rt.threads(),
        passes,
    ));
    metrics.extend([
        metric("protocol.on_pulse_ms", on_pulse_ms, split.steps as usize),
        metric("protocol.calls", calls.calls as f64, records.len()),
        metric(
            "protocol.inbox_msgs",
            calls.inbox_msgs as f64,
            records.len(),
        ),
        metric(
            "protocol.empty_inbox_ratio",
            calls.empty_inboxes as f64 / calls.calls.max(1) as f64,
            calls.calls as usize,
        ),
        metric("spec.run_ms", p.per_pass(run_ms), p.runs.len()),
        metric(
            "spec.harness_ms",
            p.per_pass(run_ms - ns_ms(prof.step_ns)),
            p.runs.len(),
        ),
        metric("sweep.summary_ms", p.per_pass(p.summary_ms), n_passes),
        metric("sweep.worker_idle_ms", p.per_pass(p.idle_ms), n_passes),
        metric("sweep.passed", p.counts[3] as f64, n_passes),
    ]);
    for (i, name) in [
        "suite.stabilize_ms",
        "suite.unsupportive_ms",
        "suite.authority_ms",
        "suite.paper_ms",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.push(metric(name, p.per_pass(p.suite_ms[i]), n_passes));
    }
    metrics.push(metric(
        "trace.overhead",
        p.pulses_per_s() / plain.pulses_per_s(),
        p.runs.len(),
    ));
    metrics
}
