//! The single-simulation workloads: one `Simulation` per run, built,
//! stepped a fixed number of pulses with each `Simulation::step` timed
//! from outside, checked, and dropped — repeated until the time budget is
//! spent, so every run of a workload does the same deterministic work.

use std::time::{Duration, Instant};

use ga_scenario::workload::{MaxGossip, Relay};
use ga_simnet::prelude::*;
use ga_simnet::sim::SimulationBuilder;

use crate::checks::{self, Tally};
use crate::report::{self, metric, ns_ms, per, Metric};
use crate::shim::{self, Timed};
use crate::stats::{median, percentile};

/// Shards per `Simulation::step`, one per pool thread.
const SHARDS: usize = 2;
/// Pulse samples the untraced phase collects at least, so the p90 has
/// ten samples beyond it even when the time budget is short.
const MIN_PULSES: usize = 100;
/// `setup_s` samples: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET` has passed or `MAX_SETUPS` were taken.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// A freshly built simulation and what building it cost.
struct Built {
    sim: Simulation,
    topology_ms: f64,
    store_ms: f64,
}

/// One single-simulation workload.
pub struct Single {
    /// Processes.
    n: usize,
    /// Pulses per simulation.
    pulses: u64,
    /// Rounds at which the scheduled corruption fires.
    bursts: Vec<u64>,
    build: fn(u64, &Runtime, bool) -> Built,
    check: fn(&Simulation, u64) -> Result<(), String>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds a homogeneous slab population, each process wrapped in the
/// timing shim when `traced`.
fn slab<P: Process + 'static>(
    builder: SimulationBuilder,
    traced: bool,
    make: impl FnMut(ProcessId) -> P,
) -> Simulation {
    if traced {
        let mut make = make;
        builder.build_slab(move |id| Timed(make(id)))
    } else {
        builder.build_slab(make)
    }
}

/// SplitMix64: the benchmark's own seed expander for workload inputs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn builder(topology: Topology, seed: u64, rt: &Runtime) -> SimulationBuilder {
    Simulation::builder(topology)
        .seed(seed)
        .shards(SHARDS)
        .runtime(rt.clone())
}

const RING_N: usize = 100_000;
const RING_PULSES: u64 = 20;
const RING_LOSS: f64 = 0.05;
/// The corruption train: about 1% of processes scrambled and 1% of
/// in-flight messages corrupted or dropped, every `RING_PERIOD` pulses.
const RING_BURST_START: u64 = 2;
const RING_PERIOD: u64 = 4;
const RING_SALT: u64 = 0xB0_A57;

fn ring_recurrence() -> Recurrence {
    Recurrence::Every {
        period: RING_PERIOD,
        until: RING_PULSES - 1,
    }
}

/// All-active `ring(100000)` max-gossip under 5% loss and a recurring
/// corruption burst: little fan-out, so per-process scheduling, loss
/// draws and the fault path cost more than the merge.
pub fn active_ring() -> Single {
    fn build(seed: u64, rt: &Runtime, traced: bool) -> Built {
        let start = Instant::now();
        let topology = Topology::ring(RING_N);
        let topology_ms = ms(start);
        let start = Instant::now();
        let family = CorruptionFamily::intensity(RING_N / 100, 0.01, RING_SALT);
        let schedule = Schedule::new().at(
            RING_BURST_START,
            ScheduledAction::Corrupt(family, ring_recurrence()),
        );
        let builder = builder(topology, seed, rt)
            .delivery(Delivery::Lossy { p: RING_LOSS })
            .schedule(schedule);
        let sim = slab(builder, traced, |id| {
            MaxGossip::new(mix(seed ^ mix(id.index() as u64)) % (1 << 20))
        });
        Built {
            sim,
            topology_ms,
            store_ms: ms(start),
        }
    }
    fn check(sim: &Simulation, pulses: u64) -> Result<(), String> {
        checks::conserved_ring(sim.trace(), RING_N as u64, pulses)
    }
    Single {
        n: RING_N,
        pulses: RING_PULSES,
        bursts: ring_recurrence().firing_rounds(RING_BURST_START),
        build,
        check,
    }
}

const GRID_W: usize = 1000;
const GRID_H: usize = 1000;
const GRID_SOURCE: (usize, usize) = (GRID_W / 2, GRID_H / 2);

/// Hop distance from the source to the farthest grid corner, in closed
/// form (independent of the simulator's own BFS).
const fn grid_eccentricity() -> u64 {
    let (x, y) = GRID_SOURCE;
    let dx = if x > GRID_W - 1 - x {
        x
    } else {
        GRID_W - 1 - x
    };
    let dy = if y > GRID_H - 1 - y {
        y
    } else {
        GRID_H - 1 - y
    };
    (dx + dy) as u64
}

/// A relay wavefront from the centre of the 10⁶-process grid to full
/// coverage: set-up and memory dominate, and each pulse steps only the
/// frontier, so any per-pulse cost in n shows here first.
pub fn sparse_wavefront() -> Single {
    fn build(seed: u64, rt: &Runtime, traced: bool) -> Built {
        let start = Instant::now();
        let topology = Topology::grid(GRID_W, GRID_H);
        let topology_ms = ms(start);
        let start = Instant::now();
        let source = GRID_SOURCE.1 * GRID_W + GRID_SOURCE.0;
        let sim = slab(builder(topology, seed, rt), traced, |id| {
            if id.index() == source {
                Relay::source()
            } else {
                Relay::default()
            }
        });
        Built {
            sim,
            topology_ms,
            store_ms: ms(start),
        }
    }
    fn check(sim: &Simulation, _pulses: u64) -> Result<(), String> {
        let (mut fired, mut max_hops) = (0, 0);
        for i in 0..sim.len() {
            let relay = sim
                .process_as::<Relay>(ProcessId(i))
                .ok_or_else(|| format!("wavefront: process {i} is not a relay"))?;
            if relay.fired {
                fired += 1;
                max_hops = max_hops.max(relay.hops);
            }
        }
        checks::wavefront(fired, sim.len(), max_hops, grid_eccentricity())
    }
    Single {
        n: GRID_W * GRID_H,
        // The source fires at round 0 and the farthest process at round
        // `eccentricity`.
        pulses: grid_eccentricity() + 1,
        bursts: Vec::new(),
        build,
        check,
    }
}

/// A trace's run-wide counters, for the report when two repeats differ.
fn counters(trace: &Trace) -> [u64; 6] {
    [
        trace.messages_delivered,
        trace.bytes_delivered,
        trace.messages_dropped_no_link,
        trace.messages_dropped_lossy,
        trace.messages_dropped_fault,
        trace.rounds,
    ]
}

/// What one measuring phase saw.
#[derive(Default)]
struct Phase {
    pulse_ms: Vec<f64>,
    burst_ms: Vec<f64>,
    clean_ms: Vec<f64>,
    run_ms: Vec<f64>,
    topology_ms: Vec<f64>,
    store_ms: Vec<f64>,
    /// Peak RSS of each simulation, MiB.
    peak_rss_mib: Vec<f64>,
    /// Per simulation: host time inside `Simulation::step`.
    sim_step_ms: Vec<f64>,
    /// Per simulation: build, steps, check and drop.
    sim_wall_ms: Vec<f64>,
    step_ms: f64,
    sims: u64,
    /// Σ over pulses of processes with a non-empty next inbox (traced).
    active: u64,
    trace: Option<Trace>,
}

impl Phase {
    /// Pulses per host second of stepping, from the median simulation.
    fn pulses_per_s(&self, pulses: u64) -> f64 {
        pulses as f64 / (median(&self.sim_step_ms).value / 1e3)
    }

    /// Simulations per host second, from the median simulation.
    fn runs_per_s(&self) -> f64 {
        1e3 / median(&self.sim_wall_ms).value
    }
}

impl Single {
    /// Builds and steps simulations until `budget` has passed and at
    /// least `min_pulses` pulses were timed. Every simulation is checked
    /// and compared with `reference` (the run's first simulation).
    #[allow(clippy::too_many_arguments)]
    fn phase(
        &self,
        seed: u64,
        rt: &Runtime,
        budget: Duration,
        min_pulses: usize,
        traced: Option<&Profiler>,
        tally: &mut Tally,
        reference: &mut Option<Trace>,
    ) -> Phase {
        let mut out = Phase::default();
        let start = Instant::now();
        while start.elapsed() < budget || out.pulse_ms.len() < min_pulses {
            report::reset_peak_rss();
            let run_start = Instant::now();
            let mut sim_step_ms = 0.0;
            let Built {
                mut sim,
                topology_ms,
                store_ms,
            } = (self.build)(seed, rt, traced.is_some());
            if let Some(profiler) = traced {
                sim.set_profiler(profiler.clone());
            }
            for _ in 0..self.pulses {
                let burst = self.bursts.contains(&sim.round().value());
                let t = Instant::now();
                sim.step();
                let step = ms(t);
                sim_step_ms += step;
                out.pulse_ms.push(step);
                if burst {
                    out.burst_ms.push(step);
                } else {
                    out.clean_ms.push(step);
                }
                if traced.is_some() {
                    out.active += (self.n - sim.quiescent_processes()) as u64;
                }
            }
            out.run_ms.push(ms(run_start));
            out.step_ms += sim_step_ms;
            out.sim_step_ms.push(sim_step_ms);
            out.topology_ms.push(topology_ms);
            out.store_ms.push(store_ms);
            out.sims += 1;

            tally.record((self.check)(&sim, self.pulses));
            let trace = sim.trace().clone();
            match reference {
                None => *reference = Some(trace.clone()),
                Some(first) if *first != trace => tally.fail(format!(
                    "trace changed between repeats: counters {:?} vs {:?}",
                    counters(first),
                    counters(&trace)
                )),
                Some(_) => {}
            }
            out.trace = Some(trace);
            out.peak_rss_mib.push(report::peak_rss_mib().unwrap_or(0.0));
            drop(sim);
            out.sim_wall_ms.push(ms(run_start));
        }
        out
    }

    /// `setup_s` samples: topology plus process-table builds, each
    /// simulation dropped before the next is built.
    fn setups(&self, seed: u64, rt: &Runtime) -> Vec<f64> {
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < MIN_SETUPS
            || (samples.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET)
        {
            let built = (self.build)(seed, rt, false);
            samples.push((built.topology_ms + built.store_ms) / 1e3);
        }
        samples
    }

    /// The untraced run: every end-to-end metric.
    pub fn end_to_end(
        &self,
        seed: u64,
        seconds: f64,
        rt: &Runtime,
        tally: &mut Tally,
    ) -> Vec<Metric> {
        let setups = self.setups(seed, rt);
        let mut reference = None;
        let budget = Duration::from_secs_f64(seconds);
        let p = self.phase(seed, rt, budget, MIN_PULSES, None, tally, &mut reference);
        let setup = median(&setups);
        let p50 = median(&p.pulse_ms);
        let p90 = percentile(&p.pulse_ms, 0.9).expect("MIN_PULSES gives ten beyond p90");
        let run = median(&p.run_ms);
        let rss = median(&p.peak_rss_mib);
        match percentile(&p.run_ms, 0.9) {
            Ok(p90) => println!(
                "  run_ms_p90 {:.6} ms n={} (report only)",
                p90.value, p90.samples
            ),
            Err(why) => println!("  run_ms_p90 not reported: {why}"),
        }
        vec![
            metric("setup_s", setup.value, setup.samples),
            metric("pulses_per_s", p.pulses_per_s(self.pulses), p.sims as usize),
            metric("pulse_ms_p50", p50.value, p50.samples),
            metric("pulse_ms_p90", p90.value, p90.samples),
            metric("runs_per_s", p.runs_per_s(), p.sims as usize),
            metric("run_ms_p50", run.value, run.samples),
            metric("peak_rss_mib", rss.value, rss.samples),
        ]
    }

    /// The traced run: half the budget untraced (the overhead baseline),
    /// half with the timing shim around every process and a profiler on
    /// the simulation and the pool.
    pub fn per_layer(
        &self,
        seed: u64,
        seconds: f64,
        rt: &Runtime,
        tally: &mut Tally,
    ) -> Vec<Metric> {
        let budget = Duration::from_secs_f64(seconds / 2.0);
        let mut reference = None;
        let plain = self.phase(seed, rt, budget, 1, None, tally, &mut reference);

        let profiler = Profiler::new();
        rt.attach_profiler(profiler.clone());
        let (prof0, shim0) = (profiler.snapshot(), shim::totals());
        let p = self.phase(seed, rt, budget, 1, Some(&profiler), tally, &mut reference);
        let prof = report::profile_delta(&profiler.snapshot(), &prof0);
        let calls = shim::totals().since(&shim0);

        let pulses = p.pulse_ms.len() as u64;
        let trace = p
            .trace
            .as_ref()
            .expect("a phase runs at least one simulation");
        let step_ms = per(p.step_ms, pulses);
        let on_pulse_ms = per(ns_ms(calls.nanos), pulses);
        let pulse_p50 = |samples: &[f64]| {
            if samples.is_empty() {
                (0.0, 0)
            } else {
                let m = median(samples);
                (m.value, m.samples)
            }
        };
        let (burst, bursts) = pulse_p50(&p.burst_ms);
        let (clean, cleans) = pulse_p50(&p.clean_ms);
        let topology = median(&p.topology_ms);
        let store = median(&p.store_ms);
        let pulses_n = pulses as usize;
        let sims = p.sims as usize;
        let mut metrics = vec![
            metric("topology.build_ms", topology.value, topology.samples),
            metric("store.build_ms", store.value, store.samples),
            metric("sim.step_ms", step_ms, pulses_n),
            metric(
                "sim.merge_ms",
                per(ns_ms(prof.merge_ns), prof.steps),
                prof.steps as usize,
            ),
            metric("sim.self_ms", step_ms - on_pulse_ms, pulses_n),
            metric("sim.active_mean", p.active as f64 / pulses as f64, pulses_n),
            metric("sim.deliveries", trace.messages_delivered as f64, sims),
            metric("sim.drops_lossy", trace.messages_dropped_lossy as f64, sims),
            metric("sim.drops_fault", trace.messages_dropped_fault as f64, sims),
            metric("fault.burst_pulse_ms_p50", burst, bursts),
            metric("fault.clean_pulse_ms_p50", clean, cleans),
        ];
        metrics.extend(report::runtime_metrics(&prof, rt.threads(), p.sims));
        metrics.extend([
            metric("protocol.on_pulse_ms", on_pulse_ms, pulses_n),
            metric("protocol.calls", calls.calls as f64 / p.sims as f64, sims),
            metric(
                "protocol.inbox_msgs",
                calls.inbox_msgs as f64 / p.sims as f64,
                sims,
            ),
            metric(
                "protocol.empty_inbox_ratio",
                calls.empty_inboxes as f64 / calls.calls.max(1) as f64,
                calls.calls as usize,
            ),
        ]);
        for name in [
            "spec.run_ms",
            "spec.harness_ms",
            "sweep.summary_ms",
            "sweep.worker_idle_ms",
            "sweep.passed",
            "suite.stabilize_ms",
            "suite.unsupportive_ms",
            "suite.authority_ms",
            "suite.paper_ms",
        ] {
            metrics.push(metric(name, 0.0, 0));
        }
        metrics.push(metric(
            "trace.overhead",
            p.pulses_per_s(self.pulses) / plain.pulses_per_s(self.pulses),
            pulses_n,
        ));
        metrics
    }
}
