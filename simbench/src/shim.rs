//! The timing shim: a [`Process`] wrapper that times `on_pulse` from
//! outside the protocol.
//!
//! [`Timed`] delegates every `Process` method to the wrapped process —
//! `as_any`/`as_any_mut` included, so verdicts and legality probes that
//! downcast with `Simulation::process_as` still see the protocol's own
//! type. Because of that the wrapper cannot hold its tallies itself; they
//! live outside the process, in one block of counters per thread that only
//! its own thread writes (relaxed atomics, never contended), and
//! [`totals`] sums the blocks of every thread that ever stepped a shimmed
//! process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ga_simnet::prelude::*;
use rand::rngs::StdRng;

/// One thread's tallies. Written only by its owning thread.
#[derive(Default)]
struct Counters {
    calls: AtomicU64,
    nanos: AtomicU64,
    inbox_msgs: AtomicU64,
    empty_inboxes: AtomicU64,
}

/// Every thread's counter block, so totals can be read from any thread.
static REGISTRY: Mutex<Vec<Arc<Counters>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Counters> = {
        let counters = Arc::new(Counters::default());
        REGISTRY
            .lock()
            .expect("registry is only pushed to")
            .push(Arc::clone(&counters));
        counters
    };
}

/// Process-wide shim tallies at one instant; subtract two with
/// [`ShimTotals::since`] to get one phase's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimTotals {
    /// `on_pulse` calls.
    pub calls: u64,
    /// Host nanoseconds inside `on_pulse`, summed over threads.
    pub nanos: u64,
    /// Messages in the inboxes those calls read.
    pub inbox_msgs: u64,
    /// Calls whose inbox was empty.
    pub empty_inboxes: u64,
}

impl ShimTotals {
    /// The tallies accumulated between `before` and `self`.
    pub fn since(&self, before: &ShimTotals) -> ShimTotals {
        ShimTotals {
            calls: self.calls - before.calls,
            nanos: self.nanos - before.nanos,
            inbox_msgs: self.inbox_msgs - before.inbox_msgs,
            empty_inboxes: self.empty_inboxes - before.empty_inboxes,
        }
    }
}

/// Sums every thread's counters. Call it between phases, when no shimmed
/// process is stepping, so the sum is a consistent snapshot.
pub fn totals() -> ShimTotals {
    let registry = REGISTRY.lock().expect("registry is only pushed to");
    let mut sum = ShimTotals::default();
    for c in registry.iter() {
        sum.calls += c.calls.load(Ordering::Relaxed);
        sum.nanos += c.nanos.load(Ordering::Relaxed);
        sum.inbox_msgs += c.inbox_msgs.load(Ordering::Relaxed);
        sum.empty_inboxes += c.empty_inboxes.load(Ordering::Relaxed);
    }
    sum
}

/// Wraps a process and times each of its `on_pulse` calls.
#[derive(Debug)]
pub struct Timed<P>(pub P);

impl<P: Process + 'static> Process for Timed<P> {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let inbox = ctx.inbox().len() as u64;
        let start = Instant::now();
        self.0.on_pulse(ctx);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        LOCAL.with(|c| {
            c.calls.fetch_add(1, Ordering::Relaxed);
            c.nanos.fetch_add(nanos, Ordering::Relaxed);
            c.inbox_msgs.fetch_add(inbox, Ordering::Relaxed);
            c.empty_inboxes
                .fetch_add(u64::from(inbox == 0), Ordering::Relaxed);
        });
    }

    fn scramble(&mut self, rng: &mut StdRng) {
        self.0.scramble(rng);
    }

    fn always_active(&self) -> bool {
        self.0.always_active()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.0.as_any_mut()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_scenario::workload::{MaxGossip, Relay};

    /// A lossy, sharded ring with a recurring corruption burst: every
    /// path the shim could perturb (steps, scrambles, wake-ups, the
    /// quiescence opt-out) is exercised.
    fn gossip_trace(wrapped: bool) -> Trace {
        let n = 64;
        let schedule = Schedule::new().at(
            3,
            ScheduledAction::Corrupt(
                CorruptionFamily::intensity(4, 0.2, 7),
                Recurrence::Every {
                    period: 5,
                    until: 30,
                },
            ),
        );
        let builder = Simulation::builder(Topology::ring(n))
            .seed(11)
            .delivery(Delivery::Lossy { p: 0.1 })
            .schedule(schedule)
            .shards(2)
            .runtime(Runtime::new(2));
        let mut sim = if wrapped {
            builder.build_slab(|id| Timed(MaxGossip::new(id.index() as u64)))
        } else {
            builder.build_slab(|id| MaxGossip::new(id.index() as u64))
        };
        sim.run(40);
        let currents: Vec<u64> = (0..n)
            .map(|i| {
                sim.process_as::<MaxGossip>(ProcessId(i))
                    .expect("gossip")
                    .current
            })
            .collect();
        assert_eq!(currents.len(), n, "downcast reaches the wrapped type");
        sim.trace().clone()
    }

    #[test]
    fn shim_is_transparent() {
        let before = totals();
        let wrapped = gossip_trace(true);
        assert_eq!(wrapped, gossip_trace(false));
        assert!(wrapped.messages_dropped_fault > 0, "bursts fired");
        assert!(
            totals().since(&before).calls >= 64 * 40,
            "every step counted"
        );
    }

    #[test]
    fn shim_keeps_the_quiescence_opt_out() {
        let mut sim = Simulation::builder(Topology::ring(9)).build_slab(|id| {
            Timed(if id.index() == 0 {
                Relay::source()
            } else {
                Relay::default()
            })
        });
        sim.run(6);
        assert_eq!(sim.quiescent_processes(), 9, "wavefront passed, all asleep");
        let hops = sim.process_as::<Relay>(ProcessId(4)).expect("relay").hops;
        assert_eq!(hops, 4);
    }
}
