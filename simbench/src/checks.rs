//! Output checks. Every operation the benchmark times (one simulation, or
//! one scenario run of the sweep) is checked against a rule that does not
//! come from the code under test: a closed-form message count, an
//! eccentricity, or the verdict the suite's own design promises. A broken
//! rule counts one failed operation; `failed / attempted` is the
//! benchmark's `failed_frac`.

use std::fmt::Debug;

use ga_scenario::record::RunRecord;
use ga_simnet::trace::Trace;

/// Failed and attempted operations, with the first few reasons kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that broke a rule.
    pub failed: u64,
    /// The first reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed if `outcome` is an error.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Counts a failure against an operation already attempted (a second
    /// rule broken by the same simulation, say).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// An all-active `ring(n)` under loss: each of the n processes sends to
/// its 2 neighbours every pulse, and every message is either delivered
/// or dropped by the loss model (`drops_fault` overlaps deliveries, so it
/// is not part of the sum). The recurring burst must also have hit some
/// in-flight messages, or the fault path was never measured.
pub fn conserved_ring(trace: &Trace, n: u64, pulses: u64) -> Result<(), String> {
    let want = 2 * n * pulses;
    let got = trace.messages_delivered + trace.messages_dropped_lossy;
    if got != want || trace.messages_dropped_no_link != 0 {
        return Err(format!(
            "ring: delivered {} + lossy {} = {got} (want {want}), no-link {}",
            trace.messages_delivered, trace.messages_dropped_lossy, trace.messages_dropped_no_link
        ));
    }
    if trace.messages_dropped_fault == 0 {
        return Err("ring: no burst destroyed an in-flight message".into());
    }
    Ok(())
}

/// A relay wavefront run to coverage: every process fired, and the
/// farthest hop count is the source's eccentricity.
pub fn wavefront(fired: usize, n: usize, max_hops: u64, eccentricity: u64) -> Result<(), String> {
    if fired != n || max_hops != eccentricity {
        return Err(format!(
            "wavefront: fired {fired}/{n}, max hops {max_hops} (want {eccentricity})"
        ));
    }
    Ok(())
}

/// Deterministic output: a repeat of the same operation must reproduce
/// the first one exactly.
pub fn same<T: PartialEq + Debug>(what: &str, first: &T, now: &T) -> Result<(), String> {
    if first != now {
        return Err(format!(
            "{what} changed between repeats: {first:?} vs {now:?}"
        ));
    }
    Ok(())
}

fn param(record: &RunRecord, name: &str) -> Option<f64> {
    record
        .params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
}

/// The rule each registered suite's design promises for one run, or
/// `Ok` when the run sits on a frontier the suite only charts:
///
/// * `stabilize`: loss-free grid points and the `stabilize_port_*`
///   experiments stabilize (pass);
/// * `unsupportive`: bursts every 15 rounds leave time to recover (pass);
///   full-intensity bursts every 2 rounds never let the tree recover
///   (the verdict fails with censored episodes);
/// * `authority` and `paper`: every run passes.
pub fn sweep_rule(suite: &str, record: &RunRecord) -> Result<(), String> {
    let passed = record.verdict.passed();
    let fail = |want: &str| {
        Err(format!(
            "{suite}: {} (seed {}) should {want}; verdict {:?}",
            record.scenario, record.seed, record.verdict
        ))
    };
    match suite {
        "stabilize" => {
            let ruled = record.scenario.starts_with("stabilize_port_")
                || param(record, "loss") == Some(0.0);
            if ruled && !passed {
                return fail("stabilize");
            }
        }
        "unsupportive" => {
            let (period, c) = (param(record, "period"), param(record, "c"));
            if period == Some(15.0) && !passed {
                return fail("recover between bursts");
            }
            let censored = record.get_metric("censored").unwrap_or(0.0);
            if period == Some(2.0) && c == Some(1.0) && (passed || censored < 1.0) {
                return fail("censor");
            }
        }
        _ => {
            if !passed {
                return fail("pass");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_scenario::record::Verdict;

    fn trace(delivered: u64, lossy: u64, fault: u64) -> Trace {
        let mut t = Trace::default();
        t.messages_delivered = delivered;
        t.messages_dropped_lossy = lossy;
        t.messages_dropped_fault = fault;
        t
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("boom".into()));
        t.fail("again".into());
        assert_eq!((t.attempted, t.failed), (2, 2));
        assert_eq!(t.reasons, ["boom", "again"]);
    }

    #[test]
    fn ring_rejects_a_wrong_count() {
        assert!(conserved_ring(&trace(90, 10, 3), 10, 5).is_ok());
        assert!(conserved_ring(&trace(90, 9, 3), 10, 5).is_err());
        assert!(
            conserved_ring(&trace(90, 10, 0), 10, 5).is_err(),
            "no burst"
        );
        let mut no_link = trace(90, 10, 3);
        no_link.messages_dropped_no_link = 1;
        assert!(conserved_ring(&no_link, 10, 5).is_err());
    }

    #[test]
    fn wavefront_rejects_a_wrong_count() {
        assert!(wavefront(9, 9, 4, 4).is_ok());
        assert!(wavefront(8, 9, 4, 4).is_err());
        assert!(wavefront(9, 9, 5, 4).is_err());
    }

    #[test]
    fn same_rejects_a_changed_repeat() {
        assert!(same("x", &3, &3).is_ok());
        assert!(same("x", &3, &4).is_err());
    }

    fn run(scenario: &str, params: &[(&str, f64)], passed: bool, censored: f64) -> RunRecord {
        let mut r = RunRecord::new(scenario, 1);
        r.params = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        r.metric("censored", censored);
        if !passed {
            r.verdict = Verdict::Fail("x".into());
        }
        r
    }

    #[test]
    fn sweep_rules_follow_the_suites() {
        let lossless = [("loss", 0.0), ("c", 1.0), ("n", 4.0)];
        let lossy = [("loss", 0.15), ("c", 1.0), ("n", 4.0)];
        assert!(sweep_rule("stabilize", &run("s", &lossless, true, 0.0)).is_ok());
        assert!(sweep_rule("stabilize", &run("s", &lossless, false, 1.0)).is_err());
        assert!(
            sweep_rule("stabilize", &run("s", &lossy, false, 1.0)).is_ok(),
            "charted"
        );
        assert!(sweep_rule("stabilize", &run("stabilize_port_x", &[], false, 0.0)).is_err());

        let slow = [("period", 15.0), ("c", 1.0)];
        let fast = [("period", 2.0), ("c", 1.0)];
        let middle = [("period", 4.0), ("c", 1.0)];
        assert!(sweep_rule("unsupportive", &run("u", &slow, true, 0.0)).is_ok());
        assert!(sweep_rule("unsupportive", &run("u", &slow, false, 1.0)).is_err());
        assert!(sweep_rule("unsupportive", &run("u", &fast, false, 7.0)).is_ok());
        assert!(sweep_rule("unsupportive", &run("u", &fast, true, 0.0)).is_err());
        assert!(sweep_rule("unsupportive", &run("u", &fast, false, 0.0)).is_err());
        assert!(sweep_rule("unsupportive", &run("u", &middle, false, 3.0)).is_ok());

        assert!(sweep_rule("paper", &run("e1", &[], true, 0.0)).is_ok());
        assert!(sweep_rule("authority", &run("a", &[], false, 0.0)).is_err());
    }
}
