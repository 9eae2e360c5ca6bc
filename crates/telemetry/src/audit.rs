//! Runtime invariant monitors: structured, windowed auditing of the
//! cluster structure and of trace/counter consistency.
//!
//! The cluster engine's `check_invariants` panics (debug builds) the
//! instant P1 one-hop head separation is violated — correct for unit
//! tests, useless for auditing live runs where a just-detected head–head
//! contact legitimately persists until the loser's resignation commits
//! (possibly deferred by the fault plane's backoff). The [`AuditMonitor`]
//! instead evaluates invariants *with grace windows* over periodic
//! [`AuditSample`]s taken by the run loop, and reports structured
//! [`AuditViolation`]s rather than panicking:
//!
//! 1. **Head separation** — no two adjacent heads persist beyond the
//!    contact-resolution grace window.
//! 2. **Live head** — no member points at a missing/dead head beyond the
//!    grace window.
//! 3. **Repair drains** — the repair queue never stays non-empty longer
//!    than `drain_timeout`.
//! 4. **Reconciliation** — per-class `MsgSent` totals in the trace equal
//!    the run's `Counters` ([`AuditMonitor::reconcile`], exact).

use crate::event::{Event, EventKind, MsgClass, NodeId, Subscriber};

/// Grace windows for the audit invariants, in sim seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// How long an adjacent-head pair or headless member may persist
    /// (covers detection-to-resolution latency of one maintenance pass).
    pub grace: f64,
    /// How long the repair queue may stay continuously non-empty.
    pub drain_timeout: f64,
}

impl Default for AuditConfig {
    /// One second of grace (several 0.25 s maintenance ticks), ten for
    /// backoff-governed repair drains.
    fn default() -> Self {
        AuditConfig {
            grace: 1.0,
            drain_timeout: 10.0,
        }
    }
}

/// One periodic structural observation, computed by the run loop (the
/// telemetry crate sits below the cluster engine and cannot inspect it
/// directly — the loop extracts violations via `Clustering::violations`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditSample {
    /// Sample time, sim seconds.
    pub time: f64,
    /// Currently adjacent head pairs (`a < b`).
    pub adjacent_head_pairs: Vec<(NodeId, NodeId)>,
    /// Members whose recorded head is currently not a live head.
    pub headless_members: Vec<NodeId>,
    /// Nodes currently queued for repair.
    pub repair_pending: u64,
}

/// A structured invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// Two adjacent heads persisted past the grace window.
    AdjacentHeadsPersisted {
        /// Lower head.
        a: NodeId,
        /// Higher head.
        b: NodeId,
        /// When the pair was first observed.
        since: f64,
        /// When the violation was flagged.
        observed: f64,
    },
    /// A member without a live head persisted past the grace window.
    HeadlessMemberPersisted {
        /// The stuck member.
        member: NodeId,
        /// When it was first observed headless.
        since: f64,
        /// When the violation was flagged.
        observed: f64,
    },
    /// The repair queue stayed non-empty past the drain timeout.
    RepairQueueStuck {
        /// When the queue became non-empty.
        since: f64,
        /// When the violation was flagged.
        observed: f64,
        /// Queue length at flag time.
        pending: u64,
    },
    /// Trace and counters disagree on a class's message total.
    CounterMismatch {
        /// The message class.
        class: MsgClass,
        /// Total from the run's `Counters`.
        counted: u64,
        /// Total summed from traced `MsgSent` events.
        traced: u64,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::AdjacentHeadsPersisted {
                a,
                b,
                since,
                observed,
            } => write!(
                f,
                "heads {a} and {b} adjacent since t={since:.2}, unresolved at t={observed:.2}"
            ),
            AuditViolation::HeadlessMemberPersisted {
                member,
                since,
                observed,
            } => write!(
                f,
                "member {member} headless since t={since:.2}, unresolved at t={observed:.2}"
            ),
            AuditViolation::RepairQueueStuck {
                since,
                observed,
                pending,
            } => write!(
                f,
                "repair queue non-empty since t={since:.2} ({pending} pending at t={observed:.2})"
            ),
            AuditViolation::CounterMismatch {
                class,
                counted,
                traced,
            } => write!(
                f,
                "{} messages: counters say {counted}, trace says {traced}",
                class.name()
            ),
        }
    }
}

/// End-of-run audit summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// All violations, in detection order.
    pub violations: Vec<AuditViolation>,
    /// Structural samples audited.
    pub samples: u64,
    /// Trace events observed.
    pub events: u64,
}

impl AuditReport {
    /// Whether the run passed every monitored invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The streaming monitor: feed it every trace event (it is a
/// [`Subscriber`]) plus one [`AuditSample`] per audit window, then call
/// [`AuditMonitor::reconcile`] per class and [`AuditMonitor::finish`].
#[derive(Debug, Clone)]
pub struct AuditMonitor {
    config: AuditConfig,
    pair_since: Vec<((NodeId, NodeId), f64)>,
    headless_since: Vec<(NodeId, f64)>,
    repair_since: Option<f64>,
    msgs: [u64; 8],
    violations: Vec<AuditViolation>,
    samples: u64,
    events: u64,
}

impl AuditMonitor {
    /// A monitor with the given grace windows.
    pub fn new(config: AuditConfig) -> Self {
        AuditMonitor {
            config,
            pair_since: Vec::new(),
            headless_since: Vec::new(),
            repair_since: None,
            msgs: [0; 8],
            violations: Vec::new(),
            samples: 0,
            events: 0,
        }
    }

    /// The configured grace windows.
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Audits one structural sample against the persistence invariants.
    /// A condition that disappears re-arms its grace window; one that is
    /// flagged re-arms too (so a permanently stuck pair is re-reported
    /// once per grace window, not once per sample).
    pub fn sample(&mut self, sample: &AuditSample) {
        self.samples += 1;
        let now = sample.time;
        let grace = self.config.grace;

        let mut kept = Vec::with_capacity(sample.adjacent_head_pairs.len());
        for &pair in &sample.adjacent_head_pairs {
            let since = self
                .pair_since
                .iter()
                .find(|(p, _)| *p == pair)
                .map(|&(_, t)| t)
                .unwrap_or(now);
            if now - since > grace {
                self.violations
                    .push(AuditViolation::AdjacentHeadsPersisted {
                        a: pair.0,
                        b: pair.1,
                        since,
                        observed: now,
                    });
                kept.push((pair, now));
            } else {
                kept.push((pair, since));
            }
        }
        self.pair_since = kept;

        let mut kept = Vec::with_capacity(sample.headless_members.len());
        for &member in &sample.headless_members {
            let since = self
                .headless_since
                .iter()
                .find(|(m, _)| *m == member)
                .map(|&(_, t)| t)
                .unwrap_or(now);
            if now - since > grace {
                self.violations
                    .push(AuditViolation::HeadlessMemberPersisted {
                        member,
                        since,
                        observed: now,
                    });
                kept.push((member, now));
            } else {
                kept.push((member, since));
            }
        }
        self.headless_since = kept;

        if sample.repair_pending == 0 {
            self.repair_since = None;
        } else {
            let since = *self.repair_since.get_or_insert(now);
            if now - since > self.config.drain_timeout {
                self.violations.push(AuditViolation::RepairQueueStuck {
                    since,
                    observed: now,
                    pending: sample.repair_pending,
                });
                self.repair_since = Some(now);
            }
        }
    }

    /// Violations recorded so far — readable mid-run, unlike
    /// [`AuditMonitor::finish`]. The flight-recorder trigger polls this
    /// each tick to dump the event ring on the first violation.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64
    }

    /// Checks the trace's `MsgSent` total for `class` against the run's
    /// counter value; records a [`AuditViolation::CounterMismatch`] and
    /// returns `false` on disagreement.
    pub fn reconcile(&mut self, class: MsgClass, counted: u64) -> bool {
        let traced = self.msgs[class.index()];
        if traced == counted {
            true
        } else {
            self.violations.push(AuditViolation::CounterMismatch {
                class,
                counted,
                traced,
            });
            false
        }
    }

    /// Consumes the monitor and returns the report.
    pub fn finish(self) -> AuditReport {
        AuditReport {
            violations: self.violations,
            samples: self.samples,
            events: self.events,
        }
    }
}

impl Subscriber for AuditMonitor {
    fn event(&mut self, event: &Event) {
        self.events += 1;
        if let EventKind::MsgSent { class, count } = event.kind {
            self.msgs[class.index()] += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Layer;

    fn sample(
        time: f64,
        pairs: &[(NodeId, NodeId)],
        headless: &[NodeId],
        pending: u64,
    ) -> AuditSample {
        AuditSample {
            time,
            adjacent_head_pairs: pairs.to_vec(),
            headless_members: headless.to_vec(),
            repair_pending: pending,
        }
    }

    #[test]
    fn transient_contacts_within_grace_are_tolerated() {
        let mut m = AuditMonitor::new(AuditConfig {
            grace: 1.0,
            drain_timeout: 5.0,
        });
        m.sample(&sample(0.0, &[(2, 5)], &[7], 0));
        // Resolved by the next sample: no violation.
        m.sample(&sample(0.5, &[], &[], 0));
        // Reappears later: grace re-arms.
        m.sample(&sample(3.0, &[(2, 5)], &[], 0));
        m.sample(&sample(3.9, &[(2, 5)], &[], 0));
        let report = m.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.samples, 4);
    }

    #[test]
    fn persistent_violations_are_flagged_once_per_grace_window() {
        let mut m = AuditMonitor::new(AuditConfig {
            grace: 1.0,
            drain_timeout: 2.0,
        });
        for k in 0..=8 {
            m.sample(&sample(k as f64 * 0.5, &[(1, 3)], &[9], 1));
        }
        let report = m.finish();
        let pairs = report
            .violations
            .iter()
            .filter(|v| matches!(v, AuditViolation::AdjacentHeadsPersisted { a: 1, b: 3, .. }))
            .count();
        let headless = report
            .violations
            .iter()
            .filter(|v| matches!(v, AuditViolation::HeadlessMemberPersisted { member: 9, .. }))
            .count();
        let stuck = report
            .violations
            .iter()
            .filter(|v| matches!(v, AuditViolation::RepairQueueStuck { .. }))
            .count();
        // 4 s of persistence with a 1 s grace: flagged at 1.5, 3.0 (and not
        // again before 4.0 runs out) — re-armed, not per-sample spam.
        assert_eq!(pairs, 2, "{:?}", report.violations);
        assert_eq!(headless, 2);
        assert_eq!(stuck, 1, "drain timeout 2 s flags once at 2.5");
        assert!(!report.is_clean());
    }

    #[test]
    fn repair_queue_drain_resets_the_timeout() {
        let mut m = AuditMonitor::new(AuditConfig::default());
        m.sample(&sample(0.0, &[], &[], 3));
        m.sample(&sample(9.0, &[], &[], 1));
        m.sample(&sample(9.5, &[], &[], 0));
        m.sample(&sample(12.0, &[], &[], 2));
        m.sample(&sample(20.0, &[], &[], 0));
        assert!(m.finish().is_clean());
    }

    #[test]
    fn reconcile_flags_mismatches_and_passes_exact_totals() {
        let mut m = AuditMonitor::new(AuditConfig::default());
        let ev = |count| Event {
            time: 1.0,
            layer: Layer::Sim,
            kind: EventKind::MsgSent {
                class: MsgClass::Cluster,
                count,
            },
            cause: None,
        };
        m.event(&ev(3));
        m.event(&ev(4));
        assert!(m.reconcile(MsgClass::Cluster, 7));
        assert!(!m.reconcile(MsgClass::Cluster, 8));
        assert!(m.reconcile(MsgClass::Hello, 0));
        let report = m.finish();
        assert_eq!(report.events, 2);
        assert_eq!(
            report.violations,
            vec![AuditViolation::CounterMismatch {
                class: MsgClass::Cluster,
                counted: 8,
                traced: 7,
            }]
        );
        let text = report.violations[0].to_string();
        assert!(text.contains("CLUSTER"), "{text}");
    }
}
