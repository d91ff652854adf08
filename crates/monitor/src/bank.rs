//! The compiled monitor bank: `Sym`-indexed per-signal automata with O(1)
//! state per assertion, mirroring the match automaton's dense-table
//! design — subscriptions live in a `Vec` indexed by raw `Sym` id, so the
//! per-sample hot path is one bounds-checked slot load; signals interned
//! *after* compilation index past the table and are (correctly) ignored.

use std::collections::VecDeque;

use tdf_sim::{Interner, Sample, SimTime, Sym};

use crate::spec::{AssertionExpr, AssertionSpec, CountBound, SignalPred, ThresholdKind};

static MONITOR_SAMPLES: obs::Counter = obs::Counter::new("monitor.samples");
static MONITOR_VIOLATIONS: obs::Counter = obs::Counter::new("monitor.violations");

/// The outcome of one assertion over one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Verdict {
    /// The property held with a non-vacuous witness.
    Holds,
    /// The property was violated.
    Fails {
        /// Dense time of the earliest violation.
        first_violation_time: SimTime,
    },
    /// The property never triggered (e.g. a bounded-response assertion
    /// whose trigger never fired).
    Vacuous,
    /// Not enough trace to decide — no samples, an obligation still open,
    /// a deadline not yet reached, or a degraded (truncated) run.
    #[default]
    Inconclusive,
}

impl Verdict {
    /// True exactly for [`Verdict::Fails`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fails { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Fails {
                first_violation_time,
            } => write!(f, "FAILS @ {first_violation_time}"),
            Verdict::Vacuous => write!(f, "vacuous"),
            Verdict::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// One assertion's verdict, carried through
/// [`TestcaseResult`](../dft_core/struct.TestcaseResult.html)-style run
/// records in spec order (so reports are byte-deterministic regardless of
/// `Sym` id assignment).
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionVerdict {
    /// The assertion's name.
    pub name: String,
    /// Its verdict for this run.
    pub verdict: Verdict,
}

/// Which input of a leaf automaton a subscription feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The (sole) monitored signal, or a `Within` trigger.
    Primary,
    /// A `Within` response.
    Response,
    /// A `Within` whose trigger and response ride the same signal.
    Both,
}

/// One subscription table entry.
#[derive(Debug, Clone, Copy)]
struct Sub {
    leaf: usize,
    role: Role,
}

/// The temporal operator tree with leaves resolved to bank indices.
#[derive(Debug)]
enum CompiledExpr {
    Leaf(usize),
    AllOf(Vec<CompiledExpr>),
    AnyOf(Vec<CompiledExpr>),
    Not(Box<CompiledExpr>),
}

#[derive(Debug)]
struct CompiledAssertion {
    name: String,
    expr: CompiledExpr,
}

/// One leaf automaton. Every variant keeps O(1) state (the recurrence
/// deques are bounded by the count bound, a compile-time constant).
#[derive(Debug)]
enum LeafState {
    Threshold {
        kind: ThresholdKind,
        level: f64,
        hysteresis: f64,
        armed: bool,
        seen: bool,
        fail: Option<SimTime>,
    },
    Settling {
        target: f64,
        epsilon: f64,
        window: SimTime,
        deadline: Option<SimTime>,
        in_band_since: Option<SimTime>,
        settled: bool,
        seen: bool,
        fail: Option<SimTime>,
    },
    Recurrence {
        pred: SignalPred,
        window: SimTime,
        bound: CountBound,
        prev: bool,
        /// Last `n` (at-least) or `n+1` (at-most) rising-edge times.
        edges: VecDeque<SimTime>,
        /// Whether at least one full window was checked (at-least only).
        checked: bool,
        seen: bool,
        fail: Option<SimTime>,
    },
    Within {
        trigger: SignalPred,
        response: SignalPred,
        within: SimTime,
        /// Earliest outstanding trigger time. Discharging the earliest
        /// obligation discharges every later one (any response answering
        /// trigger `t0` also answers all triggers after `t0`), so one
        /// slot suffices.
        pending: Option<SimTime>,
        triggered: bool,
        fail: Option<SimTime>,
    },
}

#[derive(Debug)]
struct Leaf {
    state: LeafState,
    violations: u64,
}

impl Leaf {
    /// Feeds one defined sample value. Total: no arithmetic in here can
    /// panic (window sums saturate, deques are bounded).
    fn step(&mut self, time: SimTime, role: Role, v: f64) {
        match &mut self.state {
            LeafState::Threshold {
                kind,
                level,
                hysteresis,
                armed,
                seen,
                fail,
            } => {
                *seen = true;
                let breach = match kind {
                    ThresholdKind::Above => v > *level,
                    ThresholdKind::Below => v < *level,
                };
                if *armed && breach {
                    self.violations += 1;
                    if fail.is_none() {
                        *fail = Some(time);
                    }
                    *armed = false;
                } else if !*armed && !breach {
                    let rearmed = match kind {
                        ThresholdKind::Above => v <= *level - *hysteresis,
                        ThresholdKind::Below => v >= *level + *hysteresis,
                    };
                    if rearmed {
                        *armed = true;
                    }
                }
            }
            LeafState::Settling {
                target,
                epsilon,
                window,
                deadline,
                in_band_since,
                settled,
                seen,
                fail,
            } => {
                *seen = true;
                if *settled || fail.is_some() {
                    return;
                }
                let in_band = (v - *target).abs() <= *epsilon;
                if in_band {
                    let since = *in_band_since.get_or_insert(time);
                    let achieved = since.saturating_add(*window);
                    if time >= achieved {
                        // The window completed at `achieved` (the signal
                        // was continuously in band since `since`).
                        if let Some(d) = *deadline {
                            if achieved > d {
                                self.violations += 1;
                                *fail = Some(d);
                                return;
                            }
                        }
                        *settled = true;
                        return;
                    }
                } else {
                    *in_band_since = None;
                }
                // Not settled yet: once dense time passes the deadline no
                // in-band run can complete in time any more (a run that
                // could have was caught by the branch above).
                if let Some(d) = *deadline {
                    if time > d {
                        self.violations += 1;
                        *fail = Some(d);
                    }
                }
            }
            LeafState::Recurrence {
                pred,
                window,
                bound,
                prev,
                edges,
                checked,
                seen,
                fail,
            } => {
                *seen = true;
                if fail.is_some() {
                    return;
                }
                let now_true = pred.eval(v);
                let edge = now_true && !*prev;
                *prev = now_true;
                match *bound {
                    CountBound::AtLeast(n) => {
                        if edge {
                            edges.push_back(time);
                            while edges.len() > n as usize {
                                edges.pop_front();
                            }
                        }
                        // Check the full trailing window [t-window, t].
                        if time >= *window {
                            *checked = true;
                            let satisfied = n == 0
                                || (edges.len() == n as usize
                                    && edges
                                        .front()
                                        .is_some_and(|&e| e >= time.saturating_sub(*window)));
                            if !satisfied {
                                self.violations += 1;
                                *fail = Some(time);
                            }
                        }
                    }
                    CountBound::AtMost(n) => {
                        if edge {
                            edges.push_back(time);
                            while edges.len() > n as usize + 1 {
                                edges.pop_front();
                            }
                            if edges.len() == n as usize + 1
                                && edges
                                    .front()
                                    .is_some_and(|&e| time.saturating_sub(e) <= *window)
                            {
                                self.violations += 1;
                                *fail = Some(time);
                            }
                        }
                    }
                }
            }
            LeafState::Within {
                trigger,
                response,
                within,
                pending,
                triggered,
                fail,
            } => {
                if fail.is_some() {
                    return;
                }
                // Expiry first: an overdue obligation fails at its due
                // time no matter what this sample says.
                if let Some(t0) = *pending {
                    let due = t0.saturating_add(*within);
                    if time > due {
                        self.violations += 1;
                        *fail = Some(due);
                        *pending = None;
                        return;
                    }
                }
                if matches!(role, Role::Response | Role::Both) && response.eval(v) {
                    *pending = None;
                }
                if matches!(role, Role::Primary | Role::Both) && trigger.eval(v) {
                    *triggered = true;
                    if pending.is_none() {
                        *pending = Some(time);
                    }
                }
            }
        }
    }

    /// The leaf's verdict once the stream ends at `end`. `degraded` means
    /// the run was truncated (budget trip / panic / error): only latched
    /// in-run violations survive — every end-of-trace synthesis would
    /// reason about trace the simulation never produced.
    fn verdict(&self, end: SimTime, degraded: bool) -> Verdict {
        let latched = match &self.state {
            LeafState::Threshold { fail, .. }
            | LeafState::Settling { fail, .. }
            | LeafState::Recurrence { fail, .. }
            | LeafState::Within { fail, .. } => *fail,
        };
        if let Some(t) = latched {
            return Verdict::Fails {
                first_violation_time: t,
            };
        }
        if degraded {
            return Verdict::Inconclusive;
        }
        match &self.state {
            LeafState::Threshold { seen, .. } => {
                if *seen {
                    Verdict::Holds
                } else {
                    Verdict::Inconclusive
                }
            }
            LeafState::Settling {
                deadline,
                settled,
                seen,
                ..
            } => {
                if *settled {
                    Verdict::Holds
                } else if !*seen {
                    Verdict::Inconclusive
                } else {
                    match *deadline {
                        Some(d) if end < d => Verdict::Inconclusive,
                        Some(d) => Verdict::Fails {
                            first_violation_time: d,
                        },
                        None => Verdict::Fails {
                            first_violation_time: end,
                        },
                    }
                }
            }
            LeafState::Recurrence {
                bound,
                checked,
                seen,
                ..
            } => {
                if !*seen {
                    Verdict::Inconclusive
                } else {
                    match bound {
                        CountBound::AtLeast(_) if !*checked => Verdict::Inconclusive,
                        _ => Verdict::Holds,
                    }
                }
            }
            LeafState::Within {
                within,
                pending,
                triggered,
                ..
            } => match pending {
                Some(t0) => {
                    let due = t0.saturating_add(*within);
                    if end > due {
                        Verdict::Fails {
                            first_violation_time: due,
                        }
                    } else {
                        Verdict::Inconclusive
                    }
                }
                None => {
                    if *triggered {
                        Verdict::Holds
                    } else {
                        Verdict::Vacuous
                    }
                }
            },
        }
    }
}

/// The compiled, streaming evaluation engine for a list of
/// [`AssertionSpec`]s over one simulation run.
///
/// Compile once per run ([`MonitorBank::compile`]), feed every tapped
/// sample ([`MonitorBank::observe`] — usually via
/// [`MonitorSink`](crate::MonitorSink)), then [`MonitorBank::finalize`]
/// into per-assertion [`AssertionVerdict`]s. Verdicts are emitted in spec
/// order, so they are byte-deterministic regardless of thread count or
/// `Sym` id assignment order.
#[derive(Debug)]
pub struct MonitorBank {
    assertions: Vec<CompiledAssertion>,
    leaves: Vec<Leaf>,
    /// Subscriptions indexed by raw `Sym` id; syms interned after
    /// compilation index past the end and have no subscribers.
    subs: Vec<Vec<Sub>>,
    samples: u64,
}

impl MonitorBank {
    /// Compiles `specs` against `interner` (the design-wide interner the
    /// simulation records against, so tapped `Sym`s and subscriptions
    /// agree on ids).
    pub fn compile(specs: &[AssertionSpec], interner: &Interner) -> MonitorBank {
        let mut bank = MonitorBank {
            assertions: Vec::with_capacity(specs.len()),
            leaves: Vec::new(),
            subs: Vec::new(),
            samples: 0,
        };
        for spec in specs {
            let expr = bank.compile_expr(&spec.expr, interner);
            bank.assertions.push(CompiledAssertion {
                name: spec.name.clone(),
                expr,
            });
        }
        bank
    }

    fn subscribe(&mut self, sym: Sym, leaf: usize, role: Role) {
        let idx = sym.0 as usize;
        if self.subs.len() <= idx {
            self.subs.resize_with(idx + 1, Vec::new);
        }
        self.subs[idx].push(Sub { leaf, role });
    }

    fn compile_expr(&mut self, expr: &AssertionExpr, interner: &Interner) -> CompiledExpr {
        match expr {
            AssertionExpr::Threshold {
                signal,
                kind,
                level,
                hysteresis,
            } => {
                let leaf = self.push_leaf(LeafState::Threshold {
                    kind: *kind,
                    level: *level,
                    hysteresis: *hysteresis,
                    armed: true,
                    seen: false,
                    fail: None,
                });
                self.subscribe(interner.intern(signal), leaf, Role::Primary);
                CompiledExpr::Leaf(leaf)
            }
            AssertionExpr::SettlingTime {
                signal,
                target,
                epsilon,
                window,
                deadline,
            } => {
                let leaf = self.push_leaf(LeafState::Settling {
                    target: *target,
                    epsilon: *epsilon,
                    window: *window,
                    deadline: *deadline,
                    in_band_since: None,
                    settled: false,
                    seen: false,
                    fail: None,
                });
                self.subscribe(interner.intern(signal), leaf, Role::Primary);
                CompiledExpr::Leaf(leaf)
            }
            AssertionExpr::RecurrenceWindow {
                signal,
                pred,
                window,
                bound,
            } => {
                let leaf = self.push_leaf(LeafState::Recurrence {
                    pred: *pred,
                    window: *window,
                    bound: *bound,
                    prev: false,
                    edges: VecDeque::new(),
                    checked: false,
                    seen: false,
                    fail: None,
                });
                self.subscribe(interner.intern(signal), leaf, Role::Primary);
                CompiledExpr::Leaf(leaf)
            }
            AssertionExpr::Within {
                trigger_signal,
                trigger,
                response_signal,
                response,
                within,
            } => {
                let leaf = self.push_leaf(LeafState::Within {
                    trigger: *trigger,
                    response: *response,
                    within: *within,
                    pending: None,
                    triggered: false,
                    fail: None,
                });
                let t = interner.intern(trigger_signal);
                let r = interner.intern(response_signal);
                if t == r {
                    self.subscribe(t, leaf, Role::Both);
                } else {
                    self.subscribe(t, leaf, Role::Primary);
                    self.subscribe(r, leaf, Role::Response);
                }
                CompiledExpr::Leaf(leaf)
            }
            AssertionExpr::AllOf(es) => {
                CompiledExpr::AllOf(es.iter().map(|e| self.compile_expr(e, interner)).collect())
            }
            AssertionExpr::AnyOf(es) => {
                CompiledExpr::AnyOf(es.iter().map(|e| self.compile_expr(e, interner)).collect())
            }
            AssertionExpr::Not(e) => CompiledExpr::Not(Box::new(self.compile_expr(e, interner))),
        }
    }

    fn push_leaf(&mut self, state: LeafState) -> usize {
        self.leaves.push(Leaf {
            state,
            violations: 0,
        });
        self.leaves.len() - 1
    }

    /// Number of compiled assertions.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// Whether the bank monitors nothing.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Samples observed so far.
    pub fn samples_observed(&self) -> u64 {
        self.samples
    }

    /// Feeds one tapped sample. Undefined samples carry no value and only
    /// count toward the sample total; unsubscribed signals are one slot
    /// load. Total: never panics, on any input.
    pub fn observe(&mut self, time: SimTime, signal: Sym, sample: &Sample) {
        self.samples += 1;
        if !sample.defined {
            return;
        }
        let idx = signal.0 as usize;
        let n = self.subs.get(idx).map_or(0, Vec::len);
        if n == 0 {
            return;
        }
        let v = sample.value.as_f64();
        for i in 0..n {
            let sub = self.subs[idx][i];
            self.leaves[sub.leaf].step(time, sub.role, v);
        }
    }

    /// Ends the stream at `end` (the requested run duration for healthy
    /// runs) and resolves every assertion. `degraded` marks a truncated
    /// run: observed violations stay `Fails` (a witnessed violation is
    /// real no matter how the run ended), everything else is forced
    /// `Inconclusive` — a truncated trace must never report a pass.
    ///
    /// Publishes `monitor.samples` / `monitor.violations` counter deltas
    /// when metrics are enabled, then resets them, so calling `finalize`
    /// once per run reports exact per-run totals.
    pub fn finalize(&mut self, end: SimTime, degraded: bool) -> Vec<AssertionVerdict> {
        let leaf_verdicts: Vec<Verdict> = self
            .leaves
            .iter()
            .map(|l| l.verdict(end, degraded))
            .collect();
        let out = self
            .assertions
            .iter()
            .map(|a| {
                let mut verdict = resolve(&a.expr, &leaf_verdicts, end);
                if degraded && !verdict.is_fail() {
                    verdict = Verdict::Inconclusive;
                }
                AssertionVerdict {
                    name: a.name.clone(),
                    verdict,
                }
            })
            .collect();
        if obs::metrics_enabled() {
            MONITOR_SAMPLES.add(std::mem::take(&mut self.samples));
            let violations: u64 = self.leaves.iter().map(|l| l.violations).sum();
            MONITOR_VIOLATIONS.add(violations);
            for l in &mut self.leaves {
                l.violations = 0;
            }
        }
        out
    }
}

/// Resolves a combinator tree over already-computed leaf verdicts.
fn resolve(expr: &CompiledExpr, leaves: &[Verdict], end: SimTime) -> Verdict {
    match expr {
        CompiledExpr::Leaf(i) => leaves[*i],
        CompiledExpr::Not(e) => match resolve(e, leaves, end) {
            Verdict::Holds => Verdict::Fails {
                first_violation_time: end,
            },
            Verdict::Fails { .. } => Verdict::Holds,
            Verdict::Vacuous => Verdict::Vacuous,
            Verdict::Inconclusive => Verdict::Inconclusive,
        },
        CompiledExpr::AllOf(es) => {
            let vs: Vec<Verdict> = es.iter().map(|e| resolve(e, leaves, end)).collect();
            if let Some(t) = vs
                .iter()
                .filter_map(|v| match v {
                    Verdict::Fails {
                        first_violation_time,
                    } => Some(*first_violation_time),
                    _ => None,
                })
                .min()
            {
                Verdict::Fails {
                    first_violation_time: t,
                }
            } else if vs.contains(&Verdict::Inconclusive) {
                Verdict::Inconclusive
            } else if !vs.is_empty() && vs.iter().all(|v| *v == Verdict::Vacuous) {
                Verdict::Vacuous
            } else {
                Verdict::Holds
            }
        }
        CompiledExpr::AnyOf(es) => {
            let vs: Vec<Verdict> = es
                .iter()
                .map(|e| resolve(e, leaves, end))
                .filter(|v| *v != Verdict::Vacuous)
                .collect();
            if vs.is_empty() {
                Verdict::Vacuous
            } else if vs.contains(&Verdict::Holds) {
                Verdict::Holds
            } else if vs.contains(&Verdict::Inconclusive) {
                Verdict::Inconclusive
            } else {
                // All remaining operands failed: the disjunction became
                // false when the *last* of them did.
                let t = vs
                    .iter()
                    .filter_map(|v| match v {
                        Verdict::Fails {
                            first_violation_time,
                        } => Some(*first_violation_time),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(end);
                Verdict::Fails {
                    first_violation_time: t,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AssertionExpr as E;

    fn feed(bank: &mut MonitorBank, sym: Sym, series: &[(u64, f64)]) {
        for &(us, v) in series {
            bank.observe(SimTime::from_us(us), sym, &Sample::new(v));
        }
    }

    fn single(expr: AssertionExpr, series: &[(u64, f64)], end_us: u64, degraded: bool) -> Verdict {
        let interner = Interner::new();
        let mut bank = MonitorBank::compile(&[AssertionSpec::new("a", expr)], &interner);
        let sym = interner.intern("m.op_y");
        feed(&mut bank, sym, series);
        bank.finalize(SimTime::from_us(end_us), degraded)[0].verdict
    }

    #[test]
    fn threshold_latches_first_violation() {
        let v = single(
            E::never_above("m.op_y", 2.0),
            &[(0, 1.0), (1, 2.5), (2, 1.0), (3, 3.0)],
            4,
            false,
        );
        assert_eq!(
            v,
            Verdict::Fails {
                first_violation_time: SimTime::from_us(1)
            }
        );
        assert_eq!(
            single(
                E::never_above("m.op_y", 2.0),
                &[(0, 1.0), (1, 2.0)],
                2,
                false
            ),
            Verdict::Holds
        );
        assert_eq!(
            single(
                E::never_below("m.op_y", 0.0),
                &[(0, 1.0), (1, -0.1)],
                2,
                false
            ),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(1)
            }
        );
        assert_eq!(
            single(E::never_above("m.op_y", 2.0), &[], 2, false),
            Verdict::Inconclusive
        );
    }

    #[test]
    fn settling_holds_after_window_in_band() {
        let expr = || E::settles("m.op_y", 5.0, 0.1, SimTime::from_us(3));
        // In band from 2 us on; window completes at 5 us.
        assert_eq!(
            single(
                expr(),
                &[
                    (0, 0.0),
                    (1, 3.0),
                    (2, 5.0),
                    (3, 5.05),
                    (4, 4.95),
                    (5, 5.0),
                    (6, 5.0)
                ],
                7,
                false
            ),
            Verdict::Holds
        );
        // Leaves the band at 4 us: the run restarts and never completes.
        assert_eq!(
            single(expr(), &[(0, 5.0), (4, 9.0), (5, 5.0), (6, 5.0)], 7, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(7)
            }
        );
    }

    #[test]
    fn settling_deadline_pins_violation_time() {
        let expr = E::settles_by("m.op_y", 5.0, 0.1, SimTime::from_us(3), SimTime::from_us(4));
        // In band only from 3 us: the window would complete at 6 us > 4 us.
        assert_eq!(
            single(expr.clone(), &[(0, 0.0), (3, 5.0), (7, 5.0)], 8, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(4)
            }
        );
        // Run ends before the deadline: inconclusive.
        assert_eq!(
            single(expr, &[(0, 0.0), (1, 0.0)], 2, false),
            Verdict::Inconclusive
        );
        // Sparse samples: in band since 0, window completes at 3 <= 4 even
        // though the next sample lands at 10.
        assert_eq!(
            single(
                E::settles_by("m.op_y", 5.0, 0.1, SimTime::from_us(3), SimTime::from_us(4)),
                &[(0, 5.0), (10, 5.0)],
                10,
                false
            ),
            Verdict::Holds
        );
    }

    #[test]
    fn recurrence_at_least_fails_on_a_quiet_window() {
        let expr = || E::recurs_at_least("m.op_y", SignalPred::Above(0.5), 1, SimTime::from_us(3));
        // A pulse each 2 us: every trailing 3 us window has an edge.
        assert_eq!(
            single(
                expr(),
                &[
                    (0, 1.0),
                    (1, 0.0),
                    (2, 1.0),
                    (3, 0.0),
                    (4, 1.0),
                    (5, 0.0),
                    (6, 1.0)
                ],
                7,
                false
            ),
            Verdict::Holds
        );
        // Goes quiet after 1 us: the window ending at 5 us has no edge.
        assert_eq!(
            single(
                expr(),
                &[(0, 1.0), (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0)],
                6,
                false
            ),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(4)
            }
        );
        // Run shorter than one window: never checked.
        assert_eq!(
            single(expr(), &[(0, 1.0), (1, 0.0)], 2, false),
            Verdict::Inconclusive
        );
    }

    #[test]
    fn recurrence_at_most_counts_edges_per_window() {
        let expr = || E::recurs_at_most("m.op_y", SignalPred::Above(0.5), 1, SimTime::from_us(3));
        // Two rising edges 2 us apart: violates at-most-1-per-3 us.
        assert_eq!(
            single(expr(), &[(0, 1.0), (1, 0.0), (2, 1.0)], 3, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(2)
            }
        );
        // Edges 4 us apart: fine.
        assert_eq!(
            single(
                expr(),
                &[(0, 1.0), (1, 0.0), (4, 1.0), (5, 0.0), (8, 1.0)],
                9,
                false
            ),
            Verdict::Holds
        );
    }

    #[test]
    fn within_discharges_expires_and_vacuous() {
        let mk = || {
            E::responds_within(
                "m.op_y",
                SignalPred::Above(1.0),
                "m.op_y",
                SignalPred::Below(0.5),
                SimTime::from_us(2),
            )
        };
        // Trigger at 1, response at 2: holds.
        assert_eq!(
            single(mk(), &[(0, 0.0), (1, 2.0), (2, 0.0), (5, 0.0)], 6, false),
            Verdict::Holds
        );
        // Trigger at 1, no response by 3: fails at 3 (= 1 + 2).
        assert_eq!(
            single(mk(), &[(0, 0.0), (1, 2.0), (2, 2.0), (4, 2.0)], 5, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(3)
            }
        );
        // Never triggered: vacuous.
        assert_eq!(
            single(mk(), &[(0, 0.0), (1, 0.9)], 2, false),
            Verdict::Vacuous
        );
        // Triggered at the very end, obligation still open: inconclusive.
        assert_eq!(
            single(mk(), &[(0, 0.0), (5, 2.0)], 6, false),
            Verdict::Inconclusive
        );
        // Obligation open and overdue at the end: fails at finalize.
        assert_eq!(
            single(mk(), &[(0, 0.0), (1, 2.0)], 6, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(3)
            }
        );
    }

    #[test]
    fn combinators_resolve_over_the_lattice() {
        let above = || E::never_above("m.op_y", 2.0);
        let below = || E::never_below("m.op_y", -2.0);
        let series: &[(u64, f64)] = &[(0, 0.0), (1, 3.0), (2, 0.0)];
        assert_eq!(
            single(E::all_of(vec![above(), below()]), series, 3, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(1)
            }
        );
        assert_eq!(
            single(E::any_of(vec![above(), below()]), series, 3, false),
            Verdict::Holds
        );
        assert_eq!(
            single(E::negate(above()), series, 3, false),
            Verdict::Holds,
            "negation of a failing threshold holds"
        );
        assert_eq!(
            single(E::negate(below()), series, 3, false),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(3)
            },
            "negation of a holding threshold fails at end of run"
        );
    }

    #[test]
    fn degraded_runs_keep_fails_and_force_inconclusive() {
        let series: &[(u64, f64)] = &[(0, 0.0), (1, 3.0), (2, 0.0)];
        assert_eq!(
            single(E::never_above("m.op_y", 2.0), series, 3, true),
            Verdict::Fails {
                first_violation_time: SimTime::from_us(1)
            },
            "an observed violation is real no matter how the run ended"
        );
        assert_eq!(
            single(E::never_below("m.op_y", -2.0), series, 3, true),
            Verdict::Inconclusive,
            "a truncated trace must never report a pass"
        );
        assert_eq!(
            single(
                E::settles("m.op_y", 0.0, 0.5, SimTime::from_us(100)),
                series,
                3,
                true
            ),
            Verdict::Inconclusive,
            "end-of-trace synthesis is unsound on truncated runs"
        );
    }

    #[test]
    fn unsubscribed_and_undefined_samples_are_ignored() {
        let interner = Interner::new();
        let mut bank = MonitorBank::compile(
            &[AssertionSpec::new("a", E::never_above("m.op_y", 2.0))],
            &interner,
        );
        let sym = interner.intern("m.op_y");
        // A sym interned after compilation indexes past the table.
        let foreign = interner.intern("other.op_z");
        bank.observe(SimTime::ZERO, foreign, &Sample::new(99.0));
        bank.observe(SimTime::ZERO, sym, &Sample::undefined());
        bank.observe(SimTime::from_us(1), sym, &Sample::new(1.0));
        assert_eq!(bank.samples_observed(), 3);
        assert_eq!(
            bank.finalize(SimTime::from_us(2), false)[0].verdict,
            Verdict::Holds
        );
    }

    #[test]
    fn verdicts_come_back_in_spec_order() {
        let interner = Interner::new();
        // Intern in reverse so spec order and sym order disagree.
        interner.intern("z.op");
        interner.intern("a.op");
        let mut bank = MonitorBank::compile(
            &[
                AssertionSpec::new("second_sym", E::never_above("a.op", 1.0)),
                AssertionSpec::new("first_sym", E::never_above("z.op", 1.0)),
            ],
            &interner,
        );
        bank.observe(SimTime::ZERO, interner.intern("a.op"), &Sample::new(0.0));
        let names: Vec<String> = bank
            .finalize(SimTime::from_us(1), false)
            .into_iter()
            .map(|v| v.name)
            .collect();
        assert_eq!(names, vec!["second_sym", "first_sym"]);
    }
}
