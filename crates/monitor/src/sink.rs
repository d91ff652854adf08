//! The [`MonitorSink`] adapter: wraps any [`EventSink`] and tees the
//! kernel's per-sample tap into a [`MonitorBank`], so one
//! simulation pass produces both the def/use event stream (coverage) and
//! assertion verdicts with zero extra buffering.

use tdf_sim::{CompactEvent, Event, EventSink, Interner, Sample, SimTime, Sym};

use crate::bank::MonitorBank;

/// Wraps an inner sink, forwarding def/use events untouched while feeding
/// every tapped sample to a [`MonitorBank`].
///
/// The bank is borrowed, so the caller keeps it — and can finalize its
/// verdicts — after the sink is dropped, even when the simulation that
/// drove the sink panicked.
pub struct MonitorSink<'a> {
    inner: &'a mut dyn EventSink,
    bank: &'a mut MonitorBank,
}

impl<'a> MonitorSink<'a> {
    /// Tees `bank` off the sample tap while `inner` keeps receiving the
    /// instrumentation event stream.
    pub fn new(inner: &'a mut dyn EventSink, bank: &'a mut MonitorBank) -> MonitorSink<'a> {
        MonitorSink { inner, bank }
    }
}

impl EventSink for MonitorSink<'_> {
    fn record(&mut self, event: Event) {
        self.inner.record(event);
    }

    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        self.inner.record_compact(event, interner);
    }

    fn wants_samples(&self) -> bool {
        true
    }

    fn record_sample(&mut self, time: SimTime, signal: Sym, sample: &Sample) {
        self.bank.observe(time, signal, sample);
        if self.inner.wants_samples() {
            self.inner.record_sample(time, signal, sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AssertionExpr, AssertionSpec};

    #[test]
    fn sink_tees_samples_into_the_bank_and_forwards_events() {
        let interner = Interner::new();
        let mut bank = MonitorBank::compile(
            &[AssertionSpec::new(
                "cap",
                AssertionExpr::never_above("m.op_y", 2.0),
            )],
            &interner,
        );
        let sym = interner.intern("m.op_y");
        let mut inner = tdf_sim::NullSink;
        {
            let mut sink = MonitorSink::new(&mut inner, &mut bank);
            assert!(sink.wants_samples());
            sink.record_sample(SimTime::ZERO, sym, &Sample::new(1.0));
            sink.record_sample(SimTime::from_us(1), sym, &Sample::new(3.0));
        }
        assert_eq!(bank.samples_observed(), 2);
        let verdicts = bank.finalize(SimTime::from_us(2), false);
        assert!(verdicts[0].verdict.is_fail());
    }
}
