//! TDF modules: port/module specifications, the [`TdfModule`] trait, the
//! processing context handed to activations, and the instrumentation
//! [`EventSink`].

use std::fmt;
use std::sync::Arc;

use crate::intern::{CompactEvent, Interner, Sym};
use crate::time::SimTime;
use crate::value::{Provenance, Sample, Value};

/// Static attributes of one TDF port.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct PortSpec {
    /// Port name, e.g. `op_signal_out`.
    pub name: String,
    /// Samples produced/consumed per module activation (TDF rate).
    pub rate: usize,
    /// Initial sample delay on the port (schedule-visible tokens).
    pub delay: usize,
    /// Value carried by the delay tokens this port contributes
    /// (`set_initial_value` in SystemC-AMS; defaults to 0.0).
    pub initial: Value,
}

impl PortSpec {
    /// A rate-1, delay-0 port.
    pub fn new(name: impl Into<String>) -> Self {
        PortSpec {
            name: name.into(),
            rate: 1,
            delay: 0,
            initial: Value::Double(0.0),
        }
    }

    /// Sets the rate (builder style).
    pub fn with_rate(mut self, rate: usize) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the delay (builder style).
    pub fn with_delay(mut self, delay: usize) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the delay-token value (builder style).
    pub fn with_initial(mut self, initial: impl Into<Value>) -> Self {
        self.initial = initial.into();
        self
    }
}

/// Static attributes of one TDF module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleSpec {
    /// Input ports in index order.
    pub in_ports: Vec<PortSpec>,
    /// Output ports in index order.
    pub out_ports: Vec<PortSpec>,
    /// Module activation period, if this module anchors the cluster timing.
    pub timestep: Option<SimTime>,
}

impl ModuleSpec {
    /// An empty spec.
    pub fn new() -> Self {
        ModuleSpec::default()
    }

    /// Adds an input port (builder style).
    pub fn input(mut self, port: PortSpec) -> Self {
        self.in_ports.push(port);
        self
    }

    /// Adds an output port (builder style).
    pub fn output(mut self, port: PortSpec) -> Self {
        self.out_ports.push(port);
        self
    }

    /// Anchors the module timestep (builder style).
    pub fn with_timestep(mut self, ts: SimTime) -> Self {
        self.timestep = Some(ts);
        self
    }

    /// Index of the input port called `name`.
    pub fn in_index(&self, name: &str) -> Option<usize> {
        self.in_ports.iter().position(|p| p.name == name)
    }

    /// Index of the output port called `name`.
    pub fn out_index(&self, name: &str) -> Option<usize> {
        self.out_ports.iter().position(|p| p.name == name)
    }
}

/// The netlist site at which a redefining library element is bound —
/// `(model, line)` becomes the definition coordinate of the redefined
/// branch, e.g. `(…, 74, sense_top)` in the paper's Table I.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Netlist (architecture) model name, e.g. `sense_top`.
    pub model: String,
    /// Line of the component's output binding in that model.
    pub line: u32,
}

impl DefSite {
    /// Creates a definition site.
    pub fn new(model: impl Into<String>, line: u32) -> Self {
        DefSite {
            model: model.into(),
            line,
        }
    }
}

impl fmt::Display for DefSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.model, self.line)
    }
}

/// How the coverage analysis should treat a module.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModuleClass {
    /// A behavioural model with analysable (minic) source.
    UserCode,
    /// A SISO library element that *redefines* the flowing signal (delay,
    /// gain, buffer, …); carries the netlist site of its output binding.
    Redefining(DefSite),
    /// A SISO library element that forwards the signal untouched.
    Transparent,
    /// Stimulus sources and probes — excluded from coverage analysis.
    Testbench,
}

/// A runtime def/use observation, the analog of the paper's injected
/// `printf` instrumentation and `parallel_print()` modules.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A variable/member/port was defined.
    Def {
        /// Activation time.
        time: SimTime,
        /// Model performing the definition.
        model: String,
        /// Defined variable.
        var: String,
        /// Source line of the definition.
        line: u32,
    },
    /// A variable/member/port was used.
    Use {
        /// Activation time.
        time: SimTime,
        /// Model performing the use.
        model: String,
        /// Used variable.
        var: String,
        /// Source line of the use.
        line: u32,
        /// For input-port uses: the provenance of the sample being read
        /// (which remote definition feeds this use). `None` for locals.
        feeding: Option<Provenance>,
        /// False when an undefined sample was read — the paper's "port used
        /// without definition" undefined behaviour.
        defined: bool,
    },
}

impl Event {
    /// The model the event occurred in.
    pub fn model(&self) -> &str {
        match self {
            Event::Def { model, .. } | Event::Use { model, .. } => model,
        }
    }

    /// The variable accessed.
    pub fn var(&self) -> &str {
        match self {
            Event::Def { var, .. } | Event::Use { var, .. } => var,
        }
    }

    /// The source line of the access.
    pub fn line(&self) -> u32 {
        match self {
            Event::Def { line, .. } | Event::Use { line, .. } => *line,
        }
    }
}

/// Consumer of instrumentation [`Event`]s.
pub trait EventSink {
    /// Records one event.
    fn record(&mut self, event: Event);

    /// Records one compact (interned) event. The default materializes the
    /// legacy [`Event`] and delegates to [`EventSink::record`], so
    /// string-based sinks keep working unchanged; allocation-free sinks
    /// ([`CompactRecordingSink`], [`NullSink`]) override it.
    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        self.record(event.to_event(interner));
    }

    /// Whether this sink wants per-sample signal observations
    /// ([`EventSink::record_sample`]). The kernel checks this per output
    /// port before formatting anything, so sinks that return `false` (the
    /// default — every sink except a monitor sink) pay one virtual call
    /// per port and nothing else; runs without monitors are byte-identical
    /// to runs before the tap existed.
    fn wants_samples(&self) -> bool {
        false
    }

    /// Observes one produced output sample. `signal` is the interned
    /// `"{module}.{port}"` name of the producing out port, `time` the
    /// sample's dense-time stamp (activation time plus the in-activation
    /// sub-step for rates > 1). Only called when
    /// [`EventSink::wants_samples`] returns `true`; samples are *not*
    /// instrumentation events — they never count toward
    /// [`RunLimits::max_events`](crate::RunLimits::max_events).
    fn record_sample(&mut self, time: SimTime, signal: Sym, sample: &Sample) {
        let _ = (time, signal, sample);
    }
}

/// Discards all events (uninstrumented runs — the baseline for the
/// instrumentation-overhead ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: Event) {}

    fn record_compact(&mut self, _event: CompactEvent, _interner: &Interner) {}
}

/// Buffers every event in memory for post-run analysis.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The recorded event log, in execution order.
    pub events: Vec<Event>,
}

impl RecordingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }
}

impl EventSink for RecordingSink {
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

/// Buffers every event in compact (interned) form — the allocation-free
/// counterpart of [`RecordingSink`]. Legacy [`Event`]s routed through
/// [`EventSink::record`] are interned on arrival (control-path only).
#[derive(Debug)]
pub struct CompactRecordingSink {
    /// The recorded compact event log, in execution order.
    pub events: Vec<CompactEvent>,
    /// The interner the compact events' ids belong to.
    pub interner: Arc<Interner>,
}

impl CompactRecordingSink {
    /// Creates an empty sink recording against `interner`.
    pub fn new(interner: Arc<Interner>) -> Self {
        CompactRecordingSink {
            events: Vec::new(),
            interner,
        }
    }
}

impl EventSink for CompactRecordingSink {
    fn record(&mut self, event: Event) {
        let compact = CompactEvent::from_event(&event, &self.interner);
        self.events.push(compact);
    }

    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        debug_assert!(
            std::ptr::eq(&*self.interner, interner),
            "compact events recorded against a foreign interner"
        );
        self.events.push(event);
    }
}

/// An incremental consumer of [`CompactEvent`]s — the streaming analog of
/// buffering a log and analysing it afterwards. Implemented by the match
/// cursor in `dft-core`; defined here so [`MatchingSink`] can drive any
/// consumer without this crate depending on the analysis layer.
pub trait CompactConsumer {
    /// Feeds one event, in execution order.
    fn consume(&mut self, event: &CompactEvent);
}

/// Every `Vec<CompactEvent>` is a consumer: appending is the buffered
/// baseline the streamed path is gated against.
impl CompactConsumer for Vec<CompactEvent> {
    fn consume(&mut self, event: &CompactEvent) {
        self.push(*event);
    }
}

/// An [`EventSink`] that forwards every event straight into a
/// [`CompactConsumer`] as the simulation produces it — no materialized
/// log, O(consumer state) peak memory. Legacy [`Event`]s arriving through
/// [`EventSink::record`] are interned on the spot (control-path only,
/// same contract as [`CompactRecordingSink`]).
pub struct MatchingSink<'a> {
    consumer: &'a mut dyn CompactConsumer,
    interner: Arc<Interner>,
}

impl<'a> MatchingSink<'a> {
    /// Creates a sink streaming into `consumer`; compact events must carry
    /// ids from `interner`.
    pub fn new(consumer: &'a mut dyn CompactConsumer, interner: Arc<Interner>) -> Self {
        MatchingSink { consumer, interner }
    }
}

impl fmt::Debug for MatchingSink<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatchingSink")
            .field("interner", &self.interner)
            .finish()
    }
}

impl EventSink for MatchingSink<'_> {
    fn record(&mut self, event: Event) {
        let compact = CompactEvent::from_event(&event, &self.interner);
        self.record_compact(compact, &Arc::clone(&self.interner));
    }

    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        debug_assert!(
            std::ptr::eq(&*self.interner, interner),
            "compact events recorded against a foreign interner"
        );
        static STREAMED: obs::Counter = obs::Counter::new("match.streamed_events");
        STREAMED.add(1);
        self.consumer.consume(&event);
    }
}

/// Context handed to [`TdfModule::processing`] during one activation.
pub struct ProcessingCtx<'a> {
    pub(crate) time: SimTime,
    pub(crate) timestep: SimTime,
    pub(crate) inputs: &'a [Vec<Sample>],
    pub(crate) outputs: &'a mut [Vec<Sample>],
    pub(crate) sink: &'a mut dyn EventSink,
    pub(crate) timestep_request: &'a mut Option<SimTime>,
    pub(crate) interner: &'a Interner,
}

impl ProcessingCtx<'_> {
    /// The activation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The module's current activation period.
    pub fn timestep(&self) -> SimTime {
        self.timestep
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The `k`-th sample available on input port `port` this activation.
    ///
    /// # Panics
    ///
    /// Panics if `port` or `k` is out of range.
    pub fn input(&self, port: usize, k: usize) -> &Sample {
        &self.inputs[port][k]
    }

    /// The sole sample of a rate-1 input port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range or the port rate is 0.
    pub fn input1(&self, port: usize) -> &Sample {
        self.input(port, 0)
    }

    /// Appends a sample to output port `port` (at most `rate` per
    /// activation; the kernel pads missing samples as undefined and rejects
    /// surplus ones).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn write(&mut self, port: usize, sample: Sample) {
        self.outputs[port].push(sample);
    }

    /// Emits an instrumentation event.
    pub fn emit(&mut self, event: Event) {
        self.sink.record(event);
    }

    /// Emits a compact (interned) instrumentation event. Ids must come
    /// from [`ProcessingCtx::interner`].
    pub fn emit_compact(&mut self, event: CompactEvent) {
        self.sink.record_compact(event, self.interner);
    }

    /// The cluster's interner — modules cache [`Sym`](crate::Sym) ids for
    /// their own names against it so emitting events is allocation-free.
    pub fn interner(&self) -> &Interner {
        self.interner
    }

    /// Requests a new module timestep, applied at the next cluster-period
    /// boundary with a reschedule — the *dynamic TDF* mechanism of
    /// SystemC-AMS 2.0.
    pub fn request_timestep(&mut self, ts: SimTime) {
        *self.timestep_request = Some(ts);
    }
}

impl fmt::Debug for ProcessingCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessingCtx")
            .field("time", &self.time)
            .field("timestep", &self.timestep)
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

/// A timed-data-flow module: the unit of behaviour in a TDF cluster.
pub trait TdfModule {
    /// The module's instance name (unique within its cluster).
    fn name(&self) -> &str;

    /// The module's static interface.
    fn spec(&self) -> ModuleSpec;

    /// How the coverage analysis treats this module.
    fn class(&self) -> ModuleClass {
        ModuleClass::UserCode
    }

    /// Called once before simulation starts (and again when a testcase
    /// rewinds the simulator); resets internal state.
    fn initialize(&mut self) {}

    /// One TDF activation: consume `rate` samples per input, produce `rate`
    /// samples per output.
    fn processing(&mut self, ctx: &mut ProcessingCtx<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_spec_builders() {
        let p = PortSpec::new("ip_x").with_rate(4).with_delay(1);
        assert_eq!(p.name, "ip_x");
        assert_eq!(p.rate, 4);
        assert_eq!(p.delay, 1);
    }

    #[test]
    fn module_spec_lookup() {
        let spec = ModuleSpec::new()
            .input(PortSpec::new("a"))
            .input(PortSpec::new("b"))
            .output(PortSpec::new("y"))
            .with_timestep(SimTime::from_us(1));
        assert_eq!(spec.in_index("b"), Some(1));
        assert_eq!(spec.in_index("y"), None);
        assert_eq!(spec.out_index("y"), Some(0));
        assert_eq!(spec.timestep, Some(SimTime::from_us(1)));
    }

    #[test]
    fn event_accessors() {
        let e = Event::Def {
            time: SimTime::ZERO,
            model: "TS".into(),
            var: "tmpr".into(),
            line: 4,
        };
        assert_eq!(e.model(), "TS");
        assert_eq!(e.var(), "tmpr");
        assert_eq!(e.line(), 4);
    }

    #[test]
    fn recording_sink_buffers_in_order() {
        let mut sink = RecordingSink::new();
        for line in [1, 2, 3] {
            sink.record(Event::Def {
                time: SimTime::ZERO,
                model: "M".into(),
                var: "x".into(),
                line,
            });
        }
        let lines: Vec<u32> = sink.events.iter().map(Event::line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.record(Event::Def {
            time: SimTime::ZERO,
            model: "M".into(),
            var: "x".into(),
            line: 1,
        });
    }

    #[test]
    fn def_site_display() {
        assert_eq!(DefSite::new("sense_top", 74).to_string(), "sense_top:74");
    }
}
