//! Probes that run outside an op's timed interval to measure single layers
//! the op calls through a fused entry point.

use dft_core::{Design, MatchAutomaton, SessionArtifacts, SessionConfig};
use tdf_sim::{CompactEvent, Event, EventSink, Interner, NullSink};

use crate::measure::{median, Tracer};

/// [`NullSink`] plus an event counter: the uninstrumented baseline run,
/// counting the events an instrumented run would match.
#[derive(Debug, Default)]
pub struct CountingSink {
    inner: NullSink,
    pub events: u64,
}

impl EventSink for CountingSink {
    fn record(&mut self, event: Event) {
        self.events += 1;
        self.inner.record(event);
    }

    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        self.events += 1;
        self.inner.record_compact(event, interner);
    }
}

/// Repetitions of each per-design cost probe.
const DESIGN_REPS: usize = 10;

/// Per-design costs paid at set-up and on every artifact-cache miss, each
/// the median of [`DESIGN_REPS`] repetitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct DesignCosts {
    /// `SessionArtifacts::build_with` with memoization off (static stage
    /// plus automaton), ms.
    pub static_cold_ms: f64,
    /// `MatchAutomaton::with_tracking` alone, ms.
    pub automaton_ms: f64,
    /// `minic::parse` of the design source, ms.
    pub parse_ms: f64,
}

pub fn design_costs(
    design: impl Fn() -> dft_core::Result<Design>,
    source: &str,
    tr: &mut Tracer,
) -> Result<DesignCosts, String> {
    let config = SessionConfig::from_env()
        .with_threads(1)
        .with_incremental(false);
    let (mut cold, mut automaton, mut parse) = (Vec::new(), Vec::new(), Vec::new());
    let designs = (0..DESIGN_REPS)
        .map(|_| design().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    minic::parse(source).map_err(|e| e.to_string())?;
    tr.enter("probe");
    for d in designs {
        tr.enter("core.static_cold");
        let artifacts = SessionArtifacts::build_with(d, &config);
        cold.push(tr.exit() as f64 / 1e6);
        tr.enter("core.automaton");
        std::hint::black_box(MatchAutomaton::with_tracking(
            artifacts.design(),
            artifacts.static_analysis(),
            artifacts.tracking(),
        ));
        automaton.push(tr.exit() as f64 / 1e6);
        tr.enter("minic.parse");
        std::hint::black_box(minic::parse(std::hint::black_box(source)).is_ok());
        parse.push(tr.exit() as f64 / 1e6);
    }
    tr.exit();
    Ok(DesignCosts {
        static_cold_ms: median(&cold),
        automaton_ms: median(&automaton),
        parse_ms: median(&parse),
    })
}
