//! A prebuilt match automaton over interned symbols — the fast path of the
//! dynamic analysis.
//!
//! [`analyse_events_with_mode`](crate::analyse_events_with_mode) re-derives
//! everything it needs (per-model vocabularies, member seeds, string-keyed
//! last-def tables) from the [`Design`] on every call and hashes two heap
//! `String`s per event. A [`MatchAutomaton`] hoists all of that into dense
//! tables indexed by the design-wide interned ids
//! ([`Sym`](tdf_sim::Sym)) once per session:
//!
//! * `model_row` maps a model symbol to a compact row id; per-row tables
//!   hold the start line, the lenient-mode vocabulary, and the set of input
//!   ports (the only [`VarKind`](tdf_interp::VarKind) distinction matching
//!   cares about);
//! * `assoc_bits` maps a fully-interned association key straight to its
//!   index in [`StaticAnalysis::associations`], so coverage is a bitset OR
//!   instead of a `HashSet<Association>` probe.
//!
//! Per-event work is then two array lookups plus integer-keyed set
//! operations; `String`s are only materialised on the *first* occurrence of
//! a site (warnings, `defs_executed`, `exercised`). Results are
//! byte-identical to the legacy matcher — the equivalence is enforced by
//! the unit tests below and by `tests/match_equiv.rs`.
//!
//! The automaton is immutable after construction ([`Sync`]), so one
//! instance is shared read-only by every session over the same artifacts;
//! per-log mutable state lives in each [`MatchCursor`].
//!
//! Symbols interned *after* construction (fault-injected ghost names) are
//! `>= frozen` and deliberately fall off every dense table: they are
//! unknown models / out-of-vocabulary variables, exactly as the legacy
//! matcher classifies never-declared strings.

use std::collections::HashSet;
use std::sync::Arc;

use dataflow::{BitSet, Cfg};
use tdf_interp::VarKind;
use tdf_sim::{CompactEvent, EventKind, Interner, ProvId, Sym};

use crate::assoc::Association;
use crate::design::Design;
use crate::dynamic::{DynamicResult, DynamicWarning, MatchMode};
use crate::fx::{FxHashMap, FxHashSet};
use crate::statics::StaticAnalysis;

/// Which association rows a [`MatchAutomaton`] tracks on its hot path.
///
/// Either way the raw results are byte-identical: with [`Reduced`]
/// tracking, the bits of subsumed associations are reconstructed exactly
/// at [`MatchCursor::finish`] by probing the seen-pair set the cursor
/// maintains for *every* first-seen key — the dynamic probe does not
/// trust the static subsumption relation, so fault-injected or truncated
/// logs cannot produce divergent coverage.
///
/// [`Reduced`]: Tracking::Reduced
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracking {
    /// Every association has a hot-path row (pre-subsumption behaviour).
    Full,
    /// Only the unsubsumed frontier is tracked per event; dropped bits
    /// are reconstructed at finish time.
    Reduced,
}

/// Fully-interned association key: `(var, def_line, def_model, use_line,
/// use_model)`.
type AssocKey = (u32, u32, u32, u32, u32);

/// Sentinel for "this symbol is not a known model".
const NO_ROW: u32 = u32::MAX;

/// Sentinel for "no pending definition" in the dense last-def table.
const NO_DEF: u32 = u32::MAX;

/// Precomputed matching tables for one design + static analysis (see the
/// module docs). Build once per [`DftSession`](crate::DftSession); share
/// by reference across worker threads.
#[derive(Debug)]
pub struct MatchAutomaton {
    interner: Arc<Interner>,
    /// Number of interned names at build time. Symbols `>= frozen` were
    /// interned later (runtime ghosts) and are never known/in-vocabulary.
    frozen: usize,
    /// `Sym -> row` for every known model (declared interface, netlist
    /// module, or the cluster itself); `NO_ROW` otherwise.
    model_row: Vec<u32>,
    n_rows: usize,
    /// `processing()` declaration line per row (0 for sourceless models) —
    /// the pseudo-definition site of externally-driven input ports.
    row_start_line: Vec<u32>,
    /// Whether the row's model has a declared interface (and therefore a
    /// lenient-mode vocabulary entry).
    row_has_vocab: Vec<bool>,
    /// Per-row vocabulary as a bitset over name symbols (< frozen).
    row_vocab: Vec<BitSet>,
    /// Per-row input-port names as a bitset over name symbols.
    row_inport: Vec<BitSet>,
    /// `(row, var_sym, start_line)` seeds for elaboration-initialised
    /// members, in declaration order (later duplicates overwrite).
    member_seeds: Vec<(u32, u32, u32)>,
    /// Fully-interned association key -> indices into
    /// [`StaticAnalysis::associations`].
    assoc_bits: FxHashMap<AssocKey, Vec<u32>>,
    /// Associations left out of `assoc_bits` under [`Tracking::Reduced`]:
    /// their bits are reconstructed at finish time by probing the
    /// seen-pair set with the stored key.
    dropped_keys: Vec<(AssocKey, u32)>,
    n_assocs: usize,
}

/// Per-log mutable matching state — everything integer-keyed. Lives on the
/// calling worker's stack so the automaton itself stays shared and
/// immutable.
#[derive(Debug)]
struct LogState {
    /// Dense `row * frozen + var_sym -> last def line` (`NO_DEF` = none).
    last_def: Vec<u32>,
    /// Overflow last-def entries: unknown models (strict mode) and ghost
    /// variable symbols `>= frozen`.
    last_def_extra: FxHashMap<(u32, u32), u32>,
    /// Per-row latest observed timestamp (lenient mode).
    last_time: Vec<Option<tdf_sim::SimTime>>,
    /// Once-per-site gates, mirroring the legacy warning sets.
    warned: FxHashSet<(u32, u32, u32)>,
    warned_models: FxHashSet<u32>,
    warned_times: FxHashSet<u32>,
    warned_vars: FxHashSet<(u32, u32)>,
    /// First-occurrence gates for the materialised outputs.
    seen_def: FxHashSet<(u32, u32, u32)>,
    seen_pair: FxHashSet<AssocKey>,
    /// Provenance ids resolved once per log.
    prov_cache: FxHashMap<u32, (Sym, u32, Sym)>,
}

impl MatchAutomaton {
    /// Builds the automaton for `design` + `statics` with
    /// [`Tracking::Reduced`], the policy every session uses.
    pub fn new(design: &Design, statics: &StaticAnalysis) -> MatchAutomaton {
        Self::with_tracking(design, statics, Tracking::Reduced)
    }

    /// Builds the automaton for `design` + `statics` with an explicit
    /// [`Tracking`] policy, interning every name either can mention and
    /// freezing the id space.
    pub fn with_tracking(
        design: &Design,
        statics: &StaticAnalysis,
        tracking: Tracking,
    ) -> MatchAutomaton {
        let interner = design.interner().clone();

        // Defensively intern everything the tables index by, so every
        // "known" name is guaranteed a stable id below `frozen`. Design
        // construction already interned declarations; re-interning is an
        // idempotent lookup.
        interner.intern(&design.netlist().cluster);
        for m in &design.netlist().modules {
            interner.intern(&m.name);
            for p in m.in_ports.iter().chain(&m.out_ports) {
                interner.intern(p);
            }
        }
        for def in design.models() {
            interner.intern(&def.model);
            for p in def.interface.inputs.iter().chain(&def.interface.outputs) {
                interner.intern(&p.name);
            }
            for (member, _) in &def.interface.members {
                interner.intern(member);
            }
            if let Some(f) = design.tu().processing(&def.model) {
                let cfg = Cfg::from_function(f);
                for node in cfg.nodes() {
                    for d in &node.def_use.defs {
                        interner.intern(&d.name);
                    }
                    for u in &node.def_use.uses {
                        interner.intern(&u.name);
                    }
                }
            }
        }
        for ca in &statics.associations {
            interner.intern(&ca.assoc.var);
            interner.intern(&ca.assoc.def_model);
            interner.intern(&ca.assoc.use_model);
        }
        let frozen = interner.len();

        // Rows: one per known model, in declared-then-netlist-then-cluster
        // order (the order is irrelevant to results; only membership is).
        let mut model_row = vec![NO_ROW; frozen];
        let mut row_names: Vec<Sym> = Vec::new();
        let mut add_row = |sym: Sym| {
            let slot = &mut model_row[sym.0 as usize];
            if *slot == NO_ROW {
                *slot = row_names.len() as u32;
                row_names.push(sym);
            }
        };
        for def in design.models() {
            add_row(interner.intern(&def.model));
        }
        for m in &design.netlist().modules {
            add_row(interner.intern(&m.name));
        }
        add_row(interner.intern(&design.netlist().cluster));
        let n_rows = row_names.len();

        let mut row_start_line = vec![0u32; n_rows];
        let mut row_has_vocab = vec![false; n_rows];
        let mut row_vocab: Vec<BitSet> = (0..n_rows).map(|_| BitSet::new(frozen)).collect();
        let mut row_inport: Vec<BitSet> = (0..n_rows).map(|_| BitSet::new(frozen)).collect();
        for (r, &sym) in row_names.iter().enumerate() {
            let name = interner.resolve(sym);
            row_start_line[r] = design.start_line(&name);
            // `kind_of` consults the *first* matching interface, exactly
            // like the legacy strict path.
            if let Some(iface) = design.interface(&name) {
                for p in &iface.inputs {
                    if matches!(design.kind_of(&name, &p.name), VarKind::InPort(_)) {
                        row_inport[r].insert(interner.intern(&p.name).0 as usize);
                    }
                }
            }
        }
        // Vocabulary mirrors `known_variables`: iterate the model list in
        // order so a duplicate definition overwrites (HashMap::insert
        // semantics).
        for def in design.models() {
            let r = model_row[interner.intern(&def.model).0 as usize] as usize;
            let vocab = &mut row_vocab[r];
            vocab.clear();
            row_has_vocab[r] = true;
            for p in def.interface.inputs.iter().chain(&def.interface.outputs) {
                vocab.insert(interner.intern(&p.name).0 as usize);
            }
            for (member, _) in &def.interface.members {
                vocab.insert(interner.intern(member).0 as usize);
            }
            if let Some(f) = design.tu().processing(&def.model) {
                let cfg = Cfg::from_function(f);
                for node in cfg.nodes() {
                    for d in &node.def_use.defs {
                        vocab.insert(interner.intern(&d.name).0 as usize);
                    }
                    for u in &node.def_use.uses {
                        vocab.insert(interner.intern(&u.name).0 as usize);
                    }
                }
            }
        }

        let mut member_seeds = Vec::new();
        for def in design.models() {
            let r = model_row[interner.intern(&def.model).0 as usize];
            let line = design.start_line(&def.model);
            for (member, _) in &def.interface.members {
                member_seeds.push((r, interner.intern(member).0, line));
            }
        }

        let mut assoc_bits: FxHashMap<AssocKey, Vec<u32>> = FxHashMap::default();
        let mut dropped_keys: Vec<(AssocKey, u32)> = Vec::new();
        for (i, ca) in statics.associations.iter().enumerate() {
            let key = (
                interner.intern(&ca.assoc.var).0,
                ca.assoc.def_line,
                interner.intern(&ca.assoc.def_model).0,
                ca.assoc.use_line,
                interner.intern(&ca.assoc.use_model).0,
            );
            if tracking == Tracking::Reduced && statics.subsumption.dropped.contains(i) {
                dropped_keys.push((key, i as u32));
            } else {
                assoc_bits.entry(key).or_default().push(i as u32);
            }
        }

        MatchAutomaton {
            interner,
            frozen,
            model_row,
            n_rows,
            row_start_line,
            row_has_vocab,
            row_vocab,
            row_inport,
            member_seeds,
            assoc_bits,
            dropped_keys,
            n_assocs: statics.associations.len(),
        }
    }

    /// The design-wide interner the automaton's ids refer to.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Number of static associations — the capacity of every coverage
    /// bitset this automaton produces.
    pub fn n_associations(&self) -> usize {
        self.n_assocs
    }

    #[inline]
    fn row_of(&self, model: Sym) -> Option<usize> {
        let i = model.0 as usize;
        if i < self.frozen {
            let r = self.model_row[i];
            if r != NO_ROW {
                return Some(r as usize);
            }
        }
        None
    }

    #[inline]
    fn name(&self, sym: Sym) -> String {
        self.interner.resolve(sym).to_string()
    }

    fn prov_of(&self, id: ProvId, cache: &mut FxHashMap<u32, (Sym, u32, Sym)>) -> (Sym, u32, Sym) {
        *cache.entry(id.0).or_insert_with(|| {
            self.interner
                .prov(id)
                .expect("provenance id from a foreign interner")
        })
    }

    /// Records the def site `(var, def_line, def_model)` paired with the
    /// use site `(use_line, use_model)`: sets its coverage bit(s) and
    /// materialises the [`Association`] on first occurrence.
    fn exercise(
        &self,
        (var, def_line, def_model): (Sym, u32, Sym),
        (use_line, use_model): (u32, Sym),
        state: &mut LogState,
        exercised: &mut HashSet<Association>,
        bits: &mut BitSet,
    ) {
        let key = (var.0, def_line, def_model.0, use_line, use_model.0);
        if !state.seen_pair.insert(key) {
            return;
        }
        if let Some(indices) = self.assoc_bits.get(&key) {
            for &i in indices {
                bits.insert(i as usize);
            }
        }
        exercised.insert(Association::new(
            self.name(var),
            def_line,
            self.name(def_model),
            use_line,
            self.name(use_model),
        ));
    }

    /// Matches a compact event log; results are byte-identical to
    /// [`analyse_events_with_mode`](crate::analyse_events_with_mode) on the
    /// equivalent string log.
    pub fn analyse(&self, events: &[CompactEvent], mode: MatchMode) -> DynamicResult {
        self.analyse_with_coverage(events, mode).0
    }

    /// Starts an incremental matching pass: the returned [`MatchCursor`]
    /// consumes events one at a time ([`MatchCursor::feed`]) and yields the
    /// same `(DynamicResult, BitSet)` as [`Self::analyse_with_coverage`]
    /// when [`MatchCursor::finish`]ed — the streaming half of the
    /// simulate-and-match pipeline, holding only O(automaton state).
    pub fn cursor(&self, mode: MatchMode) -> MatchCursor<'_> {
        let frozen = self.frozen;
        let mut st = LogState {
            last_def: vec![NO_DEF; self.n_rows * frozen],
            last_def_extra: FxHashMap::default(),
            last_time: vec![None; self.n_rows],
            warned: FxHashSet::default(),
            warned_models: FxHashSet::default(),
            warned_times: FxHashSet::default(),
            warned_vars: FxHashSet::default(),
            seen_def: FxHashSet::default(),
            seen_pair: FxHashSet::default(),
            prov_cache: FxHashMap::default(),
        };
        for &(row, var, line) in &self.member_seeds {
            st.last_def[row as usize * frozen + var as usize] = line;
        }
        MatchCursor {
            automaton: self,
            mode,
            st,
            bits: BitSet::new(self.n_assocs),
            exercised: HashSet::new(),
            defs_executed: HashSet::new(),
            warnings: Vec::new(),
            quarantined: 0,
            events: 0,
        }
    }

    /// [`Self::analyse`] plus the coverage bitset over
    /// [`StaticAnalysis::associations`] indices: bit `i` is set iff
    /// `associations[i]` is in the returned `exercised` set.
    ///
    /// This is the *buffered* entry point — a [`MatchCursor`] fed from a
    /// fully materialized log. The streaming pipeline drives the same
    /// cursor event by event instead (see [`Self::cursor`]), so the two
    /// paths are byte-identical by construction.
    pub fn analyse_with_coverage(
        &self,
        events: &[CompactEvent],
        mode: MatchMode,
    ) -> (DynamicResult, BitSet) {
        let _span = obs::span("stage.match");
        let mut cursor = self.cursor(mode);
        for ev in events {
            cursor.feed(ev);
        }
        cursor.finish()
    }
}

/// Incremental matching state over one event stream: the per-run mutable
/// half of [`MatchAutomaton::analyse_with_coverage`], split out so the
/// simulator can feed events as it produces them (via
/// [`tdf_sim::MatchingSink`]) with no materialized log. Memory is
/// O(automaton state) — last-def tables, once-sets and the coverage
/// bitset — independent of how many events are fed.
#[derive(Debug)]
pub struct MatchCursor<'a> {
    automaton: &'a MatchAutomaton,
    mode: MatchMode,
    st: LogState,
    bits: BitSet,
    exercised: HashSet<Association>,
    defs_executed: HashSet<(String, String, u32)>,
    warnings: Vec<DynamicWarning>,
    quarantined: u64,
    events: u64,
}

impl MatchCursor<'_> {
    /// Number of events fed so far.
    pub fn events_fed(&self) -> u64 {
        self.events
    }

    /// The match mode this cursor validates with.
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// Consumes one event, updating the incremental state exactly as the
    /// corresponding iteration of the buffered loop would.
    pub fn feed(&mut self, ev: &CompactEvent) {
        self.events += 1;
        let automaton = self.automaton;
        let frozen = automaton.frozen;
        let st = &mut self.st;
        {
            let row = automaton.row_of(ev.model);
            if self.mode == MatchMode::Lenient {
                // `Some(w)` quarantines the event; the inner option is the
                // warning to record (None once a site already warned).
                let quarantine_reason: Option<Option<DynamicWarning>> = match row {
                    None => Some(st.warned_models.insert(ev.model.0).then(|| {
                        DynamicWarning::UnknownModel {
                            model: automaton.name(ev.model),
                            time: ev.time,
                        }
                    })),
                    Some(r) => {
                        if let Some(last) = st.last_time[r].filter(|&last| ev.time < last) {
                            Some(st.warned_times.insert(ev.model.0).then(|| {
                                DynamicWarning::NonMonotoneTimestamp {
                                    model: automaton.name(ev.model),
                                    time: ev.time,
                                    last,
                                }
                            }))
                        } else if automaton.row_has_vocab[r]
                            && !automaton.row_vocab[r].contains(ev.var.0 as usize)
                        {
                            Some(st.warned_vars.insert((ev.model.0, ev.var.0)).then(|| {
                                DynamicWarning::UnknownVariable {
                                    model: automaton.name(ev.model),
                                    var: automaton.name(ev.var),
                                    time: ev.time,
                                }
                            }))
                        } else if ev.kind == EventKind::Use && !ev.prov.is_none() {
                            // Provenance must also name a real model, else
                            // the pair it would exercise is fabricated.
                            let (_, _, pm) = automaton.prov_of(ev.prov, &mut st.prov_cache);
                            automaton.row_of(pm).is_none().then(|| {
                                st.warned_models.insert(pm.0).then(|| {
                                    DynamicWarning::UnknownModel {
                                        model: automaton.name(pm),
                                        time: ev.time,
                                    }
                                })
                            })
                        } else {
                            None
                        }
                    }
                };
                if let Some(warning) = quarantine_reason {
                    self.quarantined += 1;
                    if let Some(w) = warning {
                        self.warnings.push(w);
                    }
                    // Poison the pending definition: a quarantined def must
                    // not let later uses pair with a stale older one.
                    if ev.kind == EventKind::Def {
                        st.remove_last_def(row, frozen, ev.model, ev.var);
                    }
                    return;
                }
                st.last_time[row.expect("known model passed validation")] = Some(ev.time);
            }
            match ev.kind {
                EventKind::Def => {
                    st.set_last_def(row, frozen, ev.model, ev.var, ev.line);
                    if st.seen_def.insert((ev.model.0, ev.var.0, ev.line)) {
                        self.defs_executed.insert((
                            automaton.name(ev.model),
                            automaton.name(ev.var),
                            ev.line,
                        ));
                    }
                }
                EventKind::Use => {
                    if !ev.prov.is_none() {
                        let (pv, pl, pm) = automaton.prov_of(ev.prov, &mut st.prov_cache);
                        if st.seen_def.insert((pm.0, pv.0, pl)) {
                            self.defs_executed
                                .insert((automaton.name(pm), automaton.name(pv), pl));
                        }
                        automaton.exercise(
                            (pv, pl, pm),
                            (ev.line, ev.model),
                            st,
                            &mut self.exercised,
                            &mut self.bits,
                        );
                        return;
                    }
                    let inport =
                        row.is_some_and(|r| automaton.row_inport[r].contains(ev.var.0 as usize));
                    if inport {
                        let r = row.expect("inport implies a row");
                        if ev.defined {
                            let dline = automaton.row_start_line[r];
                            automaton.exercise(
                                (ev.var, dline, ev.model),
                                (ev.line, ev.model),
                                st,
                                &mut self.exercised,
                                &mut self.bits,
                            );
                        } else if st.warned.insert((ev.model.0, ev.var.0, ev.line)) {
                            self.warnings.push(DynamicWarning::UndefinedSampleRead {
                                model: automaton.name(ev.model),
                                var: automaton.name(ev.var),
                                line: ev.line,
                                time: ev.time,
                            });
                        }
                    } else {
                        match st.get_last_def(row, frozen, ev.model, ev.var) {
                            Some(dline) => {
                                automaton.exercise(
                                    (ev.var, dline, ev.model),
                                    (ev.line, ev.model),
                                    st,
                                    &mut self.exercised,
                                    &mut self.bits,
                                );
                            }
                            None => {
                                if st.warned.insert((ev.model.0, ev.var.0, ev.line)) {
                                    self.warnings.push(DynamicWarning::UseWithoutDef {
                                        model: automaton.name(ev.model),
                                        var: automaton.name(ev.var),
                                        line: ev.line,
                                        time: ev.time,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Finalizes the pass: records the aggregate `match.*` counters and
    /// returns the result plus coverage bitset — byte-identical to the
    /// buffered [`MatchAutomaton::analyse_with_coverage`] over the same
    /// event sequence.
    pub fn finish(mut self) -> (DynamicResult, BitSet) {
        static EVENTS_MATCHED: obs::Counter = obs::Counter::new("match.events");
        static ASSOC_EXERCISED: obs::Counter = obs::Counter::new("match.associations_exercised");
        static QUARANTINED: obs::Counter = obs::Counter::new("match.quarantined_events");
        // Reconstruct the bits of associations reduced off the hot path:
        // the seen-pair set records every first-seen key regardless of
        // tracking policy, so probing it here is exact on any log — the
        // static subsumption relation is never trusted for coverage.
        for &(key, idx) in &self.automaton.dropped_keys {
            if self.st.seen_pair.contains(&key) {
                self.bits.insert(idx as usize);
            }
        }
        EVENTS_MATCHED.add(self.events);
        ASSOC_EXERCISED.add(self.exercised.len() as u64);
        QUARANTINED.add(self.quarantined);
        (
            DynamicResult {
                exercised: self.exercised,
                defs_executed: self.defs_executed,
                warnings: self.warnings,
                quarantined: self.quarantined,
            },
            self.bits,
        )
    }
}

impl tdf_sim::CompactConsumer for MatchCursor<'_> {
    fn consume(&mut self, event: &CompactEvent) {
        self.feed(event);
    }
}

impl LogState {
    /// Dense slot for `(row, var)` when the variable symbol predates the
    /// freeze; `None` routes to the overflow map.
    #[inline]
    fn slot(row: Option<usize>, frozen: usize, var: Sym) -> Option<usize> {
        match row {
            Some(r) if (var.0 as usize) < frozen => Some(r * frozen + var.0 as usize),
            _ => None,
        }
    }

    #[inline]
    fn get_last_def(&self, row: Option<usize>, frozen: usize, model: Sym, var: Sym) -> Option<u32> {
        match Self::slot(row, frozen, var) {
            Some(s) => {
                let line = self.last_def[s];
                (line != NO_DEF).then_some(line)
            }
            None => self.last_def_extra.get(&(model.0, var.0)).copied(),
        }
    }

    #[inline]
    fn set_last_def(&mut self, row: Option<usize>, frozen: usize, model: Sym, var: Sym, line: u32) {
        match Self::slot(row, frozen, var) {
            Some(s) => self.last_def[s] = line,
            None => {
                self.last_def_extra.insert((model.0, var.0), line);
            }
        }
    }

    #[inline]
    fn remove_last_def(&mut self, row: Option<usize>, frozen: usize, model: Sym, var: Sym) {
        match Self::slot(row, frozen, var) {
            Some(s) => self.last_def[s] = NO_DEF,
            None => {
                self.last_def_extra.remove(&(model.0, var.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::analyse_events_with_mode;
    use tdf_interp::{Interface, TdfModelDef};
    use tdf_sim::{Event, ModuleClass, ModuleInfo, Netlist, Provenance, SimTime};

    fn design() -> Design {
        let src = "void M::processing()\n{\n    double t = ip_x;\n    op_y = t;\n}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new()
                .input("ip_x")
                .output("op_y")
                .member("m_s", 0i64),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![ModuleInfo {
                name: "M".into(),
                class: ModuleClass::UserCode,
                in_ports: vec!["ip_x".into()],
                out_ports: vec!["op_y".into()],
            }],
        };
        Design::new(tu, models, netlist).unwrap()
    }

    fn def_at(model: &str, var: &str, line: u32, us: u64) -> Event {
        Event::Def {
            time: SimTime::from_us(us),
            model: model.into(),
            var: var.into(),
            line,
        }
    }

    fn use_at(model: &str, var: &str, line: u32, us: u64) -> Event {
        Event::Use {
            time: SimTime::from_us(us),
            model: model.into(),
            var: var.into(),
            line,
            feeding: None,
            defined: true,
        }
    }

    fn fed(model: &str, var: &str, line: u32, prov: Provenance) -> Event {
        Event::Use {
            time: SimTime::ZERO,
            model: model.into(),
            var: var.into(),
            line,
            feeding: Some(prov),
            defined: true,
        }
    }

    /// Runs `events` through both matchers in `mode` and asserts the
    /// results are identical field by field; returns the automaton pair
    /// for extra assertions.
    fn assert_equiv(design: &Design, events: &[Event], mode: MatchMode) -> (DynamicResult, BitSet) {
        let statics = crate::statics::analyse(design);
        let automaton = MatchAutomaton::new(design, &statics);
        let compact: Vec<CompactEvent> = events
            .iter()
            .map(|e| CompactEvent::from_event(e, automaton.interner()))
            .collect();
        let legacy = analyse_events_with_mode(design, events, mode);
        let (fast, bits) = automaton.analyse_with_coverage(&compact, mode);
        assert_eq!(fast.exercised, legacy.exercised);
        assert_eq!(fast.defs_executed, legacy.defs_executed);
        assert_eq!(fast.warnings, legacy.warnings);
        assert_eq!(fast.quarantined, legacy.quarantined);
        // Bit i set iff associations[i] was exercised.
        for (i, ca) in statics.associations.iter().enumerate() {
            assert_eq!(
                bits.contains(i),
                fast.exercised.contains(&ca.assoc),
                "bit {i} disagrees with the exercised set for {}",
                ca.assoc
            );
        }
        (fast, bits)
    }

    #[test]
    fn matches_legacy_on_a_healthy_log_in_both_modes() {
        let d = design();
        let events = vec![
            def_at("M", "t", 3, 0),
            use_at("M", "t", 4, 0),
            def_at("M", "m_s", 7, 1),
            use_at("M", "m_s", 3, 2),
            use_at("M", "ip_x", 3, 2),
            fed("M", "ip_x", 3, Provenance::new("op_y", 4, "M")),
            fed("M", "ip_x", 3, Provenance::new("op_out", 14, "top")),
        ];
        let (strict, _) = assert_equiv(&d, &events, MatchMode::Strict);
        assert!(strict
            .exercised
            .contains(&Association::new("t", 3, "M", 4, "M")));
        assert!(strict
            .exercised
            .contains(&Association::new("ip_x", 1, "M", 3, "M")));
        assert!(strict
            .exercised
            .contains(&Association::new("op_out", 14, "top", 3, "M")));
        assert_equiv(&d, &events, MatchMode::Lenient);
    }

    #[test]
    fn matches_legacy_on_unknown_models_in_strict_mode() {
        // Strict mode matches events of models the design never declared
        // (their symbols may even be interned post-freeze): they take the
        // overflow last-def path.
        let d = design();
        let events = vec![
            def_at("TS", "x", 5, 0),
            use_at("TS", "x", 6, 0),
            fed("M", "ip_x", 3, Provenance::new("op_out", 14, "TS")),
            use_at("TS", "y", 7, 0), // use without def in an unknown model
        ];
        let (strict, _) = assert_equiv(&d, &events, MatchMode::Strict);
        assert!(strict
            .exercised
            .contains(&Association::new("x", 5, "TS", 6, "TS")));
        assert!(strict
            .exercised
            .contains(&Association::new("op_out", 14, "TS", 3, "M")));
    }

    #[test]
    fn matches_legacy_on_ghost_corruption_in_lenient_mode() {
        let d = design();
        let events = vec![
            use_at("__ghost_model_0", "t", 4, 0),
            use_at("__ghost_model_0", "t", 4, 1),
            use_at("M", "__ghost_var_0", 4, 0),
            fed(
                "M",
                "ip_x",
                3,
                Provenance::new("op_out", 14, "__ghost_model_2"),
            ),
            def_at("M", "t", 3, 0),
            use_at("M", "t", 4, 0),
        ];
        let (lenient, _) = assert_equiv(&d, &events, MatchMode::Lenient);
        assert_eq!(lenient.quarantined, 4);
        // Ghost events also behave like legacy when strict mode trusts them.
        assert_equiv(&d, &events, MatchMode::Strict);
    }

    #[test]
    fn matches_legacy_on_backward_time_def_poisoning() {
        let d = design();
        let events = vec![
            def_at("M", "t", 3, 10),
            def_at("M", "t", 9, 0), // warped backwards: quarantined, poisons
            use_at("M", "t", 10, 10),
        ];
        let (lenient, bits) = assert_equiv(&d, &events, MatchMode::Lenient);
        assert_eq!(lenient.quarantined, 1);
        assert!(lenient.exercised.is_empty());
        assert!(bits.is_empty());
    }

    #[test]
    fn reduced_tracking_reconstructs_full_coverage_bits() {
        // Three local pairs where (t,3 -> 5) subsumes both (t,3 -> 4) and
        // (u,4 -> 5), so the statics drop two rows from the frontier.
        let src = "void M::processing()\n{\n    double t = ip_x;\n    double u = t;\n    op_y = t + u;\n}";
        let tu = minic::parse(src).unwrap();
        let models = vec![TdfModelDef::new(
            "M",
            Interface::new().input("ip_x").output("op_y"),
        )];
        let netlist = Netlist {
            cluster: "top".into(),
            bindings: vec![],
            modules: vec![ModuleInfo {
                name: "M".into(),
                class: ModuleClass::UserCode,
                in_ports: vec!["ip_x".into()],
                out_ports: vec!["op_y".into()],
            }],
        };
        let d = Design::new(tu, models, netlist).unwrap();
        let statics = crate::statics::analyse(&d);
        assert!(
            statics.subsumption.dropped_count() >= 1,
            "fixture must reduce at least one association"
        );
        let full = MatchAutomaton::with_tracking(&d, &statics, Tracking::Full);
        let reduced = MatchAutomaton::with_tracking(&d, &statics, Tracking::Reduced);
        // A complete activation, and a truncated log that exercises a
        // *dropped* pair without its subsumer — reconstruction must not
        // trust the static relation.
        let complete = vec![
            def_at("M", "t", 3, 0),
            use_at("M", "t", 4, 0),
            def_at("M", "u", 4, 0),
            use_at("M", "t", 5, 0),
            use_at("M", "u", 5, 0),
        ];
        let truncated = vec![def_at("M", "t", 3, 0), use_at("M", "t", 4, 0)];
        for events in [&complete, &truncated] {
            let compact: Vec<CompactEvent> = events
                .iter()
                .map(|e| CompactEvent::from_event(e, full.interner()))
                .collect();
            for mode in [MatchMode::Strict, MatchMode::Lenient] {
                let (rf, bf) = full.analyse_with_coverage(&compact, mode);
                let (rr, br) = reduced.analyse_with_coverage(&compact, mode);
                assert_eq!(rf.exercised, rr.exercised);
                assert_eq!(rf.defs_executed, rr.defs_executed);
                assert_eq!(rf.warnings, rr.warnings);
                assert_eq!(rf.quarantined, rr.quarantined);
                assert_eq!(bf, br, "coverage bits must be byte-identical");
            }
        }
        // The truncated log's only pair is a dropped one; its bit is set.
        let compact: Vec<CompactEvent> = truncated
            .iter()
            .map(|e| CompactEvent::from_event(e, full.interner()))
            .collect();
        let (_, bits) = reduced.analyse_with_coverage(&compact, MatchMode::Strict);
        let i = statics
            .associations
            .iter()
            .position(|c| c.assoc == Association::new("t", 3, "M", 4, "M"))
            .unwrap();
        assert!(statics.subsumption.dropped.contains(i));
        assert!(
            bits.contains(i),
            "dropped bit reconstructed from seen-pairs"
        );
    }

    #[test]
    fn coverage_bits_index_the_static_association_list() {
        let d = design();
        let statics = crate::statics::analyse(&d);
        assert!(
            !statics.associations.is_empty(),
            "test design must yield associations"
        );
        let automaton = MatchAutomaton::new(&d, &statics);
        assert_eq!(automaton.n_associations(), statics.associations.len());
        // Exercise every static association directly by synthesising the
        // event that closes it.
        let events: Vec<Event> = statics
            .associations
            .iter()
            .map(|ca| {
                fed(
                    &ca.assoc.use_model,
                    "ip_x",
                    ca.assoc.use_line,
                    Provenance::new(&ca.assoc.var, ca.assoc.def_line, &ca.assoc.def_model),
                )
            })
            .collect();
        let compact: Vec<CompactEvent> = events
            .iter()
            .map(|e| CompactEvent::from_event(e, automaton.interner()))
            .collect();
        let (_, bits) = automaton.analyse_with_coverage(&compact, MatchMode::Strict);
        assert_eq!(bits.len(), statics.associations.len());
    }
}
