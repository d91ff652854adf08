//! Measurement plumbing shared by the workloads: a counting allocator, an
//! in-memory span recorder, per-layer tallies, order statistics and the
//! process's peak resident set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Heap-allocation counter wrapped around the system allocator. Counting
/// costs one relaxed load per allocation while switched off; the traced run
/// switches it on around each op only.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (process-wide, all threads).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (reallocations included) and requested bytes counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded interval: a call into a layer made from benchmark code.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name, `<layer>.<what>`; `op` and `probe` are the two roots.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The traced op this span belongs to, counting from 1; probes share
    /// the number of the op they follow.
    pub op: u64,
    /// Start and end, nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Switched off it records nothing and reads no
/// clock; the traced run keeps every span and writes them out at exit.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if self.stack.is_empty() && name == "op" {
            self.op += 1;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now_ns();
        let i = self.stack.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end;
        self.spans[i].ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an interval measured elsewhere (e.g. inside a callback the
    /// program calls) as a closed child of the innermost open span.
    pub fn closed(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Self time of every span recorded since span index `from`, in
    /// recording order: its duration minus the durations of its children.
    pub fn self_ns_since(&self, from: usize) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() - from];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.ns();
            }
        }
        self.spans[from..]
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.name, s.ns().saturating_sub(c)))
            .collect()
    }

    /// Number of spans recorded so far (a cursor for [`Tracer::self_ns_since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sums per metric name, for per-op means of per-layer quantities.
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The tally key of a span's layer: the name up to the first `.`. The
/// root `op` span's self time is benchmark glue and recording overhead.
pub fn layer_key(span: &str) -> &'static str {
    match span.split('.').next() {
        Some("models") => "self.models",
        Some("tdf-sim") => "self.tdf-sim",
        Some("core") => "self.core",
        Some("monitor") => "self.monitor",
        Some("testgen") => "self.testgen",
        Some("serve") => "self.serve",
        _ => "self.unattributed",
    }
}

/// Adds the self time of each of an op's spans to its layer, in ms.
pub fn attribute(op_spans: &[(&'static str, u64)], t: &mut Tally) {
    for &(name, ns) in op_spans {
        t.add(layer_key(name), ns as f64 / 1e6);
    }
}

/// Moves `ms` of already attributed time from one layer to another: how a
/// differential probe splits a fused span.
pub fn reattribute(t: &mut Tally, from: &'static str, to: &'static str, ms: f64) {
    t.add(from, -ms);
    t.add(to, ms);
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reaches).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Ops per second of a set of op latencies in ms.
pub fn rate(lat_ms: &[f64]) -> f64 {
    ratio(lat_ms.len() as f64, lat_ms.iter().sum::<f64>() / 1e3)
}

/// Time of [`calibrate`] at the reference machine speed, ms.
pub const REFERENCE_MS: f64 = 1.0;

/// A fixed kernel that does not touch the program — string formatting,
/// small allocations, hashing — timed in ms. The host's speed drifts by up
/// to 2x over minutes (neighbours on shared cores, no steal time showing),
/// and this kernel's time tracks it: op times are scaled by
/// `REFERENCE_MS / calibrate()` measured around each op.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut table: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for i in 0..8_000u32 {
        *table.entry(format!("v{}", i % 61)).or_insert(0.0) += f64::from(i).sqrt();
    }
    std::hint::black_box(table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: the benchmark's only source of randomness, so one seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to 1/1024 so it prints and parses
    /// back exactly.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1024.0).round() / 1024.0
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
