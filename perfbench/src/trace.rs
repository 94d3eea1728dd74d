//! The traced run's instrument: spans recorded from the benchmark's
//! side of the public API, around the calls into each layer.
//!
//! [`Traced`] wraps a [`CostEvaluator`] and forwards every call
//! unchanged. It records one span per call, reads the public counters
//! the layers expose after each call, and on sampled whole-graph calls
//! re-prices the graph through the public layer functions (a *probe*)
//! and checks the result against the evaluator's bit for bit. Nothing
//! inside the program is instrumented.

use aig::Aig;
use cells::Library;
use gbt::Forest;
use saopt::{
    CostEvaluator, CostMetrics, EditScope, EvalContext, GroundTruthCost, MlCost, ProxyCost,
};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use techmap::{MapContext, MapOptions, Mapper, SizingTable};

/// Every `PROBE_EVERY`-th whole-graph call of an adapter (starting
/// with the first) is re-priced through the layer functions.
const PROBE_EVERY: u64 = 8;

/// The three optimisation flows, in the order they run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Flow {
    Baseline,
    Gt,
    Ml,
}

impl Flow {
    pub const ALL: [Flow; 3] = [Flow::Baseline, Flow::Gt, Flow::Ml];

    pub fn tag(self) -> &'static str {
        match self {
            Flow::Baseline => "baseline",
            Flow::Gt => "gt",
            Flow::Ml => "ml",
        }
    }
}

/// One timed interval, in nanoseconds since the trace epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub flow: Option<Flow>,
    pub start: u64,
    pub end: u64,
    /// Id of the enclosing span (0: none).
    pub parent: u64,
    /// Operation id: every span of one SA chain shares it.
    pub op: u64,
    pub worker: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Counters one adapter read through public accessors.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub flow: Option<Flow>,
    pub worker: u32,
    pub arena_nodes_max: usize,
    pub dp_rows_edit: u64,
    pub dp_rows_resync: u64,
    /// `(hits, misses)` of the chain's resynthesis cache when each
    /// chain ended.
    pub resynth: Vec<(u64, u64)>,
    pub pool_misses: usize,
    pub contexts_spawned: usize,
    pub probes: u64,
    pub probe_mismatches: u64,
}

/// Span ids, unique across every [`Trace`] of the process.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The span and counter sink; spans stay in memory until the run ends.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<Counters>>,
}

impl Trace {
    /// A sink timing against `epoch` (traces sharing an epoch can be
    /// written to one file).
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn id(&self) -> u64 {
        // The counter publishes no other data.
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span the harness timed itself (its id drawn from
    /// [`Trace::id`] before its children were recorded).
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("trace sink poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace sink poisoned").clone()
    }

    pub fn counters(&self) -> Vec<Counters> {
        self.counters.lock().expect("trace sink poisoned").clone()
    }
}

/// Writes spans as tab-separated lines, one per span.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tflow\tstart_ns\tend_ns\tparent\top\tworker")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.name,
            s.flow.map_or("-", Flow::tag),
            s.start,
            s.end,
            s.parent,
            s.op,
            s.worker
        )?;
    }
    out.flush()
}

/// Public counters an evaluator exposes beyond its metrics.
pub trait Inspect: CostEvaluator {
    /// DP rows the mapper recomputed in the most recent call.
    fn dp_rows(&self) -> Option<usize> {
        None
    }
}

impl Inspect for ProxyCost {}
impl Inspect for MlCost<'_> {}
impl Inspect for GroundTruthCost<'_> {
    fn dp_rows(&self) -> Option<usize> {
        Some(self.dp_recomputed_rows())
    }
}

/// Whole-graph re-pricing through the public layer functions.
pub enum Probe<'a> {
    Off,
    Gt(Box<GtProbe<'a>>),
    Ml { delay: &'a Forest, area: &'a Forest },
}

/// The ground-truth pipeline, step by step: map, size, STA.
pub struct GtProbe<'a> {
    lib: &'a Library,
    mapper: Mapper<'a>,
    ctx: MapContext,
    sizing: SizingTable,
    loads: Vec<f64>,
    bufs: sta::StaBuffers,
}

impl<'a> Probe<'a> {
    pub fn gt(lib: &'a Library) -> Self {
        Probe::Gt(Box::new(GtProbe {
            lib,
            mapper: Mapper::new(lib, MapOptions::default()),
            ctx: MapContext::new(),
            sizing: SizingTable::new(lib),
            loads: Vec::new(),
            bufs: sta::StaBuffers::new(),
        }))
    }
}

struct OpenChain {
    id: u64,
    start: u64,
    op: u64,
}

/// A forwarding [`CostEvaluator`] that records a span per call.
///
/// Chains are delimited either by the harness ([`Traced::open_chain`]
/// / [`Traced::close_chain`] around `optimize_with`) or, inside
/// `saopt::sweep`, automatically: every chain starts by pricing the
/// sweep's input graph by reference, so a whole-graph call on that
/// exact `&Aig` opens the next chain.
pub struct Traced<'a, E: Inspect> {
    inner: E,
    flow: Flow,
    trace: &'a Trace,
    input: &'a Aig,
    auto_chains: bool,
    /// Parent of automatically opened chains (the sweep span).
    chain_parent: u64,
    op_base: u64,
    chains_opened: u64,
    chain: Option<OpenChain>,
    last_end: u64,
    spans: Vec<Span>,
    counters: Counters,
    last_resynth: (u64, u64),
    full_calls: u64,
    probe: Probe<'a>,
}

impl<'a, E: Inspect> Traced<'a, E> {
    /// An adapter whose chains the harness delimits.
    pub fn new(inner: E, flow: Flow, trace: &'a Trace, input: &'a Aig, probe: Probe<'a>) -> Self {
        Traced {
            inner,
            flow,
            trace,
            input,
            auto_chains: false,
            chain_parent: 0,
            op_base: 0,
            chains_opened: 0,
            chain: None,
            last_end: 0,
            spans: Vec::with_capacity(4096),
            counters: Counters {
                flow: Some(flow),
                ..Counters::default()
            },
            last_resynth: (0, 0),
            full_calls: 0,
            probe,
        }
    }

    /// An adapter for one `saopt::sweep` worker: chains open on each
    /// whole-graph call on `input`, under the span `parent`, with
    /// operation ids `op_base + 1, op_base + 2, ...`.
    pub fn for_sweep(mut self, worker: u32, parent: u64, op_base: u64) -> Self {
        self.auto_chains = true;
        self.counters.worker = worker;
        self.chain_parent = parent;
        self.op_base = op_base;
        self
    }

    /// Ends the open chain, if any, and opens the next one.
    pub fn open_chain(&mut self, op: u64) {
        self.close_chain();
        self.chain = Some(OpenChain {
            id: self.trace.id(),
            start: self.trace.now(),
            op,
        });
        self.chains_opened += 1;
    }

    /// Ends the open chain now (harness-delimited chains) or at the
    /// end of its last evaluator call (sweep chains).
    pub fn close_chain(&mut self) {
        let Some(c) = self.chain.take() else { return };
        let end = if self.auto_chains {
            self.last_end
        } else {
            self.trace.now()
        };
        let name = if self.auto_chains {
            "saopt.chain"
        } else {
            "saopt.optimize_with"
        };
        self.spans.push(Span {
            id: c.id,
            name,
            flow: Some(self.flow),
            start: c.start,
            end,
            parent: self.chain_parent,
            op: c.op,
            worker: self.counters.worker,
        });
        self.counters.resynth.push(self.last_resynth);
    }

    fn parent(&self) -> (u64, u64) {
        self.chain.as_ref().map_or((0, 0), |c| (c.id, c.op))
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) {
        let (parent, op) = self.parent();
        self.spans.push(Span {
            id: self.trace.id(),
            name,
            flow: Some(self.flow),
            start,
            end,
            parent,
            op,
            worker: self.counters.worker,
        });
        self.last_end = end;
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut E) -> R) -> R {
        let start = self.trace.now();
        let r = f(&mut self.inner);
        let end = self.trace.now();
        self.push(name, start, end);
        r
    }

    fn before_full(&mut self, aig: &Aig) {
        if self.auto_chains && std::ptr::eq(aig, self.input) {
            self.open_chain(self.op_base + self.chains_opened + 1);
        }
    }

    fn after(&mut self, aig: &Aig, ctx: Option<&mut EvalContext>) {
        self.counters.arena_nodes_max = self.counters.arena_nodes_max.max(aig.num_nodes());
        if let Some(ctx) = ctx {
            self.last_resynth = (ctx.resynth().hits(), ctx.resynth().misses());
            self.counters.contexts_spawned =
                self.counters.contexts_spawned.max(ctx.contexts_spawned());
            self.counters.pool_misses = self.counters.pool_misses.max(ctx.map_pool().misses());
        }
    }

    fn after_full(&mut self, aig: &Aig, m: CostMetrics) {
        let sample = self.full_calls.is_multiple_of(PROBE_EVERY);
        self.full_calls += 1;
        if !sample {
            return;
        }
        let probed = match &mut self.probe {
            Probe::Off => return,
            Probe::Gt(p) => {
                let t0 = self.trace.now();
                let mut nl = p
                    .mapper
                    .map_with(&mut p.ctx, aig)
                    .expect("builtin library maps every strashed AIG");
                let t1 = self.trace.now();
                techmap::resize_greedy_with(&mut nl, p.lib, &p.sizing, 2, &mut p.loads);
                let t2 = self.trace.now();
                let (delay, area) = sta::delay_and_area_into(&nl, p.lib, &mut p.bufs);
                let t3 = self.trace.now();
                self.push("techmap.map", t0, t1);
                self.push("techmap.size", t1, t2);
                self.push("sta.full", t2, t3);
                CostMetrics { delay, area }
            }
            Probe::Ml { delay, area } => {
                let (delay, area) = (*delay, *area);
                let t0 = self.trace.now();
                let f = features::extract(aig);
                let t1 = self.trace.now();
                let d = delay.predict_row_f64(f.as_slice());
                let a = area.predict_row_f64(f.as_slice());
                let t2 = self.trace.now();
                self.push("features.extract", t0, t1);
                self.push("gbt.predict", t1, t2);
                CostMetrics { delay: d, area: a }
            }
        };
        self.counters.probes += 1;
        if !same_bits(probed, m) {
            self.counters.probe_mismatches += 1;
            eprintln!(
                "probe mismatch ({}): evaluator {m:?}, layer calls {probed:?}",
                self.flow.tag()
            );
        }
    }
}

/// Bitwise equality of two metric pairs.
pub fn same_bits(a: CostMetrics, b: CostMetrics) -> bool {
    a.delay.to_bits() == b.delay.to_bits() && a.area.to_bits() == b.area.to_bits()
}

impl<E: Inspect> Drop for Traced<'_, E> {
    fn drop(&mut self) {
        self.close_chain();
        // Never panic in drop: a poisoned sink loses this adapter's
        // spans, which the coverage figures then show.
        if let Ok(mut spans) = self.trace.spans.lock() {
            spans.append(&mut self.spans);
        }
        if let Ok(mut counters) = self.trace.counters.lock() {
            counters.push(std::mem::take(&mut self.counters));
        }
    }
}

impl<E: Inspect> CostEvaluator for Traced<'_, E> {
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics {
        self.before_full(aig);
        let m = self.timed("cost.full", |e| e.evaluate(aig));
        self.after(aig, None);
        self.after_full(aig, m);
        m
    }

    fn evaluate_ctx(&mut self, aig: &Aig, ctx: &mut EvalContext) -> CostMetrics {
        self.before_full(aig);
        let m = self.timed("cost.full", |e| e.evaluate_ctx(aig, ctx));
        self.after(aig, Some(ctx));
        self.after_full(aig, m);
        m
    }

    fn evaluate_edit(
        &mut self,
        aig: &Aig,
        scope: &EditScope<'_>,
        ctx: &mut EvalContext,
    ) -> CostMetrics {
        let m = self.timed("cost.edit", |e| e.evaluate_edit(aig, scope, ctx));
        if let Some(rows) = self.inner.dp_rows() {
            self.counters.dp_rows_edit += rows as u64;
        }
        self.after(aig, Some(ctx));
        m
    }

    fn resync_edit(&mut self, aig: &Aig, scope: &EditScope<'_>, ctx: &mut EvalContext) {
        self.timed("cost.resync", |e| e.resync_edit(aig, scope, ctx));
        if let Some(rows) = self.inner.dp_rows() {
            self.counters.dp_rows_resync += rows as u64;
        }
        self.after(aig, Some(ctx));
    }

    fn wants_rollback_resync(&self) -> bool {
        self.inner.wants_rollback_resync()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one span never overlap: they run on the
/// span's own thread).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_default() += s.dur();
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.dur()
                    .saturating_sub(child.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Prints every layer's total self time, per flow, to stderr.
pub fn print_self_times(spans: &[Span]) {
    let selfs = self_times(spans);
    let mut by_layer: HashMap<(&'static str, Option<Flow>), (u64, u64)> = HashMap::new();
    for s in spans {
        let e = by_layer.entry((s.name, s.flow)).or_default();
        e.0 += selfs[&s.id];
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_layer.into_iter().collect();
    rows.sort_by(|a, b| (a.0 .1, a.0 .0).cmp(&(b.0 .1, b.0 .0)));
    eprintln!("layer self time (traced reps):");
    for ((name, flow), (ns, n)) in rows {
        eprintln!(
            "  {:<22} {:<9} {:>12.3} ms  {:>7} spans",
            name,
            flow.map_or("-", Flow::tag),
            ns as f64 / 1e6,
            n
        );
    }
}
