//! Cost evaluators for the three optimization flows (paper Fig. 3).

use crate::context::EvalContext;
use aig::analysis::levels;
use aig::cut::CutDb;
use aig::incremental::{DirtyRegion, IncrementalAnalysis};
use aig::{Aig, NodeId};
use cells::Library;
use features::{extract, FeatureVector, IncrementalFeatures};
use gbt::{Forest, GbtModel};
use sta::IncrementalSta;
use std::marker::PhantomData;
use techmap::{GateId, MapContext, MapOptions, MappedDesign, Mapper, SizingTable};

/// Everything [`CostEvaluator::evaluate_edit`] /
/// [`CostEvaluator::resync_edit`] need to know about one in-place
/// edit, bundled so evaluators with different state granularities can
/// share the SA loops' call sites.
pub struct EditScope<'a> {
    /// Live cut database of the edited graph.
    pub cuts: &'a CutDb,
    /// Watermark: every per-node quantity below this id is unchanged
    /// since the evaluator's previous call, and node ids are stable.
    /// `0` is an ordinary watermark (an edit touching the constant
    /// node); it does *not* declare the whole graph suspect — that is
    /// [`EditScope::whole_graph`]'s job.
    pub dirty_since: NodeId,
    /// Every per-node quantity is suspect, node identities included:
    /// a whole-graph accept replaced the graph, a compaction sweep
    /// re-ranked its ids, or a replica was re-cloned. Forces every
    /// stateful evaluator onto its rebuild path.
    pub whole_graph: bool,
    /// The edit's merged dirty footprint plus the engine's live
    /// [`IncrementalAnalysis`], when the caller maintains them.
    /// Evaluators with per-node *delta* state ([`MlCost`]'s
    /// [`IncrementalFeatures`]) consume this; `None` — or
    /// `whole_graph` — forces their full-recompute path.
    /// Watermark-based evaluators ([`GroundTruthCost`]) ignore it.
    pub delta: Option<(&'a DirtyRegion, &'a IncrementalAnalysis)>,
}

impl<'a> EditScope<'a> {
    /// Scope with the watermark hint only (ids stable).
    pub fn new(cuts: &'a CutDb, dirty_since: NodeId) -> Self {
        EditScope {
            cuts,
            dirty_since,
            whole_graph: false,
            delta: None,
        }
    }

    /// Scope declaring the whole graph suspect (see
    /// [`EditScope::whole_graph`]): evaluators rebuild their per-node
    /// state.
    pub fn whole_graph(cuts: &'a CutDb) -> Self {
        EditScope {
            whole_graph: true,
            ..EditScope::new(cuts, 0)
        }
    }

    /// Attaches the edit's dirty footprint and the live analysis.
    #[must_use]
    pub fn with_delta(
        mut self,
        region: &'a DirtyRegion,
        analysis: &'a IncrementalAnalysis,
    ) -> Self {
        self.delta = Some((region, analysis));
        self
    }
}

/// Delay/area estimate for one AIG.
///
/// Units depend on the evaluator: the proxy flow reports AIG levels
/// and node counts, the ground-truth and ML flows report picoseconds
/// and square micrometers. The SA loop normalizes by the initial
/// cost, so flows are comparable despite different units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostMetrics {
    /// Delay estimate.
    pub delay: f64,
    /// Area estimate.
    pub area: f64,
}

/// Anything that can price an AIG for the SA loop.
pub trait CostEvaluator {
    /// Estimates delay and area of `aig`.
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics;

    /// [`CostEvaluator::evaluate`] with access to the SA loop's
    /// reusable [`EvalContext`]; identical metrics, but evaluators may
    /// lean on the context's buffers to skip per-candidate
    /// allocations. The default ignores the context.
    fn evaluate_ctx(&mut self, aig: &Aig, _ctx: &mut EvalContext) -> CostMetrics {
        self.evaluate(aig)
    }

    /// Prices a graph that was **edited in place** since this
    /// evaluator's previous call: `scope` carries the live cut
    /// database, the clean-prefix watermark (accumulated by the SA
    /// loop across rejected moves) and, on the transaction-engine
    /// path, the edit's dirty footprint plus the live analysis.
    /// Metrics are identical to [`CostEvaluator::evaluate`]; the
    /// point is cost — evaluators with per-node state reuse
    /// everything outside the edit (the ground-truth mapper its
    /// clean-prefix DP rows, the ML evaluator its feature deltas).
    /// The default ignores the hints.
    fn evaluate_edit(
        &mut self,
        aig: &Aig,
        _scope: &EditScope<'_>,
        ctx: &mut EvalContext,
    ) -> CostMetrics {
        self.evaluate_ctx(aig, ctx)
    }

    /// Notifies an evaluator with per-node state that the graph it
    /// just priced through [`CostEvaluator::evaluate_edit`] was
    /// rolled back: `aig` is the restored graph and `scope` describes
    /// the rejected edit against it (restored cut database, the
    /// move's watermark, and — on the engine path — the move's
    /// captured footprint over the *restored* analysis). Stateful
    /// evaluators re-sync their state to the restored graph *now*
    /// (cost bounded by the edit), so watermarks never accumulate
    /// across a long reject streak into a whole-graph recompute.
    ///
    /// Journal contract: an evaluator may undo from a journal its
    /// previous call wrote ([`GroundTruthCost`] does), so the call
    /// must follow the `evaluate_edit` of the rolled-back edit
    /// *immediately* on the same evaluator — the journal is armed
    /// only by that call and disarmed by any other. Without an armed
    /// journal the evaluator recomputes instead. Results are
    /// unaffected either way — state is pure w.r.t. the graph — so
    /// the default is a no-op.
    fn resync_edit(&mut self, _aig: &Aig, _scope: &EditScope<'_>, _ctx: &mut EvalContext) {}

    /// No caller left: only the removed speculative engine read it.
    /// The SA loop always calls [`CostEvaluator::resync_edit`] after
    /// a rollback. Kept because the `perfbench` harness forwards it.
    fn wants_rollback_resync(&self) -> bool {
        false
    }

    /// Evaluator name for reports (`proxy`, `ground-truth`, `ml`).
    fn name(&self) -> &'static str;
}

/// Baseline flow: AIG levels ≈ delay, node count ≈ area.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyCost;

impl CostEvaluator for ProxyCost {
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics {
        CostMetrics {
            delay: f64::from(levels(aig).max_level),
            area: aig.num_ands() as f64,
        }
    }

    fn evaluate_ctx(&mut self, aig: &Aig, ctx: &mut EvalContext) -> CostMetrics {
        CostMetrics {
            delay: f64::from(ctx.levels_of(aig).max_level),
            area: aig.num_ands() as f64,
        }
    }

    fn name(&self) -> &'static str {
        "proxy"
    }
}

/// Ground-truth flow: full technology mapping plus sizing plus STA
/// per call.
///
/// Construction precomputes the Boolean-match tables and the
/// [`SizingTable`] once and owns a [`MapContext`] plus reusable
/// sizing/STA buffers, so the thousands of evaluations one SA run
/// makes allocate nothing graph-sized on the steady state.
///
/// For in-place SA steps ([`CostEvaluator::evaluate_edit`]) the
/// evaluator additionally keeps a **persistent incremental timing
/// state**: a [`MappedDesign`] (the previous step's netlist, patched
/// in place to follow the refreshed DP rows) and an
/// [`IncrementalSta`] (persistent arrival/load state re-propagated
/// over the patch's dirty nets). On the steady state an in-place step
/// therefore performs *no whole-netlist walk* — mapping, sizing and
/// STA are all bounded by the edit's footprint — while the metrics
/// stay bit-identical to the full pipeline (the differential suite
/// asserts this on random edit walks).
///
/// Rejected in-place steps are **undone, not recomputed**: a
/// per-row-cutoff `evaluate_edit` journals the old value of every DP
/// entry it overwrites, and the immediately following
/// [`CostEvaluator::resync_edit`] replays that journal backwards,
/// patches the design over exactly the restored rows and re-runs
/// incremental sizing and STA over the patch
/// ([`Mapper::undo_sync`]). The journal is armed only by the
/// immediately preceding cutoff-path `evaluate_edit`; any other call
/// disarms it, and `resync_edit` then falls back to the incremental
/// recompute (bit-identical, the test oracle).
pub struct GroundTruthCost<'a> {
    lib: &'a Library,
    mapper: Mapper<'a>,
    map_ctx: MapContext,
    sizing: SizingTable,
    sta_bufs: sta::StaBuffers,
    resize_loads: Vec<f64>,
    design: MappedDesign,
    inc_sta: IncrementalSta,
    sta_seeds: Vec<GateId>,
}

impl<'a> GroundTruthCost<'a> {
    /// Creates a ground-truth evaluator (delay-oriented mapping).
    pub fn new(lib: &'a Library) -> Self {
        Self::with_options(lib, MapOptions::default())
    }

    /// Creates an evaluator with custom mapping options.
    pub fn with_options(lib: &'a Library, opts: MapOptions) -> Self {
        GroundTruthCost {
            lib,
            mapper: Mapper::new(lib, opts),
            map_ctx: MapContext::new(),
            sizing: SizingTable::new(lib),
            sta_bufs: sta::StaBuffers::new(),
            resize_loads: Vec::new(),
            design: MappedDesign::new(),
            inc_sta: IncrementalSta::new(),
            sta_seeds: Vec::new(),
        }
    }

    /// Creates an evaluator whose graph-shaped mapping buffers are
    /// checked out of `pool` instead of built from scratch — pair
    /// with [`GroundTruthCost::recycle`] at teardown so the grown
    /// capacity survives into the next evaluator (see
    /// [`techmap::MapPool`]). Metrics are identical to
    /// [`GroundTruthCost::with_options`]'s: pooled buffers carry
    /// capacity (and the graph-independent shortlist memo), never
    /// per-graph content.
    pub fn with_pool(lib: &'a Library, opts: MapOptions, pool: &mut techmap::MapPool) -> Self {
        GroundTruthCost {
            lib,
            mapper: Mapper::new(lib, opts),
            map_ctx: pool.take_context(),
            sizing: SizingTable::new(lib),
            sta_bufs: sta::StaBuffers::new(),
            resize_loads: Vec::new(),
            design: pool.take_design(),
            inc_sta: IncrementalSta::new(),
            sta_seeds: Vec::new(),
        }
    }

    /// Returns the evaluator's mapping buffers to `pool` for the next
    /// [`GroundTruthCost::with_pool`] checkout.
    pub fn recycle(self, pool: &mut techmap::MapPool) {
        pool.put_context(self.map_ctx);
        pool.put_design(self.design);
    }

    /// Pre-sizes every graph-shaped buffer this evaluator owns for an
    /// `nodes`-node AIG (capacity only), so a large-tier run grows
    /// nothing mid-flight.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        let max_cuts = self.mapper.options().max_cuts;
        self.map_ctx.reserve_nodes(nodes, max_cuts);
        self.design.reserve_nodes(nodes);
    }

    /// Enables or disables the mapper's per-row DP cutoff (default
    /// **on**; see [`MapContext::set_row_cutoff`]). Off reverts
    /// [`CostEvaluator::evaluate_edit`] to recomputing every DP row
    /// at or above the edit watermark — the oracle side of the cutoff
    /// byte-identity tests. Metrics are bit-identical either way.
    pub fn set_dp_row_cutoff(&mut self, on: bool) {
        self.map_ctx.set_row_cutoff(on);
    }

    /// DP rows the mapper recomputed in the most recent evaluation
    /// (see [`MapContext::recomputed_rows`]); `0` after an undone
    /// reject.
    pub fn dp_recomputed_rows(&self) -> usize {
        self.map_ctx.recomputed_rows()
    }

    /// The mapper's context (read-only; for state inspection such as
    /// [`MapContext::dp_snapshot`]).
    pub fn map_context(&self) -> &MapContext {
        &self.map_ctx
    }

    /// Re-sizes the last patch's footprint and re-propagates arrivals
    /// over it (the incremental tail of an in-place step).
    fn finish_patch(&mut self) {
        self.sta_seeds.clear();
        self.design
            .finish_incremental(&self.sizing, &mut self.sta_seeds);
        self.inc_sta.update(
            self.design.netlist(),
            self.lib,
            self.design.topo_keys(),
            &self.sta_seeds,
        );
    }
}

impl CostEvaluator for GroundTruthCost<'_> {
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics {
        // The full pipeline prices a graph the persistent design no
        // longer mirrors: drop it (the next in-place step rebuilds).
        self.design.invalidate();
        let mut nl = self
            .mapper
            .map_with(&mut self.map_ctx, aig)
            .expect("builtin library maps every strashed AIG");
        techmap::resize_greedy_with(&mut nl, self.lib, &self.sizing, 2, &mut self.resize_loads);
        let (delay, area) = sta::delay_and_area_into(&nl, self.lib, &mut self.sta_bufs);
        CostMetrics { delay, area }
    }

    /// In-place steps patch the persistent [`MappedDesign`] (cut
    /// lists from `cuts`, DP rows reused below the watermark *and*,
    /// through the per-row version/equality cutoff, above it —
    /// recomputation tracks the edit footprint, not the
    /// watermark-to-top distance), re-size only the patch's footprint
    /// ([`techmap::resize_greedy_incremental`]) and re-propagate
    /// arrivals only over the dirty cone ([`IncrementalSta`]); the
    /// metrics are bit-identical to [`CostEvaluator::evaluate`]'s.
    fn evaluate_edit(
        &mut self,
        aig: &Aig,
        scope: &EditScope<'_>,
        _ctx: &mut EvalContext,
    ) -> CostMetrics {
        let opts = self.mapper.options();
        if scope.cuts.k() != opts.cut_size || scope.cuts.max_cuts() != opts.max_cuts {
            return self.evaluate(aig); // foreign cut parameters: full path
        }
        let rebuilt = self
            .mapper
            .sync_design(
                &mut self.map_ctx,
                aig,
                scope.cuts,
                scope.dirty_since,
                scope.whole_graph,
                &mut self.design,
            )
            .expect("builtin library maps every strashed AIG");
        if rebuilt {
            self.design.finish_full(&self.sizing);
            self.inc_sta
                .build(self.design.netlist(), self.lib, self.design.topo_keys());
        } else {
            self.finish_patch();
        }
        let nl = self.design.netlist();
        CostMetrics {
            delay: self.inc_sta.max_delay_ps(nl),
            area: nl.area_um2(self.lib),
        }
    }

    /// Re-syncs the persistent design to the rolled-back graph
    /// immediately, so the SA loop's watermark never degrades toward
    /// a whole-graph DP recompute across reject streaks. With the
    /// journal armed by the immediately preceding cutoff-path
    /// `evaluate_edit`, the DP state is undone from it (zero rows
    /// recomputed; cost bounded by what the edit wrote); otherwise
    /// the rows are recomputed through `evaluate_edit`.
    fn resync_edit(&mut self, aig: &Aig, scope: &EditScope<'_>, ctx: &mut EvalContext) {
        let undone = !scope.whole_graph
            && self
                .mapper
                .undo_sync(&mut self.map_ctx, aig, scope.cuts, &mut self.design);
        if undone {
            self.finish_patch();
        } else {
            let _ = self.evaluate_edit(aig, scope, ctx);
        }
    }

    fn name(&self) -> &'static str {
        "ground-truth"
    }
}

/// ML flow: feature extraction plus boosted-tree inference.
///
/// Predicts post-mapping delay and area without mapping, as in the
/// paper's proposed flow.
///
/// For in-place SA steps ([`CostEvaluator::evaluate_edit`]) the
/// evaluator keeps a persistent [`IncrementalFeatures`] state and
/// re-derives only the features the edit's [`DirtyRegion`] can have
/// moved; inference always runs through pre-flattened [`Forest`]s.
/// Predictions are bit-identical to the whole-graph
/// `extract` + [`GbtModel::predict_f64`] path (the differential suite
/// asserts this on random edit walks), so the engine-on/off
/// byte-identity guarantee carries over unchanged.
pub struct MlCost<'a> {
    /// The forests are flattened copies; the borrow only keeps the
    /// public `MlCost<'a>` signature.
    models: PhantomData<&'a GbtModel>,
    delay_forest: Forest,
    area_forest: Forest,
    feats: IncrementalFeatures,
}

impl<'a> MlCost<'a> {
    /// Creates an ML evaluator from trained delay and area models.
    pub fn new(delay_model: &'a GbtModel, area_model: &'a GbtModel) -> Self {
        MlCost {
            models: PhantomData,
            delay_forest: Forest::flatten(delay_model),
            area_forest: Forest::flatten(area_model),
            feats: IncrementalFeatures::default(),
        }
    }

    fn metrics_of(&self, f: &FeatureVector) -> CostMetrics {
        CostMetrics {
            delay: self.delay_forest.predict_row_f64(f.as_slice()),
            area: self.area_forest.predict_row_f64(f.as_slice()),
        }
    }
}

impl CostEvaluator for MlCost<'_> {
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics {
        // Whole-graph path: the persistent feature state no longer
        // mirrors this graph — drop it (the next in-place step
        // rebuilds).
        self.feats.invalidate();
        let f = extract(aig);
        self.metrics_of(&f)
    }

    /// In-place steps sync the persistent [`IncrementalFeatures`]
    /// over the edit's footprint (see the `features` module docs for
    /// the delta contract) instead of re-walking the graph; metrics
    /// are bit-identical to [`CostEvaluator::evaluate`]'s.
    fn evaluate_edit(
        &mut self,
        aig: &Aig,
        scope: &EditScope<'_>,
        _ctx: &mut EvalContext,
    ) -> CostMetrics {
        match scope.delta {
            Some((region, analysis)) if !scope.whole_graph && self.feats.is_valid() => {
                self.feats.sync(aig, region, analysis);
            }
            _ => self.feats.rebuild(aig),
        }
        let f = self.feats.features(aig);
        self.metrics_of(&f)
    }

    /// Re-syncs the persistent feature state to the rolled-back graph
    /// (cost bounded by the rejected edit's footprint).
    fn resync_edit(&mut self, aig: &Aig, scope: &EditScope<'_>, ctx: &mut EvalContext) {
        let _ = self.evaluate_edit(aig, scope, ctx);
    }

    fn name(&self) -> &'static str {
        "ml"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::sky130ish;

    fn sample_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let f = g.xor(ab, c);
        g.add_output(f, None::<&str>);
        g
    }

    #[test]
    fn proxy_reports_levels_and_nodes() {
        let g = sample_aig();
        let m = ProxyCost.evaluate(&g);
        assert_eq!(m.area, g.num_ands() as f64);
        assert_eq!(m.delay, f64::from(levels(&g).max_level));
        assert_eq!(ProxyCost.name(), "proxy");
    }

    #[test]
    fn ground_truth_positive_and_stable() {
        let lib = sky130ish();
        let mut gt = GroundTruthCost::new(&lib);
        let g = sample_aig();
        let m1 = gt.evaluate(&g);
        let m2 = gt.evaluate(&g);
        assert!(m1.delay > 0.0 && m1.area > 0.0);
        assert_eq!(m1, m2, "evaluation must be deterministic");
        assert_eq!(gt.name(), "ground-truth");
    }

    #[test]
    fn pooled_ground_truth_matches_fresh_and_reuses() {
        let lib = sky130ish();
        let g = sample_aig();
        let baseline = GroundTruthCost::new(&lib).evaluate(&g);
        let mut pool = techmap::MapPool::new();
        pool.reserve_nodes(g.num_nodes(), MapOptions::default().max_cuts);
        for _ in 0..3 {
            let mut gt = GroundTruthCost::with_pool(&lib, MapOptions::default(), &mut pool);
            assert_eq!(gt.evaluate(&g), baseline, "pooled buffers carry no content");
            gt.recycle(&mut pool);
        }
        assert_eq!(
            pool.misses(),
            2,
            "one context and one design are built, every later run reuses them"
        );
    }

    #[test]
    fn ml_cost_uses_models() {
        // Train trivial constant models.
        let mut data = gbt::Dataset::new(features::NUM_FEATURES);
        let g = sample_aig();
        let f = extract(&g);
        data.push_row_f64(f.as_slice(), 123.0);
        data.push_row_f64(f.as_slice(), 123.0);
        let params = gbt::GbtParams {
            num_rounds: 5,
            ..gbt::GbtParams::default()
        };
        let delay_model = gbt::train(&data, &params);
        let area_model = gbt::train(&data, &params);
        let mut ml = MlCost::new(&delay_model, &area_model);
        let m = ml.evaluate(&g);
        assert!((m.delay - 123.0).abs() < 1.0);
        assert_eq!(ml.name(), "ml");
    }
}
