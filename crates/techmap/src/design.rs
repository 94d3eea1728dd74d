//! The persistent mapped design behind the incremental ground-truth
//! evaluator.
//!
//! [`Mapper::map_incremental`] made the mapping *DP* dirty-region
//! bounded, but it still instantiated a fresh [`Netlist`] per call —
//! an O(cover) walk whose net ids shift under any local change,
//! defeating downstream incrementality. [`MappedDesign`] removes that
//! last rebuild: it keeps one tracked netlist alive across SA steps
//! and *patches* it to follow the mapper's DP rows.
//!
//! # Slot-stable cover maintenance
//!
//! Every materialized AIG node owns up to three gate slots whose
//! output nets never change while the node stays materialized:
//!
//! * the **main** cell gate implementing the node's chosen match;
//! * a **post-inverter** when the match is output-complemented;
//! * a **complement inverter** feeding consumers that read the node
//!   inverted (shared, like the builder's `inv_of` table).
//!
//! The node's *public net* (what consumers connect to) is the output
//! of the main gate or of the post-inverter. When a node's chosen
//! match changes, the new public gate is revived **into the old
//! public slot**, so the public net — and therefore every consumer's
//! pin connection — survives the re-emission untouched.
//!
//! Cover membership is maintained by reference counting: a node's
//! base polarity is demanded by each materialized consumer using it
//! as an uncomplemented leaf, by each output port exposing it, and by
//! its own complement inverter; the complemented polarity by
//! complemented leaf uses and complemented ports. Demand transitions
//! cascade exactly like retain/release: a count rising from zero
//! materializes the node (recursively demanding its leaves), a count
//! reaching zero retires its gates and releases its leaves. Retired
//! slots go to a free list and are revived for later emissions, so
//! the netlist does not grow across a long SA run.
//!
//! # Deltas
//!
//! Each [`Mapper::sync_design`] accumulates the patch's footprint —
//! [`MappedDesign::changed_gates`] (slots emitted, re-emitted or
//! revived, left holding their fresh mapper-assigned cell) and
//! [`MappedDesign::touched_nets`] (every net whose sink set, port
//! count, or sink cells changed) — which
//! [`MappedDesign::finish_incremental`] feeds to the incremental
//! sizing pass, and per-gate topological keys
//! ([`MappedDesign::topo_keys`]) for the incremental STA's worklist
//! order. Both are exactly the dirty-net contract documented in
//! `sta::incremental`.

use crate::mapper::{Chosen, MapContext, MapError, Mapper};
use crate::netlist::{GateId, NetDriver, NetId, Netlist};
use crate::sizing::{resize_greedy_capture, resize_greedy_incremental, SizeState, SizingTable};
use aig::cut::CutDb;
use aig::{Aig, Lit, NodeId};
use cells::Library;

const NONE: u32 = u32::MAX;

/// How the incoming graph's shape relates to the design's last-synced
/// shape (see [`MappedDesign::shape_fit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShapeFit {
    /// Identical shape: the normal in-place patch.
    Exact,
    /// The graph grew by appended nodes/inputs/outputs only: the
    /// tables extend in place and the patch stays footprint-bounded.
    Grown,
    /// Only the node count shrank (same inputs/outputs): a rejected
    /// fresh-cone append was rolled back, restoring every surviving
    /// row bit-exactly. The patch retires the dropped rows' gates
    /// through the normal release cascade and truncates the tables
    /// afterwards ([`MappedDesign::shrink`]) — footprint-bounded,
    /// no rebuild. A compaction sweep also shrinks the node count but
    /// *re-ranks* ids; its caller says so through
    /// [`Mapper::sync_design`]'s `whole_graph` flag, which rebuilds.
    Shrunk,
    /// Uninitialized, invalidated, or the graph changed
    /// incompatibly: full rebuild.
    Fresh,
}

/// The netlist-relevant part of a DP row: everything that determines
/// the emitted gates of a node (timing scores excluded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EmitKey {
    cell: cells::CellId,
    nv: u8,
    input_compl: u8,
    output_compl: bool,
    pin_of_var: [u8; 4],
    leaves: [NodeId; 4],
}

impl Default for EmitKey {
    fn default() -> Self {
        EmitKey {
            cell: cells::CellId(0),
            nv: 0,
            input_compl: 0,
            output_compl: false,
            pin_of_var: [0; 4],
            leaves: [0; 4],
        }
    }
}

impl EmitKey {
    fn of(ch: &Chosen) -> EmitKey {
        let mut leaves = [0 as NodeId; 4];
        let nv = ch.leaves.len as usize;
        leaves[..nv].copy_from_slice(ch.leaves.as_slice());
        EmitKey {
            cell: ch.m.cell,
            nv: ch.leaves.len,
            input_compl: ch.m.input_compl,
            output_compl: ch.m.output_compl,
            pin_of_var: ch.m.pin_of_var,
            leaves,
        }
    }

    fn leaf_iter(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        (0..self.nv as usize).map(|j| (self.leaves[j], self.input_compl >> j & 1 == 1))
    }
}

/// A persistent mapped netlist patched in place to follow the
/// mapper's DP rows (see the module docs).
#[derive(Debug, Default)]
pub struct MappedDesign {
    nl: Netlist,
    initialized: bool,
    shape: (usize, usize, usize),
    // Per AIG node.
    base_refs: Vec<u32>,
    compl_refs: Vec<u32>,
    planned: Vec<bool>,
    main_gate: Vec<u32>,
    post_inv: Vec<u32>,
    compl_inv: Vec<u32>,
    base_net: Vec<u32>,
    emitted: Vec<EmitKey>,
    // Per gate slot.
    topo: Vec<u64>,
    free_slots: Vec<GateId>,
    out_snapshot: Vec<Lit>,
    size: SizeState,
    // Current sync's footprint.
    delta_gates: Vec<GateId>,
    delta_nets: Vec<NetId>,
    net_mark: Vec<bool>,
    // Scratch.
    inc_stack: Vec<(NodeId, bool)>,
    dec_stack: Vec<(NodeId, bool)>,
    plan_list: Vec<NodeId>,
    retire_list: Vec<NodeId>,
    compl_touched: Vec<NodeId>,
    reemit_slots: Vec<NodeId>,
    reemit_mark: Vec<bool>,
    port_updates: Vec<usize>,
    emit_order: Vec<NodeId>,
}

impl MappedDesign {
    /// An empty design; the first [`Mapper::sync_design`] builds it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live netlist (tracked; may contain retired slots).
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Per-gate topological keys for `sta::incremental`. On graphs
    /// without forward references every gate's key strictly exceeds
    /// its fanin drivers' keys; under committed forward references
    /// (node-id-derived keys, appended leaves spliced into earlier
    /// readers) a driver's key can exceed its reader's. That is a
    /// performance caveat only: the incremental STA's push-on-change
    /// worklist converges to the same fixed point regardless of key
    /// order (see `sta::incremental`), at the cost of extra
    /// re-evaluations on mis-ordered paths.
    pub fn topo_keys(&self) -> &[u64] {
        &self.topo
    }

    /// Gate slots emitted, re-emitted or revived by the last sync
    /// (they hold their fresh mapper-assigned cell).
    pub fn changed_gates(&self) -> &[GateId] {
        &self.delta_gates
    }

    /// Nets whose sink set, port count, or sink cells changed in the
    /// last sync (deduplicated).
    pub fn touched_nets(&self) -> &[NetId] {
        &self.delta_nets
    }

    /// Drops all state: the next sync rebuilds from scratch. Call
    /// after the evaluator priced a different graph through the full
    /// pipeline (the design no longer mirrors the DP rows).
    pub fn invalidate(&mut self) {
        self.initialized = false;
    }

    /// Pre-sizes the per-node cover tables for an `nodes`-node AIG
    /// (capacity only; contents untouched), so the first
    /// [`Mapper::sync_design`] rebuild at that size performs no table
    /// regrowth. Gate-indexed state (`topo`, the netlist itself) grows
    /// with the cover as usual.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        fn up<T>(v: &mut Vec<T>, cap: usize) {
            v.reserve(cap.saturating_sub(v.len()));
        }
        up(&mut self.base_refs, nodes);
        up(&mut self.compl_refs, nodes);
        up(&mut self.planned, nodes);
        up(&mut self.main_gate, nodes);
        up(&mut self.post_inv, nodes);
        up(&mut self.compl_inv, nodes);
        up(&mut self.base_net, nodes);
        up(&mut self.emitted, nodes);
        up(&mut self.reemit_mark, nodes);
    }

    /// Runs the ground-truth flow's two sizing passes in full on the
    /// freshly (re)built design, capturing the per-pass state for
    /// later incremental updates. Pair with `IncrementalSta::build`.
    pub fn finish_full(&mut self, table: &SizingTable) {
        resize_greedy_capture(&mut self.nl, table, &mut self.size);
    }

    /// Incrementally re-runs the two sizing passes over the last
    /// sync's footprint; gates whose arrival computation may have
    /// changed are appended to `sta_seeds` (the dirty-net contract of
    /// `sta::incremental`). Pair with `IncrementalSta::update`.
    pub fn finish_incremental(&mut self, table: &SizingTable, sta_seeds: &mut Vec<GateId>) {
        resize_greedy_incremental(
            &mut self.nl,
            table,
            &mut self.size,
            &self.delta_gates,
            &self.delta_nets,
            sta_seeds,
        );
    }

    /// How the graph's shape relates to the design's last-synced one.
    fn shape_fit(&self, aig: &Aig) -> ShapeFit {
        if !self.initialized {
            return ShapeFit::Fresh;
        }
        let now = (aig.num_nodes(), aig.num_inputs(), aig.num_outputs());
        if self.shape == now {
            ShapeFit::Exact
        } else if now.0 >= self.shape.0 && now.1 >= self.shape.1 && now.2 >= self.shape.2 {
            // The graph only grew: node ids, the input list, and the
            // output list are all append-only in the transaction
            // engine, so every tracked entry still describes the same
            // object — the design extends in place instead of
            // rebuilding (see `grow`).
            ShapeFit::Grown
        } else if now.0 < self.shape.0 && now.1 == self.shape.1 && now.2 == self.shape.2 {
            // Only nodes disappeared, off the top: the rollback of a
            // rejected append (sweeps re-rank ids; their callers pass
            // `whole_graph` to `sync_design`, which rebuilds).
            ShapeFit::Shrunk
        } else {
            ShapeFit::Fresh
        }
    }

    /// Truncates the per-node tables after a sync on a graph that
    /// shrank back below the recorded shape (a rejected append was
    /// rolled back). Called *after* the patch: `apply_rows` needs the
    /// dropped rows' emitted keys to cascade their demand away, and by
    /// the rollback's exactness every dropped row is fully
    /// dematerialized once the cascade settles — asserted here. The
    /// dropped rows' gates were retired into the free list and their
    /// nets released by the cascade itself.
    fn shrink(&mut self, n: usize) {
        debug_assert!(
            (n..self.base_refs.len()).all(|i| {
                self.base_refs[i] == 0
                    && self.compl_refs[i] == 0
                    && !self.planned[i]
                    && self.main_gate[i] == NONE
                    && self.post_inv[i] == NONE
                    && self.compl_inv[i] == NONE
                    && self.base_net[i] == NONE
            }),
            "dropped rows must be fully dematerialized by the patch"
        );
        self.base_refs.truncate(n);
        self.compl_refs.truncate(n);
        self.planned.truncate(n);
        self.main_gate.truncate(n);
        self.post_inv.truncate(n);
        self.compl_inv.truncate(n);
        self.base_net.truncate(n);
        self.emitted.truncate(n);
        self.reemit_mark.truncate(n);
    }

    fn reset(&mut self, aig: &Aig, lib: &Library) {
        let n = aig.num_nodes();
        self.nl = Netlist::new();
        self.nl.enable_tracking(lib);
        self.shape = (n, aig.num_inputs(), aig.num_outputs());
        self.base_refs.clear();
        self.base_refs.resize(n, 0);
        self.compl_refs.clear();
        self.compl_refs.resize(n, 0);
        self.planned.clear();
        self.planned.resize(n, false);
        self.main_gate.clear();
        self.main_gate.resize(n, NONE);
        self.post_inv.clear();
        self.post_inv.resize(n, NONE);
        self.compl_inv.clear();
        self.compl_inv.resize(n, NONE);
        self.base_net.clear();
        self.base_net.resize(n, NONE);
        self.emitted.clear();
        self.emitted.resize(n, EmitKey::default());
        self.reemit_mark.clear();
        self.reemit_mark.resize(n, false);
        self.topo.clear();
        self.free_slots.clear();
        self.out_snapshot.clear();
        self.size = SizeState::new();
        for &pi in aig.inputs() {
            let net = self.nl.add_input();
            self.base_net[pi as usize] = net.0;
        }
        self.delta_gates.clear();
        self.delta_nets.clear();
        self.net_mark.clear();
        self.initialized = true;
    }

    /// Extends the per-node tables in place after the graph grew by
    /// appended rows (fresh-cone SA moves): appended nodes enter
    /// unmaterialized with zero demand — the following `apply_rows`
    /// materializes exactly those pulled into the cover, seeded by
    /// the changed rows of the nodes spliced onto them. Appended
    /// primary inputs get their nets here (the input list is
    /// append-only, so existing entries keep their nets).
    fn grow(&mut self, aig: &Aig) {
        let n = aig.num_nodes();
        self.base_refs.resize(n, 0);
        self.compl_refs.resize(n, 0);
        self.planned.resize(n, false);
        self.main_gate.resize(n, NONE);
        self.post_inv.resize(n, NONE);
        self.compl_inv.resize(n, NONE);
        self.base_net.resize(n, NONE);
        self.emitted.resize(n, EmitKey::default());
        self.reemit_mark.resize(n, false);
        for &pi in &aig.inputs()[self.shape.1..] {
            let net = self.nl.add_input();
            self.base_net[pi as usize] = net.0;
        }
        // Appended output ports are handled by `apply_rows`' port
        // diff (indexes past the snapshot read as additions);
        // `shape` is refreshed there too.
    }

    fn begin_sync(&mut self) {
        for &n in &self.delta_nets {
            self.net_mark[n.0 as usize] = false;
        }
        self.delta_gates.clear();
        self.delta_nets.clear();
        self.net_mark.resize(self.nl.num_nets(), false);
        self.plan_list.clear();
        self.retire_list.clear();
        self.compl_touched.clear();
        self.reemit_slots.clear();
        self.port_updates.clear();
        self.emit_order.clear();
    }

    fn mark_net(&mut self, n: NetId) {
        let i = n.0 as usize;
        if self.net_mark.len() <= i {
            self.net_mark.resize(i + 1, false);
        }
        if !self.net_mark[i] {
            self.net_mark[i] = true;
            self.delta_nets.push(n);
        }
    }

    /// Allocates a gate: into `pref` (a reserved retired slot), a
    /// free-list slot, or a fresh append. Records the delta.
    fn alloc(
        &mut self,
        pref: Option<GateId>,
        cell: cells::CellId,
        inputs: Vec<NetId>,
        key: u64,
    ) -> GateId {
        for &n in &inputs {
            self.mark_net(n);
        }
        let slot = pref.or_else(|| self.free_slots.pop());
        let g = match slot {
            Some(s) => {
                self.nl.revive_gate(s, cell, inputs);
                s
            }
            None => {
                let out = self.nl.add_gate(cell, inputs);
                let NetDriver::Gate(g) = *self.nl.driver(out) else {
                    unreachable!("fresh gate drives its net")
                };
                g
            }
        };
        let gi = g.0 as usize;
        if gi < self.topo.len() {
            self.topo[gi] = key;
        } else {
            debug_assert_eq!(gi, self.topo.len());
            self.topo.push(key);
        }
        self.delta_gates.push(g);
        g
    }

    /// Retires a slot, recording its input nets in the delta.
    /// `reserve` keeps it off the free list (about to be revived as a
    /// re-emitted public gate).
    fn retire_slot(&mut self, g: GateId, reserve: bool) {
        for i in 0..self.nl.gate(g).inputs.len() {
            let n = self.nl.gate(g).inputs[i];
            self.mark_net(n);
        }
        self.nl.retire_gate(g);
        if !reserve {
            self.free_slots.push(g);
        }
    }

    /// Queues a demand increment; see the module docs.
    fn queue_inc(&mut self, v: NodeId, compl: bool) {
        self.inc_stack.push((v, compl));
    }

    fn queue_dec(&mut self, v: NodeId, compl: bool) {
        self.dec_stack.push((v, compl));
    }

    fn drain_incs(&mut self, ctx: &MapContext, aig: &Aig) {
        while let Some((v, c)) = self.inc_stack.pop() {
            if v == 0 {
                continue;
            }
            let vi = v as usize;
            if c {
                self.compl_refs[vi] += 1;
                if self.compl_refs[vi] == 1 {
                    self.compl_touched.push(v);
                    self.inc_stack.push((v, false));
                }
            } else {
                self.base_refs[vi] += 1;
                if self.base_refs[vi] == 1
                    && aig.is_and(v)
                    && self.main_gate[vi] == NONE
                    && !self.planned[vi]
                {
                    self.planned[vi] = true;
                    self.plan_list.push(v);
                    let key = EmitKey::of(
                        ctx.chosen[vi]
                            .as_ref()
                            .expect("live cover node has a match (checked by dp_update)"),
                    );
                    self.emitted[vi] = key;
                    for (leaf, bit) in key.leaf_iter() {
                        self.inc_stack.push((leaf, bit));
                    }
                }
            }
        }
    }

    fn drain_decs(&mut self, aig: &Aig) {
        while let Some((v, c)) = self.dec_stack.pop() {
            if v == 0 {
                continue;
            }
            let vi = v as usize;
            if c {
                self.compl_refs[vi] -= 1;
                if self.compl_refs[vi] == 0 {
                    self.compl_touched.push(v);
                    self.dec_stack.push((v, false));
                }
            } else {
                self.base_refs[vi] -= 1;
                // Beyond the graph: a dropped row of a shrunk sync
                // (necessarily an appended AND-cone node — the input
                // count is unchanged), still owed its release.
                let is_and = vi >= aig.num_nodes() || aig.is_and(v);
                if self.base_refs[vi] == 0 && is_and {
                    let charged = if self.main_gate[vi] != NONE {
                        self.retire_list.push(v);
                        true
                    } else if self.planned[vi] {
                        self.planned[vi] = false;
                        true
                    } else {
                        false
                    };
                    if charged {
                        let key = self.emitted[vi];
                        for (leaf, bit) in key.leaf_iter() {
                            self.dec_stack.push((leaf, bit));
                        }
                    }
                }
            }
        }
    }

    /// The pin-ordered input nets of `key` (leaf base or complement
    /// nets; complement inverters exist by the demand invariant).
    fn inputs_for(&self, key: &EmitKey) -> Vec<NetId> {
        let mut inputs = vec![NetId(NONE); key.nv as usize];
        for (j, (leaf, compl)) in key.leaf_iter().enumerate() {
            let net = if compl {
                self.nl.gate(GateId(self.compl_inv[leaf as usize])).output
            } else {
                NetId(self.base_net[leaf as usize])
            };
            inputs[key.pin_of_var[j] as usize] = net;
        }
        debug_assert!(inputs.iter().all(|n| n.0 != NONE), "all pins assigned");
        inputs
    }

    /// Emits (or re-emits into `public_pref`) the gates of `v` per
    /// its charged key.
    fn emit_node(&mut self, v: NodeId, inv_cell: cells::CellId, public_pref: Option<GateId>) {
        let vi = v as usize;
        let key = self.emitted[vi];
        let inputs = self.inputs_for(&key);
        let node_key = (u64::from(v)) << 2;
        if key.output_compl {
            let main = self.alloc(None, key.cell, inputs, node_key);
            let main_net = self.nl.gate(main).output;
            let public = self.alloc(public_pref, inv_cell, vec![main_net], node_key | 1);
            self.main_gate[vi] = main.0;
            self.post_inv[vi] = public.0;
            self.base_net[vi] = self.nl.gate(public).output.0;
        } else {
            let public = self.alloc(public_pref, key.cell, inputs, node_key);
            self.main_gate[vi] = public.0;
            self.post_inv[vi] = NONE;
            self.base_net[vi] = self.nl.gate(public).output.0;
        }
    }

    /// Resolves an output literal to its netlist net.
    fn resolve(&mut self, lit: Lit) -> NetId {
        let v = lit.var();
        if v == 0 {
            return self.nl.const_net(lit.is_complement());
        }
        if lit.is_complement() {
            self.nl.gate(GateId(self.compl_inv[v as usize])).output
        } else {
            NetId(self.base_net[v as usize])
        }
    }

    /// Re-emission check for one materialized node whose refreshed
    /// row may select different gates.
    fn check_reemit(&mut self, ctx: &MapContext, vi: usize) {
        if self.main_gate[vi] == NONE {
            return;
        }
        // A materialized node whose refreshed row is `None` went
        // dead *and* unmatchable in this edit (dp_update errors
        // on live unmatchable nodes): its demand vanishes in this
        // very sync — the release cascade retires it below.
        let Some(ch) = ctx.chosen[vi].as_ref() else {
            return;
        };
        let key = EmitKey::of(ch);
        if key != self.emitted[vi] {
            let old = self.emitted[vi];
            self.emitted[vi] = key;
            self.reemit_slots.push(vi as NodeId);
            self.reemit_mark[vi] = true;
            for (leaf, bit) in key.leaf_iter() {
                self.queue_inc(leaf, bit);
            }
            for (leaf, bit) in old.leaf_iter() {
                self.queue_dec(leaf, bit);
            }
        }
    }

    /// Applies the refreshed DP rows: plans demand changes, processes
    /// the retain/release cascades, patches the gates, and repoints
    /// the ports. `since` is [`Mapper::dp_update`]'s effective
    /// watermark — rows below it are unchanged.
    fn apply_rows(&mut self, ctx: &MapContext, aig: &Aig, lib: &Library, since: NodeId) {
        let inv_cell = lib.smallest_inverter();
        // Re-emission scan: materialized nodes whose refreshed row
        // selects different gates. The DP's per-row cutoff hands over
        // the exact emission-visible changed rows accumulated since
        // the design last applied them; the fallback scans everything
        // at or above the smallest watermark any contributing map
        // call used.
        if ctx.changed_rows_exact {
            for i in 0..ctx.changed_rows.len() {
                let vi = ctx.changed_rows[i] as usize;
                self.check_reemit(ctx, vi);
            }
        } else {
            let scan_from = since.min(ctx.changed_since) as usize;
            for vi in scan_from..aig.num_nodes() {
                self.check_reemit(ctx, vi);
            }
        }
        // Port diffs (the first sync sees an empty snapshot: every
        // port is an addition).
        for (idx, o) in aig.outputs().iter().enumerate() {
            match self.out_snapshot.get(idx) {
                Some(&old) if old == o.lit => continue,
                Some(&old) => {
                    self.port_updates.push(idx);
                    self.queue_inc(o.lit.var(), o.lit.is_complement());
                    self.queue_dec(old.var(), old.is_complement());
                }
                None => {
                    self.port_updates.push(idx);
                    self.queue_inc(o.lit.var(), o.lit.is_complement());
                }
            }
        }
        self.drain_incs(ctx, aig);
        self.drain_decs(aig);
        // Retire complement inverters whose demand vanished.
        for i in 0..self.compl_touched.len() {
            let vi = self.compl_touched[i] as usize;
            if self.compl_refs[vi] == 0 && self.compl_inv[vi] != NONE {
                let g = GateId(self.compl_inv[vi]);
                self.compl_inv[vi] = NONE;
                self.retire_slot(g, false);
            }
        }
        // Retire dematerialized nodes.
        for i in 0..self.retire_list.len() {
            let v = self.retire_list[i];
            let vi = v as usize;
            if self.base_refs[vi] == 0 && self.main_gate[vi] != NONE {
                debug_assert_eq!(self.compl_inv[vi], NONE, "compl inverter holds a base ref");
                if self.post_inv[vi] != NONE {
                    let g = GateId(self.post_inv[vi]);
                    self.post_inv[vi] = NONE;
                    self.retire_slot(g, false);
                }
                let g = GateId(self.main_gate[vi]);
                self.main_gate[vi] = NONE;
                self.base_net[vi] = NONE;
                self.retire_slot(g, false);
            }
        }
        // Emissions: one ascending sweep so every net (leaf mains,
        // post-inverters, *and* complement inverters) exists before
        // any higher node's gates read it. Each candidate node may
        // carry up to three pending actions — fresh materialization,
        // re-emission, complement-inverter emission — discriminated
        // by its flags.
        self.emit_order.clear();
        for i in 0..self.plan_list.len() {
            let v = self.plan_list[i];
            let vi = v as usize;
            if self.planned[vi] && self.base_refs[vi] > 0 && self.main_gate[vi] == NONE {
                self.emit_order.push(v);
            }
        }
        for i in 0..self.reemit_slots.len() {
            let v = self.reemit_slots[i];
            if self.main_gate[v as usize] != NONE {
                self.emit_order.push(v);
            } else {
                self.reemit_mark[v as usize] = false; // died meanwhile
            }
        }
        for i in 0..self.compl_touched.len() {
            let v = self.compl_touched[i];
            let vi = v as usize;
            if self.compl_refs[vi] > 0 && self.compl_inv[vi] == NONE {
                self.emit_order.push(v);
            }
        }
        let mut order = std::mem::take(&mut self.emit_order);
        order.sort_unstable();
        order.dedup();
        if !aig.is_topological() {
            // Committed forward references: ascending ids are no
            // longer dependency-ordered — a leaf emitted in this very
            // sweep can carry a higher id than its reader. Re-sort by
            // the cached dependency position; non-AND ids (position
            // sentinel) keep an ascending front block (a primary
            // input's complement inverter must exist before any
            // reader's gates are emitted).
            let topo = aig.topo_and_order();
            let pos = topo.positions();
            order.sort_by_key(|&v| match pos[v as usize] {
                aig::TopoIndex::NOT_AND => (0, v),
                p => (p + 1, v),
            });
        }
        for &v in &order {
            let vi = v as usize;
            if self.planned[vi] && self.base_refs[vi] > 0 && self.main_gate[vi] == NONE {
                // Fresh materialization.
                self.planned[vi] = false;
                self.emit_node(v, inv_cell, None);
            }
            if self.reemit_mark[vi] {
                // Re-emission: retire the old gates, keeping the
                // public slot (and with it the public net every
                // consumer reads) for the new public gate.
                self.reemit_mark[vi] = false;
                let old_main = GateId(self.main_gate[vi]);
                let old_post = self.post_inv[vi];
                let public = if old_post != NONE {
                    self.retire_slot(old_main, false);
                    GateId(old_post)
                } else {
                    old_main
                };
                self.retire_slot(public, true);
                self.emit_node(v, inv_cell, Some(public));
                debug_assert_eq!(
                    self.base_net[vi],
                    self.nl.gate(public).output.0,
                    "public net survives re-emission"
                );
            }
            if self.compl_refs[vi] > 0 && self.compl_inv[vi] == NONE {
                // Complement-inverter demand appeared (the base net
                // exists: primary inputs always have one, AND nodes
                // were just emitted or already materialized).
                let base = NetId(self.base_net[vi]);
                let g = self.alloc(None, inv_cell, vec![base], (u64::from(v)) << 2 | 2);
                self.compl_inv[vi] = g.0;
            }
        }
        self.emit_order = order;
        // Ports.
        for i in 0..self.port_updates.len() {
            let idx = self.port_updates[i];
            let net = self.resolve(aig.outputs()[idx].lit);
            if idx < self.nl.num_outputs() {
                let old = self.nl.outputs()[idx].net;
                self.mark_net(old);
                self.mark_net(net);
                self.nl.set_output_net(idx, net);
            } else {
                debug_assert_eq!(idx, self.nl.num_outputs());
                self.mark_net(net);
                let name = aig.outputs()[idx].name.clone();
                self.nl.add_output(net, name);
            }
        }
        self.out_snapshot.clear();
        self.out_snapshot
            .extend(aig.outputs().iter().map(|o| o.lit));
        self.shape = (aig.num_nodes(), aig.num_inputs(), aig.num_outputs());
    }
}

impl Mapper<'_> {
    /// Synchronizes `design` with `aig`'s refreshed mapping: runs the
    /// incremental DP (the per-row cutoff core shared with
    /// [`Mapper::map_incremental`]) and patches the design's netlist
    /// to the new rows, recording the footprint in
    /// [`MappedDesign::changed_gates`] /
    /// [`MappedDesign::touched_nets`]. When the DP ran its per-row
    /// cutoff, cover maintenance is seeded by the *exact* set of rows
    /// whose emission-visible choice changed — the downstream
    /// sizing/STA worklists then see only the edit's true footprint
    /// instead of everything above the watermark.
    ///
    /// Returns `true` when the design had to be (re)built from
    /// scratch — uninitialized, invalidated, or incompatibly
    /// reshaped — in which case the caller must run the full
    /// [`MappedDesign::finish_full`] + `IncrementalSta::build`
    /// pipeline instead of the incremental one. A graph that only
    /// *grew* (appended fresh-cone rows, appended inputs/outputs) is
    /// **not** a rebuild: the tables extend in place and the sync
    /// stays on the incremental pipeline.
    ///
    /// `whole_graph` declares every per-node quantity suspect, node
    /// identities included — a compaction sweep re-ranked the ids, or
    /// the context and design last described another graph: every DP
    /// row is recomputed and the design rebuilt. It is a flag of its
    /// own, not watermark `0`: an edit touching the constant node has
    /// watermark `0` yet keeps every id stable, and a rolled-back
    /// append under it stays on the footprint-bounded patch.
    ///
    /// A per-row-cutoff sync also arms the context's undo journal:
    /// if the edit is then rolled back, [`Mapper::undo_sync`] restores
    /// the pre-edit rows and design from it instead of recomputing.
    ///
    /// The live netlist mirrors [`Mapper::map_incremental`]'s output
    /// gate-for-gate (slot numbering aside): same cells, same
    /// connectivity, same shared inverters — so its fixed-point loads,
    /// area, and per-net arrivals are bit-identical to the freshly
    /// built netlist's (asserted by the differential suite).
    ///
    /// # Errors
    ///
    /// Exactly [`Mapper::map_incremental`]'s errors. On error the
    /// design is left invalidated (the next sync rebuilds).
    pub fn sync_design(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        dirty_since: NodeId,
        whole_graph: bool,
        design: &mut MappedDesign,
    ) -> Result<bool, MapError> {
        if whole_graph {
            design.invalidate();
            ctx.invalidate_rows();
        }
        let fit = design.shape_fit(aig);
        let since = match self.dp_update(ctx, aig, cuts, dirty_since) {
            Ok(since) => since,
            Err(e) => {
                design.invalidate();
                return Err(e);
            }
        };
        let (fresh, since) = match fit {
            ShapeFit::Exact => (false, since),
            ShapeFit::Grown => {
                // Appended rows only: extend the tables in place and
                // keep the DP watermark — the patch (and with it the
                // sizing/STA worklists) stays footprint-seeded
                // instead of rebuilding the whole cover.
                design.grow(aig);
                (false, since)
            }
            ShapeFit::Shrunk => {
                // Rejected append rolled back: the tables stay at the
                // recorded (larger) size through the patch — the
                // release cascade reads the dropped rows' emitted
                // keys — and are truncated right after it.
                (false, since)
            }
            ShapeFit::Fresh => {
                design.reset(aig, self.library());
                (true, 0)
            }
        };
        if fresh {
            ctx.disarm_journal();
        } else {
            ctx.arm_journal();
        }
        design.begin_sync();
        design.apply_rows(ctx, aig, self.library(), since);
        if fit == ShapeFit::Shrunk && !fresh {
            design.shrink(aig.num_nodes());
        }
        // The design now mirrors every accumulated row change.
        ctx.consume_changed_rows();
        Ok(fresh)
    }

    /// Undoes the immediately preceding [`Mapper::sync_design`] after
    /// its edit was rolled back: replays the context's undo journal
    /// backwards — restoring every DP row, fanout count, version
    /// snapshot entry, adjacency edge and unmatchable-row mark the
    /// sync overwrote — and patches `design` back over exactly the
    /// rows whose emitted choice the sync changed, recording the
    /// footprint in [`MappedDesign::changed_gates`] /
    /// [`MappedDesign::touched_nets`] for the incremental sizing and
    /// STA passes. Costs O(what the edit wrote) and recomputes no DP
    /// row.
    ///
    /// The journal is armed only by a per-row-cutoff `sync_design`
    /// (not a rebuild) and disarmed by every other call on the
    /// context, this one included. `aig` and `cuts` must be the
    /// rolled-back graph and database ([`aig::cut::CutDb::rollback_edit`]
    /// restores versions exactly) and `design` the one that sync
    /// patched. Returns `false` — touching nothing — when no journal
    /// is armed, the design's shape does not fit a rollback, or the
    /// journal does not match `aig`/`cuts`; the caller then falls
    /// back to `sync_design`, whose result is bit-identical.
    pub fn undo_sync(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        design: &mut MappedDesign,
    ) -> bool {
        // The design must mirror the journaled sync's (edited) rows.
        let fit = design.shape_fit(aig);
        if !matches!(fit, ShapeFit::Exact | ShapeFit::Shrunk)
            || ctx.rows_for() != Some(design.shape.0)
        {
            ctx.disarm_journal();
            return false;
        }
        if !ctx.undo_dp(self.instance_id(), aig, cuts) {
            return false;
        }
        design.begin_sync();
        // The changed-row record is exact: the watermark is unused.
        design.apply_rows(ctx, aig, self.library(), 0);
        if fit == ShapeFit::Shrunk {
            design.shrink(aig.num_nodes());
        }
        ctx.consume_changed_rows();
        true
    }
}
