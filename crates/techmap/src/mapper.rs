//! Cut-based technology mapping (delay- or area-oriented).
//!
//! The mapper mirrors the classic ABC `map` structure: enumerate
//! 4-feasible cuts, Boolean-match each cut function against the
//! library, run a topological dynamic program selecting the best match
//! per node (arrival time for delay mode, area flow for area mode),
//! then extract the cover from the outputs and instantiate gates,
//! inserting shared inverters for complemented connections.

use crate::matcher::{CellMatch, Matcher};
use crate::netlist::{NetId, Netlist};
use aig::cut::{enumerate_cuts_into, Cut, CutDb, CutSet};
use aig::{Aig, Lit, NodeId};
use cells::Library;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Mapping objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MapGoal {
    /// Minimize estimated critical-path arrival (paper's delay flows).
    #[default]
    Delay,
    /// Minimize area flow, with arrival as tie-break.
    Area,
}

/// Options controlling [`Mapper`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapOptions {
    /// Cut size for matching; must be 2..=4.
    pub cut_size: usize,
    /// Cuts kept per node during enumeration.
    pub max_cuts: usize,
    /// Nominal load (fF) assumed while ranking matches; the final
    /// netlist is re-timed with true loads by the `sta` crate.
    pub est_load_ff: f64,
    /// Delay- or area-oriented selection.
    pub goal: MapGoal,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            cut_size: 4,
            max_cuts: 8,
            est_load_ff: 9.0,
            goal: MapGoal::Delay,
        }
    }
}

impl MapOptions {
    /// Checks every option range, so invalid options surface as
    /// [`MapError::BadOptions`] up front — never as a misleading
    /// [`MapError::NoMatch`] (or a bogus netlist) later in the run.
    /// Both [`Mapper::map`] and [`Mapper::map_with`] call this before
    /// doing any work.
    ///
    /// # Errors
    ///
    /// [`MapError::BadOptions`] naming the offending option.
    pub fn validate(&self) -> Result<(), MapError> {
        if !(2..=4).contains(&self.cut_size) {
            return Err(MapError::BadOptions(format!(
                "cut_size must be 2..=4, got {}",
                self.cut_size
            )));
        }
        if self.max_cuts < 2 {
            return Err(MapError::BadOptions(format!(
                "max_cuts must be >= 2, got {}",
                self.max_cuts
            )));
        }
        if !self.est_load_ff.is_finite() || self.est_load_ff <= 0.0 {
            return Err(MapError::BadOptions(format!(
                "est_load_ff must be finite and positive, got {}",
                self.est_load_ff
            )));
        }
        Ok(())
    }
}

/// Errors from [`Mapper::map`].
#[derive(Debug)]
pub enum MapError {
    /// A node reachable from the outputs matched no library cell.
    /// Cannot happen with a library covering all two-input AND-class
    /// functions. Dangling nodes are exempt: in-place SA edits leave
    /// trivially-reducible dead nodes behind (e.g. a reader rewired
    /// to `AND(x, !x)`, whose every cut function is constant), and
    /// the cover never visits them.
    NoMatch {
        /// The unmappable node.
        node: NodeId,
    },
    /// Invalid [`MapOptions`].
    BadOptions(String),
    /// The caller-maintained [`CutDb`] tracks a different node count
    /// than the graph being mapped — it missed a
    /// [`build`](CutDb::build) / [`sync_appends`](CutDb::sync_appends)
    /// after the graph changed shape. Mapping through stale cut lists
    /// would silently produce a wrong netlist (or index out of
    /// bounds), so the incremental entry points reject the mismatch
    /// up front in **all** build profiles.
    StaleCuts {
        /// Nodes tracked by the cut database.
        db_nodes: usize,
        /// Nodes in the graph being mapped.
        graph_nodes: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NoMatch { node } => write!(f, "no library match for node {node}"),
            MapError::BadOptions(m) => write!(f, "bad mapping options: {m}"),
            MapError::StaleCuts {
                db_nodes,
                graph_nodes,
            } => write!(
                f,
                "stale cut database: tracks {db_nodes} nodes but the graph has \
                 {graph_nodes} (rebuild or sync it before mapping)"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// Inline leaf set of a mapped cut (mapper cuts have at most four
/// leaves), keeping the per-node DP table allocation-free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CutLeaves {
    pub(crate) arr: [NodeId; 4],
    pub(crate) len: u8,
}

impl CutLeaves {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[NodeId] {
        &self.arr[..self.len as usize]
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Chosen {
    pub(crate) m: CellMatch,
    pub(crate) leaves: CutLeaves,
    arrival_ps: f64,
    area_flow: f64,
}

/// A library match with everything the DP inner loop needs
/// precomputed at the mapper's estimated load: per-variable arrival
/// increments (pin delay plus input-inverter penalty), the output
/// increment, and the fixed area (cell plus inverters).
#[derive(Clone, Copy, Debug)]
struct PreMatch {
    m: CellMatch,
    add: [f64; 4],
    out_add: f64,
    fixed_area: f64,
}

/// Reusable state for [`Mapper::map_with`]: the cut arena, the
/// `chosen`/`arrival`/`flow` DP tables, and a per-cut-function match
/// shortlist memo.
///
/// The ground-truth cost evaluator maps thousands of candidate AIGs
/// per SA run. With a warm context the per-candidate DP performs no
/// heap allocation once the buffers have grown to the largest graph
/// seen (shrinking and regrowing the candidate is fine — every table
/// is fully re-initialized per call, as the parity tests assert),
/// and every cut function resolves through the memo: matches are
/// fetched once per distinct function, their delay/area constants
/// folded at the estimated load, and dominated entries pruned, so the
/// steady-state inner loop is a handful of float max/adds per match.
///
/// A context may be reused across mappers: the memo is keyed to the
/// mapper instance that built it (libraries and options differ per
/// mapper) and silently rebuilt when a different mapper uses the
/// context.
#[derive(Debug, Default)]
pub struct MapContext {
    cuts: CutSet,
    fanout: Vec<u32>,
    pub(crate) chosen: Vec<Option<Chosen>>,
    arrival: Vec<f64>,
    flow: Vec<f64>,
    shortlists: HashMap<(u8, u64), Vec<PreMatch>>,
    /// [`Mapper::instance_id`] the memo was built for.
    fingerprint: Option<u64>,
    /// Node count the DP rows (`chosen`/`arrival`/`flow`) are valid
    /// for, under the fingerprinted mapper; `None` after an error or
    /// before the first successful map. [`Mapper::map_incremental`]
    /// reuses rows below its dirty watermark only when this matches —
    /// the "DirtyRegion hint" handshake that lets SA steps skip the
    /// clean prefix of the DP.
    rows_for: Option<usize>,
    // Netlist-construction scratch: node -> net, net -> its inverter
    // net, and the post-order traversal stack.
    net_of: Vec<Option<NetId>>,
    inv_of: Vec<Option<NetId>>,
    build_stack: Vec<(NodeId, bool)>,
    /// Output-reachability scratch: unmatchable nodes are an error
    /// only when live (see [`MapError::NoMatch`]).
    live: Vec<bool>,
    /// Sorted ids of rows whose `chosen` is `None` (unmatchable
    /// nodes), maintained across [`Mapper::dp_update`] calls so the
    /// per-row cutoff can run the liveness check without a full
    /// sweep. Valid whenever `rows_for` is.
    none_rows: Vec<NodeId>,
    /// Per-row DP cutoff switch, stored inverted so the default
    /// (`false`) means *enabled*; see [`MapContext::set_row_cutoff`].
    cutoff_disabled: bool,
    /// [`CutDb::instance_id`] the `seen_versions` snapshot was taken
    /// from, `None` when no valid snapshot exists (after `map_with`,
    /// an error, or a different database).
    seen_db: Option<u64>,
    /// Per-node [`CutDb::version`] values at the last successful
    /// [`Mapper::dp_update`]; equality proves the node's cut list is
    /// unchanged since the rows were computed.
    seen_versions: Vec<u64>,
    /// Rows whose emission-visible choice (cell/pins/leaves/
    /// polarities) changed, **accumulated** across every `dp_update`
    /// since a design last consumed the record
    /// ([`MapContext::consume_changed_rows`]) — an interleaved
    /// `map_incremental` must stay visible to the next
    /// `sync_design`. Exact only when `changed_rows_exact`; otherwise
    /// every row at or above `changed_since` (and the current
    /// watermark) may have changed.
    pub(crate) changed_rows: Vec<NodeId>,
    /// Whether `changed_rows` is the exact accumulated changed set
    /// (only per-row-cutoff calls contributed) or the watermark scan
    /// from `changed_since` applies.
    pub(crate) changed_rows_exact: bool,
    /// Smallest effective watermark of any contributing map call
    /// since the record was last consumed (scan lower bound for the
    /// non-exact case).
    pub(crate) changed_since: NodeId,
    /// `row_changed[v]`: v's leaf-visible row state (arrival, flow,
    /// fanout) changed in the current `dp_update` — rows using v as a
    /// cut leaf must be recomputed. Per-call scratch.
    row_changed: Vec<bool>,
    /// Suffix fanout recompute scratch for the per-row cutoff.
    fanout_scratch: Vec<u32>,
    /// Leaves whose fanout count moved in the current `dp_update`
    /// (worklist seed scratch).
    fanout_changed: Vec<NodeId>,
    /// Structural consumer adjacency mirroring the graph at the last
    /// successful `dp_update` — `consumers[v]` lists the AND nodes
    /// reading `v`, one entry per fanin edge. Maintained by
    /// fanin-diffing above the watermark (same lineage/validity as
    /// `seen_versions`); the cutoff's worklist propagates row changes
    /// along it, so clean rows are never even visited.
    consumers: Vec<Vec<NodeId>>,
    /// AND fanins at the last successful `dp_update` (adjacency diff
    /// baseline; unused entries for non-AND ids).
    prev_fanins: Vec<[Lit; 2]>,
    /// Dependency-ordered worklist scratch for the cutoff pass,
    /// keyed by topo position (== id on topological graphs).
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    queued: Vec<bool>,
    /// Batched consumer-edge removals `(old target, reader)` for the
    /// fanin diff, grouped per target so a high-fanout substitution
    /// costs one pass over the affected list instead of one scan per
    /// rewired reader.
    removals: Vec<(NodeId, NodeId)>,
    /// Per-reader pending-removal counts for the batched pass.
    remove_cnt: Vec<u32>,
    /// DP rows actually recomputed by the last mapping call.
    last_recomputed_rows: usize,
    /// Undo record of the last [`Mapper::sync_design`] DP pass (see
    /// [`Mapper::undo_sync`]).
    journal: DpJournal,
}

/// Undo record of one per-row-cutoff [`Mapper::dp_update`]: the old
/// value of every context entry the pass overwrote, so a rejected
/// edit's DP state is restored in O(what the edit wrote) instead of
/// recomputed ([`Mapper::undo_sync`]). Entries of ids at or above the
/// pre-edit node count are not recorded — undo truncates them.
#[derive(Debug, Default)]
struct DpJournal {
    /// The record is complete and belongs to the context's most
    /// recent call, a cutoff-path [`Mapper::sync_design`]. Every
    /// other entry point clears it.
    armed: bool,
    /// The current `dp_update` writes the record.
    recording: bool,
    /// [`CutDb::instance_id`] of the recorded pass's database.
    db: u64,
    /// `rows_for` / `seen_db` before the pass (the pre-edit shape).
    rows_for: Option<usize>,
    seen_db: Option<u64>,
    /// Overwritten DP rows `(id, chosen, arrival, flow)`.
    rows: Vec<(NodeId, Option<Chosen>, f64, f64)>,
    /// Overwritten fanout counts.
    fanout: Vec<(NodeId, u32)>,
    /// Overwritten `seen_versions` entries.
    versions: Vec<(NodeId, u64)>,
    /// Overwritten `prev_fanins` entries.
    fanins: Vec<(NodeId, [Lit; 2])>,
    /// Consumer-list edits in order: `(list, reader, pushed)`.
    consumers: Vec<(NodeId, NodeId, bool)>,
    /// `none_rows` edits in order: `(id, inserted)`.
    none_rows: Vec<(NodeId, bool)>,
    /// Rows whose emitted choice the pass changed (the exact set the
    /// undo hands to the design patch).
    changed: Vec<NodeId>,
}

impl DpJournal {
    /// Drops the record (the next undo falls back to a recompute).
    fn disarm(&mut self) {
        self.armed = false;
        self.recording = false;
    }

    /// Starts recording a pass over a context currently holding rows
    /// for `rows_for` nodes against `seen_db`.
    fn begin(&mut self, db: u64, rows_for: Option<usize>, seen_db: Option<u64>) {
        self.armed = false;
        self.recording = true;
        self.db = db;
        self.rows_for = rows_for;
        self.seen_db = seen_db;
        self.rows.clear();
        self.fanout.clear();
        self.versions.clear();
        self.fanins.clear();
        self.consumers.clear();
        self.none_rows.clear();
        self.changed.clear();
    }
}

/// Marks the nodes reachable from the outputs into `live`.
fn mark_live(aig: &Aig, live: &mut Vec<bool>, stack: &mut Vec<(NodeId, bool)>) {
    live.clear();
    live.resize(aig.num_nodes(), false);
    stack.clear();
    stack.extend(aig.outputs().iter().map(|o| (o.lit.var(), false)));
    while let Some((id, _)) = stack.pop() {
        if live[id as usize] {
            continue;
        }
        live[id as usize] = true;
        if aig.is_and(id) {
            let [f0, f1] = aig.fanins(id);
            stack.push((f0.var(), false));
            stack.push((f1.var(), false));
        }
    }
}

impl MapContext {
    /// An empty context (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct cut functions memoized so far.
    pub fn num_memoized_functions(&self) -> usize {
        self.shortlists.len()
    }

    /// A fresh context pre-warmed with this context's match memo: the
    /// shortlists (and the mapper fingerprint keying them) are
    /// cloned; every DP, netlist and scratch buffer starts empty,
    /// exactly as in [`MapContext::new`]. Built for speculative
    /// workers forked mid-run (see [`Mapper::fork`]) — they skip
    /// re-deriving the cut-function shortlists the parent already
    /// paid for.
    pub fn fork_memo(&self) -> MapContext {
        MapContext {
            shortlists: self.shortlists.clone(),
            fingerprint: self.fingerprint,
            ..MapContext::default()
        }
    }

    /// Enables or disables the incremental per-row DP cutoff
    /// (default **on**). With the cutoff off,
    /// [`Mapper::map_incremental`] / [`Mapper::sync_design`] recompute
    /// every DP row at or above the dirty watermark — the
    /// pre-cutoff behavior kept as the benchmark baseline and as the
    /// oracle side of the cutoff parity tests. Results are
    /// bit-identical either way.
    pub fn set_row_cutoff(&mut self, on: bool) {
        self.cutoff_disabled = !on;
    }

    /// Whether the per-row DP cutoff is enabled (see
    /// [`MapContext::set_row_cutoff`]).
    pub fn row_cutoff(&self) -> bool {
        !self.cutoff_disabled
    }

    /// DP rows actually recomputed by the last mapping call through
    /// this context (full maps count every AND row). With the per-row
    /// cutoff this tracks the true footprint of the edit — the
    /// differential suite asserts it stays strictly below the
    /// watermark-to-top row count on windowed edits.
    pub fn recomputed_rows(&self) -> usize {
        self.last_recomputed_rows
    }

    /// Pre-sizes every graph-shaped buffer for an `nodes`-node AIG
    /// (capacity only; contents untouched): the DP tables, the cut
    /// arena, netlist-construction scratch, and the per-row-cutoff
    /// state. A context reserved for the largest graph it will see
    /// performs no buffer regrowth across an SA run — the point of
    /// the owner-supplied [`crate::MapPool`].
    pub fn reserve_nodes(&mut self, nodes: usize, max_cuts: usize) {
        fn up<T>(v: &mut Vec<T>, cap: usize) {
            v.reserve(cap.saturating_sub(v.len()));
        }
        self.cuts.reserve_nodes(nodes, max_cuts);
        up(&mut self.fanout, nodes);
        up(&mut self.chosen, nodes);
        up(&mut self.arrival, nodes);
        up(&mut self.flow, nodes);
        up(&mut self.net_of, nodes);
        up(&mut self.inv_of, nodes);
        up(&mut self.live, nodes);
        up(&mut self.seen_versions, nodes);
        up(&mut self.row_changed, nodes);
        up(&mut self.fanout_scratch, nodes);
        up(&mut self.consumers, nodes);
        up(&mut self.prev_fanins, nodes);
        up(&mut self.queued, nodes);
        up(&mut self.remove_cnt, nodes);
    }

    /// Resets the accumulated changed-row record after a design has
    /// applied it (see `changed_rows`).
    pub(crate) fn consume_changed_rows(&mut self) {
        self.changed_rows.clear();
        self.changed_rows_exact = true;
        self.changed_since = NodeId::MAX;
    }

    /// Node count the DP rows are valid for (`None` before the first
    /// successful map or after an error).
    pub(crate) fn rows_for(&self) -> Option<usize> {
        self.rows_for
    }

    /// Forgets the DP rows (and the undo journal): the next
    /// incremental pass recomputes every row from scratch.
    pub(crate) fn invalidate_rows(&mut self) {
        self.rows_for = None;
        self.seen_db = None;
        self.journal.disarm();
    }

    /// Drops the undo journal: the next [`Mapper::undo_sync`] declines.
    pub(crate) fn disarm_journal(&mut self) {
        self.journal.disarm();
    }

    /// Arms the undo journal the last `dp_update` recorded, just
    /// before a design applies (and consumes) its changed rows.
    /// Declines when the pass did not record or the changed-row
    /// record is not exact.
    pub(crate) fn arm_journal(&mut self) {
        let j = &mut self.journal;
        j.armed = std::mem::replace(&mut j.recording, false) && self.changed_rows_exact;
        if j.armed {
            j.changed.clear();
            j.changed.extend_from_slice(&self.changed_rows);
        }
    }

    /// Replays the armed journal backwards, restoring the DP state the
    /// journaled pass started from, and loads the pass's changed rows
    /// as the exact changed-row record for the design patch. `aig`
    /// and `cuts` must be the rolled-back graph and database; the
    /// journal is checked against them first (mapper, database
    /// identity, node count, restored versions and fanins), and on
    /// any mismatch nothing is touched and `false` is returned. The
    /// journal is consumed either way.
    pub(crate) fn undo_dp(&mut self, mapper_id: u64, aig: &Aig, cuts: &CutDb) -> bool {
        let j = &mut self.journal;
        let armed = std::mem::replace(&mut j.armed, false);
        j.recording = false;
        let Some(n) = j.rows_for else {
            return false;
        };
        let valid = armed
            && self.fingerprint == Some(mapper_id)
            && cuts.instance_id() == j.db
            && aig.num_nodes() == n
            && cuts.num_nodes() == n
            && j.versions.iter().all(|&(id, v)| cuts.version(id) == v)
            && j.fanins
                .iter()
                .all(|&(id, f)| aig.is_and(id) && aig.fanins(id) == f);
        if !valid {
            return false;
        }
        for &(id, c, a, f) in j.rows.iter().rev() {
            let vi = id as usize;
            self.chosen[vi] = c;
            self.arrival[vi] = a;
            self.flow[vi] = f;
        }
        for &(id, fo) in j.fanout.iter().rev() {
            self.fanout[id as usize] = fo;
        }
        for &(id, v) in j.versions.iter().rev() {
            self.seen_versions[id as usize] = v;
        }
        for &(id, f) in j.fanins.iter().rev() {
            self.prev_fanins[id as usize] = f;
        }
        // Consumer lists are restored as multisets: their order never
        // reaches a result (the worklist is a keyed heap).
        for &(list, reader, pushed) in j.consumers.iter().rev() {
            let c = &mut self.consumers[list as usize];
            if pushed {
                let pos = c
                    .iter()
                    .rposition(|&r| r == reader)
                    .expect("journaled consumer edge present");
                c.swap_remove(pos);
            } else {
                c.push(reader);
            }
        }
        for &(id, inserted) in j.none_rows.iter().rev() {
            match (inserted, self.none_rows.binary_search(&id)) {
                (true, Ok(pos)) => {
                    self.none_rows.remove(pos);
                }
                (false, Err(pos)) => self.none_rows.insert(pos, id),
                _ => unreachable!("journaled none-row edit out of sync"),
            }
        }
        self.chosen.truncate(n);
        self.arrival.truncate(n);
        self.flow.truncate(n);
        self.fanout.truncate(n);
        self.seen_versions.truncate(n);
        self.consumers.truncate(n);
        self.prev_fanins.truncate(n);
        self.rows_for = j.rows_for;
        self.seen_db = j.seen_db;
        self.last_recomputed_rows = 0;
        self.changed_rows.clear();
        self.changed_rows
            .extend(j.changed.iter().copied().filter(|&id| (id as usize) < n));
        self.changed_rows_exact = true;
        self.changed_since = NodeId::MAX;
        true
    }

    /// A comparable copy of the incremental DP state: the rows
    /// (bitwise), fanout counts, version snapshot, unmatchable set,
    /// fanin baseline and consumer adjacency (as sorted multisets —
    /// list order never reaches a result). Two contexts with equal
    /// snapshots make identical incremental decisions; the undo
    /// differential suite compares them across reject round trips.
    pub fn dp_snapshot(&self) -> DpSnapshot {
        let n = self.rows_for.unwrap_or(0);
        let rows = (0..n.min(self.chosen.len()))
            .map(|i| {
                let key = self.chosen[i].map(|c| {
                    let mut leaves = [NodeId::MAX; 4];
                    leaves[..c.leaves.len as usize].copy_from_slice(c.leaves.as_slice());
                    (c.m, leaves, c.arrival_ps.to_bits(), c.area_flow.to_bits())
                });
                (key, self.arrival[i].to_bits(), self.flow[i].to_bits())
            })
            .collect();
        let consumers = self
            .consumers
            .iter()
            .take(n)
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        DpSnapshot {
            rows_for: self.rows_for,
            rows,
            fanout: self.fanout.iter().take(n).copied().collect(),
            seen_versions: self.seen_versions.iter().take(n).copied().collect(),
            none_rows: self.none_rows.clone(),
            prev_fanins: self.prev_fanins.iter().take(n).copied().collect(),
            consumers,
        }
    }
}

/// Row key of a [`DpSnapshot`]: the chosen match with its leaves and
/// score bits, then the `arrival`/`flow` table bits.
type RowBits = (Option<(CellMatch, [NodeId; 4], u64, u64)>, u64, u64);

/// Bitwise copy of a [`MapContext`]'s incremental DP state, from
/// [`MapContext::dp_snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DpSnapshot {
    rows_for: Option<usize>,
    rows: Vec<RowBits>,
    fanout: Vec<u32>,
    seen_versions: Vec<u64>,
    none_rows: Vec<NodeId>,
    prev_fanins: Vec<[Lit; 2]>,
    consumers: Vec<Vec<NodeId>>,
}

/// A reusable technology mapper bound to a library.
///
/// Construction precomputes the Boolean match tables, so a `Mapper`
/// should be created once and reused across many mapping calls — the
/// ground-truth optimization flow maps thousands of candidate AIGs.
///
/// # Examples
///
/// ```
/// use aig::Aig;
/// use cells::sky130ish;
/// use techmap::{Mapper, MapOptions};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let f = g.xor(a, b);
/// g.add_output(f, Some("y"));
///
/// let lib = sky130ish();
/// let mapper = Mapper::new(&lib, MapOptions::default());
/// let netlist = mapper.map(&g)?;
/// assert!(netlist.num_gates() >= 1);
/// // The mapped netlist computes the same function.
/// assert_eq!(netlist.eval(&lib, &[true, false]), vec![true]);
/// assert_eq!(netlist.eval(&lib, &[true, true]), vec![false]);
/// # Ok::<(), techmap::MapError>(())
/// ```
pub struct Mapper<'a> {
    lib: &'a Library,
    matcher: Matcher,
    opts: MapOptions,
    /// Process-unique id keying context memos to this mapper (never
    /// reused, so a dropped mapper's cached constants can't be
    /// mistaken for a new mapper's — unlike an address comparison).
    instance_id: u64,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper for `lib`, precomputing match tables.
    pub fn new(lib: &'a Library, opts: MapOptions) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Mapper {
            lib,
            matcher: Matcher::new(lib),
            opts,
            instance_id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Forks the mapper for a speculative worker: the precomputed
    /// match tables are cloned instead of rebuilt, and the fork keeps
    /// the parent's `instance_id`. Sharing the id is sound because
    /// everything a context memoizes under it ([`MapContext`]
    /// shortlists) is a pure function of the library and options,
    /// which fork and parent share by construction — a context warmed
    /// by either maps identically under both.
    pub fn fork(&self) -> Mapper<'a> {
        Mapper {
            lib: self.lib,
            matcher: self.matcher.clone(),
            opts: self.opts,
            instance_id: self.instance_id,
        }
    }

    /// The process-unique id keying context memos to this mapper.
    pub(crate) fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The library this mapper targets.
    pub fn library(&self) -> &Library {
        self.lib
    }

    /// The options in use.
    pub fn options(&self) -> &MapOptions {
        &self.opts
    }

    /// Maps `aig` to a gate-level [`Netlist`].
    ///
    /// Equivalent to [`Mapper::map_with`] on a fresh [`MapContext`];
    /// loops that map many candidates should hold a context and call
    /// `map_with` to skip the per-call table allocations.
    ///
    /// # Errors
    ///
    /// [`MapError::BadOptions`] for out-of-range options (checked
    /// up front, see [`MapOptions::validate`]); [`MapError::NoMatch`]
    /// if some node cannot be matched (possible only with an
    /// incomplete user library).
    pub fn map(&self, aig: &Aig) -> Result<Netlist, MapError> {
        self.map_with(&mut MapContext::new(), aig)
    }

    /// Maps `aig` reusing `ctx`'s cut arena and DP tables.
    ///
    /// Produces a netlist identical to [`Mapper::map`]'s regardless of
    /// what the context previously mapped (asserted by the parity
    /// tests); on the steady state the cut enumeration and DP make no
    /// heap allocation.
    ///
    /// # Errors
    ///
    /// Exactly [`Mapper::map`]'s errors: options are validated first,
    /// so bad options never surface as a later [`MapError::NoMatch`].
    pub fn map_with(&self, ctx: &mut MapContext, aig: &Aig) -> Result<Netlist, MapError> {
        self.opts.validate()?;
        // The shortlist memo folds this mapper's library and load
        // model into its constants: rebuild it if the context last
        // served a different mapper.
        if ctx.fingerprint != Some(self.instance_id) {
            ctx.shortlists.clear();
            ctx.fingerprint = Some(self.instance_id);
        }
        ctx.rows_for = None;
        ctx.journal.disarm();
        // Full enumeration bypasses the CutDb, so the version
        // snapshot no longer matches any database: the next
        // incremental call falls back to the watermark sweep. Any
        // row may have changed, so the accumulated changed-row
        // record degrades to a full scan.
        ctx.seen_db = None;
        ctx.changed_rows_exact = false;
        ctx.changed_rows.clear();
        ctx.changed_since = 0;
        enumerate_cuts_into(aig, self.opts.cut_size, self.opts.max_cuts, &mut ctx.cuts);
        aig::analysis::fanout_counts_into(aig, &mut ctx.fanout);

        let n = aig.num_nodes();
        ctx.chosen.clear();
        ctx.chosen.resize(n, None);
        ctx.arrival.clear();
        ctx.arrival.resize(n, 0.0);
        ctx.flow.clear();
        ctx.flow.resize(n, 0.0);
        let MapContext {
            cuts,
            fanout,
            chosen,
            arrival,
            flow,
            shortlists,
            build_stack,
            live,
            none_rows,
            ..
        } = ctx;
        mark_live(aig, live, build_stack);
        none_rows.clear();

        // The DP reads leaf rows, so rows must settle in dependency
        // order: ascending ids, except when committed forward
        // references exist (in-place appended cones spliced into
        // earlier nodes), where a leaf can carry a higher id than its
        // reader. `for_each_and_topo` serves the cached dependency
        // order in that case — no per-call allocation either way.
        let mut recomputed = 0usize;
        aig.for_each_and_topo(|id| {
            recomputed += 1;
            let Some(best) =
                self.choose_for_node(id, cuts.cuts(id), fanout, arrival, flow, shortlists)
            else {
                chosen[id as usize] = None;
                arrival[id as usize] = 0.0;
                flow[id as usize] = 0.0;
                none_rows.push(id);
                return;
            };
            arrival[id as usize] = best.arrival_ps;
            flow[id as usize] = best.area_flow;
            chosen[id as usize] = Some(best);
        });
        // Liveness is checked after the sweep so the error names the
        // first live unmatchable node in *ascending* id order — the
        // incremental entry points' report — whatever row order ran.
        if !none_rows.is_empty() {
            none_rows.sort_unstable();
            for &id in none_rows.iter() {
                if live[id as usize] {
                    return Err(MapError::NoMatch { node: id });
                }
            }
        }
        ctx.last_recomputed_rows = recomputed;
        ctx.rows_for = Some(n);

        Ok(self.build_netlist(
            aig,
            &ctx.chosen,
            &mut ctx.net_of,
            &mut ctx.inv_of,
            &mut ctx.build_stack,
        ))
    }

    /// Incremental remap after an in-place edit: DP rows below
    /// `dirty_since` are reused, everything at or above it is
    /// recomputed, and cut lists come from the caller-maintained
    /// [`CutDb`] instead of a fresh enumeration.
    ///
    /// `dirty_since` is the edit's watermark — typically
    /// [`Transaction::min_touched`] or
    /// [`DirtyRegion::min_touched`] accumulated since the context
    /// last mapped this graph. The caller contracts that (a) `cuts`
    /// is live for `aig` with this mapper's `cut_size`/`max_cuts`,
    /// and (b) the context's previous map call (any of the three
    /// entry points, with this mapper) was for the same graph modulo
    /// edits at ids `>= dirty_since` — node ids below the watermark
    /// then have bit-identical cut lists (and [`CutDb::version`]
    /// counters), fanout counts and leaf arrivals, so their reused
    /// rows equal what a full DP would recompute. Above the
    /// watermark, consecutive calls against the same database reuse
    /// rows through a per-row cutoff: a row is recomputed only if its
    /// [`CutDb::version`] moved or a candidate cut leaf's
    /// arrival/flow/fanout changed (bit-equality, propagated in
    /// topological order). Either way the produced netlist is
    /// **identical** to
    /// [`Mapper::map`]'s (asserted by the parity suites on random
    /// edit walks). Pass `0` (or an unrelated context) to recompute
    /// every row while still skipping cut enumeration.
    ///
    /// [`Transaction::min_touched`]:
    /// aig::incremental::Transaction::min_touched
    /// [`DirtyRegion::min_touched`]:
    /// aig::incremental::DirtyRegion::min_touched
    ///
    /// # Errors
    ///
    /// [`Mapper::map`]'s errors, plus [`MapError::BadOptions`] when
    /// `cuts` was built with different cut parameters than this
    /// mapper's options, and [`MapError::StaleCuts`] when the
    /// database tracks a different node count than `aig` (a missed
    /// [`CutDb::build`]/[`CutDb::sync_appends`] — checked in every
    /// build profile, since a stale database would otherwise produce
    /// a silently wrong netlist in release builds).
    pub fn map_incremental(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        dirty_since: NodeId,
    ) -> Result<Netlist, MapError> {
        self.dp_update(ctx, aig, cuts, dirty_since)?;
        Ok(self.build_netlist(
            aig,
            &ctx.chosen,
            &mut ctx.net_of,
            &mut ctx.inv_of,
            &mut ctx.build_stack,
        ))
    }

    /// The shared DP core of [`Mapper::map_incremental`] and
    /// [`Mapper::sync_design`]: refreshes the context's DP rows from
    /// the effective watermark on (validating options, cut-database
    /// parameters, and the row-reuse handshake), and returns that
    /// effective watermark — every row below it is untouched.
    ///
    /// Above the watermark the rows are refreshed through a **per-row
    /// equality cutoff** whenever the context's previous call left a
    /// live [`CutDb::version`] snapshot for the same database: a row
    /// is recomputed only if its cut-list version moved or the
    /// leaf-visible state (arrival, flow, fanout) of one of its
    /// candidate cuts' leaves changed, with changes propagated in
    /// dependency order by bit-equality. Skipped rows are provably
    /// bit-identical to what a recompute would produce (deterministic
    /// DP over unchanged inputs), so the result — and the produced
    /// netlist — never depends on the cutoff. Without a valid
    /// snapshot (first incremental call after `map_with`, a foreign
    /// database, or [`MapContext::set_row_cutoff`]`(false)`) every row
    /// at or above the watermark is recomputed and a fresh snapshot
    /// is taken.
    ///
    /// A cutoff-path (or no-op) pass writes the context's undo
    /// journal — the old value of every entry it overwrites — which
    /// only [`Mapper::sync_design`] arms, for [`Mapper::undo_sync`].
    /// Every pass clears the previous record.
    ///
    /// **Cutoff invariant (leaf settles before root).** The worklist
    /// is keyed by [`aig::TopoIndex`] position — the identity on
    /// topological graphs, the cached dependency order under
    /// committed forward references. Every leaf of every candidate
    /// cut lies in the transitive fanin of its root, so its position
    /// key is strictly smaller than the root's; the ascending-key pop
    /// therefore finalizes a leaf's (arrival, flow, fanout) bits and
    /// its `row_changed` mark before any root row consults them, and
    /// the equality cutoff never reads half-settled state. The
    /// watermark is additionally clamped below the first forward id
    /// (see the clamp in the body), which restores the suffix-closure
    /// argument the three sequential scans (version diff, suffix
    /// fanout refresh, fanin diff) rely on: below the clamp no
    /// forward node exists, so no node below the watermark reads one
    /// at or above it.
    pub(crate) fn dp_update(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        dirty_since: NodeId,
    ) -> Result<NodeId, MapError> {
        ctx.journal.disarm();
        self.opts.validate()?;
        if cuts.k() != self.opts.cut_size || cuts.max_cuts() != self.opts.max_cuts {
            return Err(MapError::BadOptions(format!(
                "cut database (k={}, max_cuts={}) does not match mapper options (k={}, max_cuts={})",
                cuts.k(),
                cuts.max_cuts(),
                self.opts.cut_size,
                self.opts.max_cuts
            )));
        }
        let n = aig.num_nodes();
        if cuts.num_nodes() != n {
            // A real check in every profile: a stale database would
            // silently map through wrong cut lists in release builds.
            return Err(MapError::StaleCuts {
                db_nodes: cuts.num_nodes(),
                graph_nodes: n,
            });
        }
        // A context that last served a different mapper (or errored)
        // has no reusable rows; likewise everything from the first
        // appended node on, when the graph grew.
        let mut since = dirty_since;
        if ctx.fingerprint != Some(self.instance_id) {
            ctx.shortlists.clear();
            ctx.fingerprint = Some(self.instance_id);
            since = 0;
        }
        let prev_n = match ctx.rows_for {
            Some(prev_n) if prev_n <= n => {
                since = since.min(prev_n as NodeId);
                prev_n
            }
            Some(_) => {
                // The graph shrank back below the context's rows (a
                // rejected fresh-cone append rolled back). Rows below
                // the caller's watermark were restored bit-exactly,
                // so the watermark survives and the fallback
                // recomputes only `[since, n)`; the per-row cutoff
                // sits out this one call (its version snapshot is
                // sized for the larger graph) and resumes on the
                // next. Clamped below `n` so the no-op fast path
                // cannot skip the row/snapshot resize to the smaller
                // graph.
                since = since.min(n.saturating_sub(1) as NodeId);
                0
            }
            None => {
                since = 0;
                0
            }
        };
        if since as usize >= n {
            // The edit touched nothing (an SA window with no
            // applicable rewrite): the graph is unchanged since the
            // previous call, so every row — and the previous call's
            // liveness verdict — still holds. The steady-state
            // no-op costs O(1), not O(graph); its undo record is
            // empty.
            ctx.last_recomputed_rows = 0;
            ctx.journal
                .begin(cuts.instance_id(), ctx.rows_for, ctx.seen_db);
            return Ok(since);
        }
        // Committed forward references: a consumer below the dirty
        // watermark can read a recomputed row through a forward
        // fanin, so reused rows are only provably unchanged below the
        // first forward id — clamp the watermark there. (Placed after
        // the no-op fast path: an untouched graph's rows all hold.)
        if let Some(mf) = aig.forward_ids().next() {
            since = since.min(mf);
        }
        // The per-row cutoff needs the previous call's version
        // snapshot for *this* database (`map_with` and errors clear
        // it; a different `CutDb` instance never matches). Forward
        // references do not disqualify it: the worklist pops in
        // topo-position order, so leaf rows settle before their
        // readers' even when a leaf carries a higher id (see
        // `dp_rows_cutoff`).
        let cutoff = !ctx.cutoff_disabled
            && prev_n > 0
            && ctx.seen_db == Some(cuts.instance_id())
            && ctx.seen_versions.len() == prev_n;
        if cutoff {
            ctx.journal
                .begin(cuts.instance_id(), ctx.rows_for, ctx.seen_db);
        }
        ctx.rows_for = None;
        ctx.seen_db = None;
        ctx.chosen.resize(n, None);
        ctx.arrival.resize(n, 0.0);
        ctx.flow.resize(n, 0.0);
        // The changed-row record accumulates across `dp_update` calls
        // until a `sync_design` consumes it — an interleaved
        // `map_incremental` must not make its changes invisible to
        // the next design patch.
        ctx.changed_since = ctx.changed_since.min(since);
        if !cutoff {
            ctx.changed_rows_exact = false;
            ctx.changed_rows.clear();
        }
        ctx.last_recomputed_rows = if cutoff {
            let recomputed = self.dp_rows_cutoff(ctx, aig, cuts, since);
            // The worklist pops in topo-position order, so
            // `changed_rows` accumulated in pop order; downstream
            // consumers (`apply_rows`' re-emission scan, design
            // patching) expect ascending ids, exactly like the
            // watermark path's record.
            ctx.changed_rows.sort_unstable();
            ctx.changed_rows.dedup();
            recomputed
        } else {
            self.dp_rows_watermark(ctx, aig, cuts, since)
        };
        if ctx.changed_rows.len() > n {
            // Pathological accumulation (many unconsumed incremental
            // maps): the watermark scan is cheaper than the list.
            ctx.changed_rows_exact = false;
            ctx.changed_rows.clear();
        }
        if !ctx.cutoff_disabled {
            // Snapshot the versions the refreshed rows were computed
            // against. On the cutoff path, versions below the
            // watermark are unchanged by the caller contract, so the
            // prefix snapshot stays valid; the fallback must cover
            // the whole range — its prefix entries may still carry a
            // *different* database's values (the very mismatch that
            // forced the fallback), which must not be re-attributed
            // to this one.
            ctx.seen_versions.resize(n, 0);
            let lo = if cutoff { since } else { 0 };
            let journal = &mut ctx.journal;
            for id in lo..n as NodeId {
                let v = cuts.version(id);
                let seen = &mut ctx.seen_versions[id as usize];
                if journal.recording && (id as usize) < prev_n && *seen != v {
                    journal.versions.push((id, *seen));
                }
                *seen = v;
            }
        }
        // Unmatchable rows are rare; liveness (the expensive global
        // DFS deciding whether one is an error) is computed only when
        // at least one exists. `none_rows` ascends, so the reported
        // node is the first live unmatchable one — exactly
        // `Mapper::map`'s.
        if !ctx.none_rows.is_empty() {
            mark_live(aig, &mut ctx.live, &mut ctx.build_stack);
            for &id in ctx.none_rows.iter() {
                if ctx.live[id as usize] {
                    return Err(MapError::NoMatch { node: id });
                }
            }
        }
        ctx.rows_for = Some(n);
        if !ctx.cutoff_disabled {
            ctx.seen_db = Some(cuts.instance_id());
        }
        Ok(since)
    }

    /// The watermark fallback of [`Mapper::dp_update`]: recomputes
    /// every row at or above `since`, rebuilds the unmatchable-row
    /// set, and (cutoff enabled) rebuilds the consumer adjacency the
    /// next call's worklist propagates along. Returns the number of
    /// rows recomputed.
    fn dp_rows_watermark(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        since: NodeId,
    ) -> usize {
        aig::analysis::fanout_counts_into(aig, &mut ctx.fanout);
        if !ctx.cutoff_disabled {
            // Fresh adjacency baseline for the next cutoff call
            // (same lineage as the version snapshot).
            let n = aig.num_nodes();
            ctx.consumers.truncate(n);
            for c in ctx.consumers.iter_mut() {
                c.clear();
            }
            ctx.consumers.resize_with(n, Vec::new);
            ctx.prev_fanins.clear();
            ctx.prev_fanins.resize(n, [Lit::FALSE; 2]);
            for id in aig.and_ids() {
                let [f0, f1] = aig.fanins(id);
                ctx.consumers[f0.var() as usize].push(id);
                ctx.consumers[f1.var() as usize].push(id);
                ctx.prev_fanins[id as usize] = [f0, f1];
            }
        }
        let MapContext {
            fanout,
            chosen,
            arrival,
            flow,
            shortlists,
            none_rows,
            ..
        } = ctx;
        none_rows.clear();
        // Rows below the watermark are provably unchanged by the edit
        // — but *liveness* is a global property: an unmatchable node
        // (row `None`) that an edit above the watermark pulled back
        // into the cover must error exactly like `Mapper::map` would.
        for id in aig.and_ids() {
            if id >= since {
                break;
            }
            if chosen[id as usize].is_none() {
                none_rows.push(id);
            }
        }
        // Recomputed rows must settle in dependency order: ascending
        // ids, except under committed forward references, where an
        // appended leaf's row must settle before its spliced reader's
        // — `for_each_and_topo` serves the cached dependency order in
        // that case, with no per-call allocation either way.
        let mut recomputed = 0usize;
        aig.for_each_and_topo(|id| {
            if id < since {
                return;
            }
            recomputed += 1;
            let Some(best) =
                self.choose_for_node(id, cuts.cuts(id), fanout, arrival, flow, shortlists)
            else {
                chosen[id as usize] = None;
                arrival[id as usize] = 0.0;
                flow[id as usize] = 0.0;
                none_rows.push(id);
                return;
            };
            arrival[id as usize] = best.arrival_ps;
            flow[id as usize] = best.area_flow;
            chosen[id as usize] = Some(best);
        });
        if !aig.is_topological() {
            // Dependency-ordered pushes above; `none_rows` must stay
            // ascending (first-live-unmatchable reporting, binary
            // searches in the cutoff pass).
            none_rows.sort_unstable();
        }
        recomputed
    }

    /// The per-row cutoff pass of [`Mapper::dp_update`] (see its docs
    /// for the validity conditions): a consumer-adjacency worklist,
    /// seeded by rows whose [`CutDb::version`] moved and by the
    /// consumers of leaves whose fanout count moved, popped in
    /// dependency (topo-position) order — plain ascending ids on
    /// topological graphs. A popped row is recomputed
    /// only if its version moved or one of its candidate cuts' leaves
    /// carries a changed (arrival, flow, fanout) bit-state; the
    /// change — or a still-dirty candidate leaf, which a consumer may
    /// have inherited through cut merging even where this row's own
    /// outputs settled — propagates to the row's consumers.
    /// Rows outside the worklist are never visited at all, so the
    /// heavy DP cost tracks the edit footprint; the only
    /// watermark-to-top work left is three sequential scans (version
    /// diff, suffix fanout refresh, fanin diff) of a few bytes per
    /// node. Maintains `none_rows` incrementally and records the
    /// exact emission-visible changed rows in `changed_rows`. Writes
    /// the undo journal when it is recording. Returns the number of
    /// rows recomputed.
    fn dp_rows_cutoff(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        since: NodeId,
    ) -> usize {
        let n = aig.num_nodes();
        let s = since as usize;
        // Journaled ids: the pre-edit rows (appended ones are
        // truncated by the undo, never restored); none when the
        // journal is off.
        let rec = ctx.journal.recording;
        let keep = if rec {
            ctx.journal.rows_for.unwrap_or(0)
        } else {
            0
        };
        ctx.row_changed.clear();
        ctx.row_changed.resize(n, false);
        // Suffix fanout refresh: fanout below the watermark is
        // unchanged by the caller contract, and every consumer of a
        // node at or above it also sits at or above it — `dp_update`
        // clamped the watermark below the first forward id, so a
        // consumer below it reading a node above it would itself be a
        // forward node below the first one, a contradiction. The
        // suffix counts therefore close over themselves.
        // Leaves whose count moved feed the area-flow term of every
        // row using them — mark them changed and collect them as
        // worklist seeds.
        ctx.fanout_scratch.clear();
        ctx.fanout_scratch.resize(n - s, 0);
        for id in since..n as NodeId {
            if aig.is_and(id) {
                let [f0, f1] = aig.fanins(id);
                for v in [f0.var() as usize, f1.var() as usize] {
                    if v >= s {
                        ctx.fanout_scratch[v - s] += 1;
                    }
                }
            }
        }
        for o in aig.outputs() {
            let v = o.lit.var() as usize;
            if v >= s {
                ctx.fanout_scratch[v - s] += 1;
            }
        }
        ctx.fanout.resize(n, 0);
        ctx.fanout_changed.clear();
        for (i, &fo) in ctx.fanout_scratch.iter().enumerate() {
            if ctx.fanout[s + i] != fo {
                if s + i < keep {
                    ctx.journal
                        .fanout
                        .push(((s + i) as NodeId, ctx.fanout[s + i]));
                }
                ctx.fanout[s + i] = fo;
                ctx.row_changed[s + i] = true;
                ctx.fanout_changed.push((s + i) as NodeId);
            }
        }
        // Fanin diff: bring the consumer adjacency (valid for the
        // previous call's graph) to the current one. Fanins below the
        // watermark are unchanged by the caller contract; appended
        // nodes enter with a blank baseline, so both their edges
        // register as additions. Removals are batched per old target
        // list: a substitution rewires *all* readers of one node, and
        // a per-reader scan of that same list would cost O(R^2) on
        // high-fanout nodes.
        ctx.consumers.resize_with(n, Vec::new);
        ctx.prev_fanins.resize(n, [Lit::FALSE; 2]);
        ctx.queued.resize(n, false);
        ctx.remove_cnt.resize(n, 0);
        ctx.removals.clear();
        for id in since..n as NodeId {
            if !aig.is_and(id) {
                continue;
            }
            let vi = id as usize;
            let now = aig.fanins(id);
            let prev = ctx.prev_fanins[vi];
            if now == prev {
                continue;
            }
            for old in prev {
                ctx.removals.push((old.var(), id));
            }
            for new in now {
                ctx.consumers[new.var() as usize].push(id);
                if (new.var() as usize) < keep {
                    ctx.journal.consumers.push((new.var(), id, true));
                }
            }
            if vi < keep {
                ctx.journal.fanins.push((id, prev));
            }
            ctx.prev_fanins[vi] = now;
        }
        ctx.removals.sort_unstable();
        let mut i = 0;
        while i < ctx.removals.len() {
            let var = ctx.removals[i].0;
            let mut j = i;
            while j < ctx.removals.len() && ctx.removals[j].0 == var {
                ctx.remove_cnt[ctx.removals[j].1 as usize] += 1;
                j += 1;
            }
            let remove_cnt = &mut ctx.remove_cnt;
            let journal = &mut ctx.journal;
            ctx.consumers[var as usize].retain(|&c| {
                let cnt = &mut remove_cnt[c as usize];
                if *cnt > 0 {
                    *cnt -= 1;
                    if (var as usize) < keep {
                        journal.consumers.push((var, c, false));
                    }
                    false
                } else {
                    true
                }
            });
            // Appended readers carry a sentinel baseline whose edges
            // never existed; clear any counts the retain left behind
            // so later groups (and calls) start clean.
            for &(_, id) in &ctx.removals[i..j] {
                ctx.remove_cnt[id as usize] = 0;
            }
            i = j;
        }
        // Worklist ordering: on topological graphs the id itself is a
        // dependency-order key (no index derivation); under committed
        // forward references the cached topo-position index supplies
        // one. Either way a cut leaf lies in the transitive fanin of
        // its root, so its key is strictly smaller — popping in
        // ascending key order makes every leaf row final before any
        // reader consults it.
        let topo = if aig.is_topological() {
            None
        } else {
            Some(aig.topo_and_order())
        };
        let key = |id: NodeId| -> u32 {
            match &topo {
                None => id,
                Some(t) => t.positions()[id as usize],
            }
        };
        let MapContext {
            fanout,
            chosen,
            arrival,
            flow,
            shortlists,
            none_rows,
            seen_versions,
            changed_rows,
            row_changed,
            fanout_changed,
            consumers,
            heap,
            queued,
            journal,
            ..
        } = ctx;
        let enqueue =
            |heap: &mut BinaryHeap<Reverse<(u32, NodeId)>>, queued: &mut Vec<bool>, id: NodeId| {
                if !queued[id as usize] {
                    queued[id as usize] = true;
                    heap.push(Reverse((key(id), id)));
                }
            };
        // Seeds: rows whose own cut list may have changed (version
        // moved; appended rows have no snapshot entry and always
        // mismatch), and the consumers of fanout-moved leaves.
        for id in since..n as NodeId {
            let vi = id as usize;
            if aig.is_and(id) && seen_versions.get(vi).copied() != Some(cuts.version(id)) {
                enqueue(heap, queued, id);
            }
        }
        for &v in fanout_changed.iter() {
            for &c in &consumers[v as usize] {
                enqueue(heap, queued, c);
            }
        }
        let mut recomputed = 0usize;
        while let Some(Reverse((_, id))) = heap.pop() {
            queued[id as usize] = false;
            let vi = id as usize;
            let cut_list = cuts.cuts(id);
            // Cut leaves precede the root in dependency order, so
            // their `row_changed` bits are final by the time this
            // ascending-key pop reads them.
            let version_moved = seen_versions.get(vi).copied() != Some(cuts.version(id));
            let leaf_dirty = cut_list
                .iter()
                .any(|c| c.leaves().iter().any(|&l| row_changed[l as usize]));
            if !version_moved && !leaf_dirty {
                continue; // equality cutoff: the row's inputs settled
            }
            recomputed += 1;
            let old_arrival = arrival[vi];
            let old_flow = flow[vi];
            if vi < keep {
                journal.rows.push((id, chosen[vi], old_arrival, old_flow));
            }
            let best = self.choose_for_node(id, cut_list, fanout, arrival, flow, shortlists);
            if !emit_eq(&chosen[vi], &best) {
                changed_rows.push(id);
            }
            match best {
                Some(b) => {
                    arrival[vi] = b.arrival_ps;
                    flow[vi] = b.area_flow;
                    chosen[vi] = Some(b);
                }
                None => {
                    arrival[vi] = 0.0;
                    flow[vi] = 0.0;
                    chosen[vi] = None;
                }
            }
            // Bit-equality cutoff: consumers read a leaf's arrival,
            // flow and fanout — chosen-match changes alone do not
            // propagate (they only matter for emission, recorded in
            // `changed_rows` above). A consumer is also woken when
            // this row still carries a dirty candidate leaf: merged
            // cuts inherit leaves, so the consumer may read that leaf
            // directly even though this row's outputs settled.
            if arrival[vi].to_bits() != old_arrival.to_bits()
                || flow[vi].to_bits() != old_flow.to_bits()
            {
                row_changed[vi] = true;
            }
            if row_changed[vi] || leaf_dirty {
                for &c in &consumers[vi] {
                    enqueue(heap, queued, c);
                }
            }
            let is_none = chosen[vi].is_none();
            if is_none {
                if let Err(pos) = none_rows.binary_search(&id) {
                    none_rows.insert(pos, id);
                    if rec {
                        journal.none_rows.push((id, true));
                    }
                }
            } else if let Ok(pos) = none_rows.binary_search(&id) {
                none_rows.remove(pos);
                if rec {
                    journal.none_rows.push((id, false));
                }
            }
        }
        recomputed
    }

    /// One DP row: the best library match for `id` over its cut list,
    /// given the rows of every preceding node. Shared verbatim by the
    /// full and incremental entry points so both select identically.
    fn choose_for_node(
        &self,
        id: NodeId,
        cut_list: &[Cut],
        fanout: &[u32],
        arrival: &[f64],
        flow: &[f64],
        shortlists: &mut HashMap<(u8, u64), Vec<PreMatch>>,
    ) -> Option<Chosen> {
        let mut best: Option<Chosen> = None;
        for cut in cut_list {
            if cut.size() == 1 && cut.leaves()[0] == id {
                continue; // trivial cut: a node cannot implement itself
            }
            let Some((tt, leaves)) = shrink_support(cut) else {
                continue; // constant function over the cut
            };
            let nv = leaves.len as usize;
            let matches = shortlists
                .entry((nv as u8, tt))
                .or_insert_with(|| self.build_shortlist(nv, tt));
            if matches.is_empty() {
                continue;
            }
            let leaf_flow: f64 = leaves
                .as_slice()
                .iter()
                .map(|&l| flow[l as usize] / f64::from(fanout[l as usize].max(1)))
                .sum();
            for pm in matches.iter() {
                let mut arr: f64 = 0.0;
                for (j, &leaf) in leaves.as_slice().iter().enumerate() {
                    arr = arr.max(arrival[leaf as usize] + pm.add[j]);
                }
                arr += pm.out_add;
                let af = pm.fixed_area + leaf_flow;
                let better = match &best {
                    None => true,
                    Some(b) => match self.opts.goal {
                        MapGoal::Delay => (arr, af) < (b.arrival_ps, b.area_flow),
                        MapGoal::Area => (af, arr) < (b.area_flow, b.arrival_ps),
                    },
                };
                if better {
                    best = Some(Chosen {
                        m: pm.m,
                        leaves,
                        arrival_ps: arr,
                        area_flow: af,
                    });
                }
            }
        }
        best
    }

    /// Folds the matcher's entries for an `nv`-variable cut function
    /// into [`PreMatch`] constants at the estimated load, dropping
    /// matches that are weakly dominated by an earlier entry (at
    /// least as slow on every variable and output, and at least as
    /// large — such a match can never be selected, under either
    /// goal, for any leaf arrivals).
    fn build_shortlist(&self, nv: usize, tt: u64) -> Vec<PreMatch> {
        let inv = self.lib.cell(self.lib.smallest_inverter());
        let inv_delay = inv.pins[0].intrinsic_ps + inv.drive_res * self.opts.est_load_ff;
        let inv_area = inv.area_um2;
        let mut out: Vec<PreMatch> = Vec::new();
        'matches: for m in self.matcher.matches_cut_fn(nv, tt) {
            let cell = self.lib.cell(m.cell);
            let mut pm = PreMatch {
                m: *m,
                add: [0.0; 4],
                out_add: if m.output_compl { inv_delay } else { 0.0 },
                fixed_area: cell.area_um2 + if m.output_compl { inv_area } else { 0.0 },
            };
            for j in 0..nv {
                let mut a = cell.delay_ps(m.pin_of_var[j] as usize, self.opts.est_load_ff);
                if m.input_compl >> j & 1 == 1 {
                    a += inv_delay;
                    pm.fixed_area += inv_area;
                }
                pm.add[j] = a;
            }
            for kept in &out {
                let dominated = kept.fixed_area <= pm.fixed_area
                    && kept.out_add <= pm.out_add
                    && (0..nv).all(|j| kept.add[j] <= pm.add[j]);
                if dominated {
                    continue 'matches;
                }
            }
            out.push(pm);
        }
        out
    }

    /// Instantiates the selected cover into a netlist.
    ///
    /// `net_of`/`inv_of`/`stack` are caller-owned scratch (dense
    /// node→net and net→inverter-net tables), fully re-initialized
    /// here so reuse across calls cannot leak state.
    fn build_netlist(
        &self,
        aig: &Aig,
        chosen: &[Option<Chosen>],
        net_of: &mut Vec<Option<NetId>>,
        inv_of: &mut Vec<Option<NetId>>,
        stack: &mut Vec<(NodeId, bool)>,
    ) -> Netlist {
        let mut nl = Netlist::new();
        let inv_cell = self.lib.smallest_inverter();
        net_of.clear();
        net_of.resize(aig.num_nodes(), None);
        inv_of.clear();
        for &pi in aig.inputs() {
            net_of[pi as usize] = Some(nl.add_input());
        }
        fn inverter_of(
            nl: &mut Netlist,
            inv_of: &mut Vec<Option<NetId>>,
            inv_cell: cells::CellId,
            base: NetId,
        ) -> NetId {
            let idx = base.0 as usize;
            if inv_of.len() <= idx {
                inv_of.resize(idx + 1, None);
            }
            *inv_of[idx].get_or_insert_with(|| nl.add_gate(inv_cell, vec![base]))
        }

        // Iterative post-order construction of needed nodes.
        stack.clear();
        stack.extend(
            aig.outputs()
                .iter()
                .filter(|o| aig.is_and(o.lit.var()))
                .map(|o| (o.lit.var(), false)),
        );
        while let Some((node, expanded)) = stack.pop() {
            if net_of[node as usize].is_some() {
                continue;
            }
            let ch = chosen[node as usize]
                .as_ref()
                .expect("cover reaches only mapped AND nodes");
            if !expanded {
                stack.push((node, true));
                for &leaf in ch.leaves.as_slice() {
                    if aig.is_and(leaf) && net_of[leaf as usize].is_none() {
                        stack.push((leaf, false));
                    }
                }
                continue;
            }
            let cell = self.lib.cell(ch.m.cell);
            let mut inputs: Vec<NetId> = vec![NetId(u32::MAX); cell.num_inputs()];
            for (j, &leaf) in ch.leaves.as_slice().iter().enumerate() {
                let base = net_of[leaf as usize].expect("leaves built before the root");
                let sig = if ch.m.input_compl >> j & 1 == 1 {
                    inverter_of(&mut nl, inv_of, inv_cell, base)
                } else {
                    base
                };
                inputs[ch.m.pin_of_var[j] as usize] = sig;
            }
            debug_assert!(inputs.iter().all(|n| n.0 != u32::MAX), "all pins assigned");
            let mut out = nl.add_gate(ch.m.cell, inputs);
            if ch.m.output_compl {
                out = inverter_of(&mut nl, inv_of, inv_cell, out);
            }
            net_of[node as usize] = Some(out);
        }

        for o in aig.outputs() {
            let var = o.lit.var();
            let base = if var == 0 {
                nl.const_net(false)
            } else {
                net_of[var as usize].expect("all output drivers built")
            };
            let net = if o.lit.is_complement() {
                if let aig::NodeKind::Const = aig.node_kind(var) {
                    nl.const_net(true)
                } else {
                    inverter_of(&mut nl, inv_of, inv_cell, base)
                }
            } else {
                base
            };
            nl.add_output(net, o.name.clone());
        }
        nl
    }
}

/// Whether two DP row choices would emit identical gates: same cell,
/// pin assignment, polarities and leaves. Timing scores are excluded
/// on purpose — they never reach the netlist, so rows differing only
/// in scores need no re-emission (consumers track score changes
/// through the DP cutoff's `row_changed` bits instead).
fn emit_eq(a: &Option<Chosen>, b: &Option<Chosen>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.m == b.m && a.leaves.as_slice() == b.leaves.as_slice(),
        _ => false,
    }
}

/// Removes non-support leaves from a cut; returns the compacted
/// (tt, leaves) without heap allocation, or `None` if the function is
/// constant.
fn shrink_support(cut: &Cut) -> Option<(u64, CutLeaves)> {
    let nv = cut.size();
    debug_assert!(nv <= 4);
    let tt = cut.masked_tt();
    let mut kept_var = [0usize; 4];
    let mut leaves = CutLeaves {
        arr: [0; 4],
        len: 0,
    };
    for (i, &leaf) in cut.leaves().iter().enumerate() {
        if depends_u64(tt, nv, i) {
            kept_var[leaves.len as usize] = i;
            leaves.arr[leaves.len as usize] = leaf;
            leaves.len += 1;
        }
    }
    if leaves.len == 0 {
        return None;
    }
    // Compact the tt onto the kept variables.
    let knv = leaves.len as usize;
    let mut out = 0u64;
    for m in 0..(1usize << knv) {
        let mut src = 0usize;
        for (jj, &orig) in kept_var.iter().take(knv).enumerate() {
            src |= ((m >> jj) & 1) << orig;
        }
        out |= ((tt >> src) & 1) << m;
    }
    Some((out, leaves))
}

/// Dependence test for a `u64` truth table over `nv <= 6` variables.
fn depends_u64(tt: u64, nv: usize, i: usize) -> bool {
    debug_assert!(i < nv && nv <= 6);
    let bits = 1usize << nv;
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    const KEEP: [u64; 6] = [
        0x5555_5555_5555_5555,
        0x3333_3333_3333_3333,
        0x0F0F_0F0F_0F0F_0F0F,
        0x00FF_00FF_00FF_00FF,
        0x0000_FFFF_0000_FFFF,
        0x0000_0000_FFFF_FFFF,
    ];
    let shift = 1usize << i;
    let lo = tt & KEEP[i] & mask;
    let hi = (tt >> shift) & KEEP[i] & mask;
    lo != hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::sim::SimTable;
    use cells::sky130ish;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn verify_mapping(aig: &Aig, nl: &Netlist, lib: &Library) {
        assert!(aig.num_inputs() <= 12, "test helper uses exhaustive sim");
        let sim = SimTable::exhaustive(aig).expect("small");
        let n = aig.num_inputs();
        for m in 0..(1usize << n) {
            let pis: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            let got = nl.eval(lib, &pis);
            for (k, o) in aig.outputs().iter().enumerate() {
                assert_eq!(
                    got[k],
                    sim.lit_bit(o.lit, m),
                    "output {k} pattern {m:b} differs"
                );
            }
        }
    }

    fn random_aig(seed: u64, num_inputs: usize, num_nodes: usize) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<aig::Lit> = (0..num_inputs).map(|_| g.add_input()).collect();
        for _ in 0..num_nodes {
            let a = lits[rng.gen_range(0..lits.len())];
            let b = lits[rng.gen_range(0..lits.len())];
            let a = a.complement_if(rng.gen());
            let b = b.complement_if(rng.gen());
            let f = g.and(a, b);
            lits.push(f);
        }
        for _ in 0..3 {
            let l = lits[rng.gen_range(0..lits.len())];
            g.add_output(l.complement_if(rng.gen()), None::<&str>);
        }
        g
    }

    #[test]
    fn maps_simple_functions() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let f = g.or(ab, c); // AO21 shape
        let x = g.xor(a, c);
        g.add_output(f, Some("f"));
        g.add_output(x, Some("x"));
        g.add_output(!f, None::<&str>);
        let nl = mapper.map(&g).expect("mappable");
        verify_mapping(&g, &nl, &lib);
        // XOR should map to a single XOR cell rather than 3 gates.
        let hist = nl.cell_histogram(&lib);
        assert!(
            hist.iter()
                .any(|(n, _)| n.starts_with("XOR") || n.starts_with("XNOR")),
            "expected an XOR-family cell, got {hist:?}"
        );
    }

    #[test]
    fn maps_random_graphs_correctly() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        for seed in 0..8 {
            let g = random_aig(seed, 6, 40);
            let nl = mapper.map(&g).expect("mappable");
            verify_mapping(&g, &nl, &lib);
        }
    }

    #[test]
    fn area_mode_not_larger_than_delay_mode() {
        let lib = sky130ish();
        let delay = Mapper::new(&lib, MapOptions::default());
        let area = Mapper::new(
            &lib,
            MapOptions {
                goal: MapGoal::Area,
                ..MapOptions::default()
            },
        );
        let mut total_d = 0.0;
        let mut total_a = 0.0;
        for seed in 0..4 {
            let g = random_aig(100 + seed, 8, 80);
            total_d += delay.map(&g).expect("ok").area_um2(&lib);
            total_a += area.map(&g).expect("ok").area_um2(&lib);
        }
        assert!(
            total_a <= total_d * 1.05,
            "area mode {total_a} should not exceed delay mode {total_d}"
        );
    }

    #[test]
    fn po_edge_cases() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        g.add_output(aig::Lit::TRUE, Some("tie1"));
        g.add_output(aig::Lit::FALSE, Some("tie0"));
        g.add_output(a, Some("pass"));
        g.add_output(!a, Some("inv"));
        let f = g.and(a, b);
        g.add_output(f, Some("f"));
        g.add_output(f, Some("f_again"));
        let nl = mapper.map(&g).expect("mappable");
        verify_mapping(&g, &nl, &lib);
    }

    #[test]
    fn shared_inverters() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(!a, None::<&str>);
        g.add_output(!a, None::<&str>);
        let nl = mapper.map(&g).expect("mappable");
        assert_eq!(nl.num_gates(), 1, "inverter must be shared");
    }

    /// Every invalid option must surface as `BadOptions` — never as a
    /// later `NoMatch` — from both `map` and `map_with`.
    #[test]
    fn bad_options_rejected() {
        let lib = sky130ish();
        let g = random_aig(1, 4, 10);
        let bad = [
            MapOptions {
                cut_size: 6,
                ..MapOptions::default()
            },
            MapOptions {
                cut_size: 1,
                ..MapOptions::default()
            },
            MapOptions {
                max_cuts: 1,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: 0.0,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: -3.0,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: f64::NAN,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: f64::INFINITY,
                ..MapOptions::default()
            },
        ];
        for opts in bad {
            assert!(
                matches!(opts.validate(), Err(MapError::BadOptions(_))),
                "{opts:?}"
            );
            let m = Mapper::new(&lib, opts);
            assert!(
                matches!(m.map(&g), Err(MapError::BadOptions(_))),
                "map must reject {opts:?} up front"
            );
            let mut ctx = MapContext::new();
            assert!(
                matches!(m.map_with(&mut ctx, &g), Err(MapError::BadOptions(_))),
                "map_with must reject {opts:?} up front"
            );
        }
        assert!(MapOptions::default().validate().is_ok());
    }

    /// A context reused across distinct graphs (including a
    /// shrink-then-grow size sequence) must reproduce `map`'s netlist
    /// exactly.
    #[test]
    fn context_reuse_matches_fresh_map() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut ctx = MapContext::new();
        // big -> small -> big again: stale table contents from the
        // larger graph must not leak into the smaller one.
        for (seed, nodes) in [(11u64, 80), (12, 8), (13, 60), (11, 80), (14, 25)] {
            let g = random_aig(seed, 6, nodes);
            let fresh = mapper.map(&g).expect("mappable");
            let reused = mapper.map_with(&mut ctx, &g).expect("mappable");
            assert_eq!(
                format!("{fresh:?}"),
                format!("{reused:?}"),
                "seed {seed}: context-reusing map diverged"
            );
            verify_mapping(&g, &reused, &lib);
        }
    }

    /// Random in-place edit walks: after every substitution, mapping
    /// incrementally (cut database + dirty watermark, rows reused
    /// below it) must reproduce the fresh `map` netlist exactly.
    #[test]
    fn incremental_map_matches_fresh_map_across_edits() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0x1A9 ^ seed);
            let mut g = random_aig(700 + seed, 7, 90);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = CutDb::new(4, 8);
            db.build(&g);
            let mut ctx = MapContext::new();
            // Seed the context rows with the unedited graph.
            let first = mapper
                .map_incremental(&mut ctx, &g, &db, 0)
                .expect("mappable");
            assert_eq!(
                format!("{first:?}"),
                format!("{:?}", mapper.map(&g).unwrap())
            );
            for _ in 0..10 {
                let mut txn = Transaction::begin(&mut g, &mut inc);
                for _ in 0..rng.gen_range(1..3) {
                    let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                    let node = ands[rng.gen_range(0..ands.len())];
                    let with = aig::Lit::new(rng.gen_range(0..node), rng.gen());
                    txn.substitute(node, with);
                    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
                }
                let since = txn.min_touched();
                txn.commit();
                // Arbitrary test substitutions can leave a *live*
                // constant node behind (e.g. AND(x, !x) on an output
                // path), which no cell matches; both entry points
                // must then fail identically.
                let incr = mapper.map_incremental(&mut ctx, &g, &db, since);
                let fresh = mapper.map(&g);
                match (incr, fresh) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "seed {seed}: incremental map diverged (since={since})"
                    ),
                    (Err(MapError::NoMatch { node: a }), Err(MapError::NoMatch { node: b })) => {
                        assert_eq!(a, b, "seed {seed}: error node diverged");
                    }
                    (a, b) => panic!("seed {seed}: outcome diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// The watermark fast path: an untouched graph remaps through
    /// reused rows only, still yielding the identical netlist.
    #[test]
    fn incremental_map_with_clean_rows_is_identical() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let g = random_aig(42, 6, 60);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let mut ctx = MapContext::new();
        let a = mapper
            .map_incremental(&mut ctx, &g, &db, 0)
            .expect("mappable");
        let b = mapper
            .map_incremental(&mut ctx, &g, &db, NodeId::MAX)
            .expect("mappable");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// A dead unmatchable node (every cut function constant) below
    /// the dirty watermark that an edit pulls back into the cover
    /// must error exactly like a fresh `map` — the reused-row fast
    /// path may not mask it.
    #[test]
    fn incremental_map_errors_on_resurrected_dead_node() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let z = g.add_input();
        // Dead cone: e = x & !x (unmatchable), c consumes it.
        let e = {
            // Bypass `and`'s trivial rules to get a real AND(x, !x):
            // build x&y then rewire it, as an in-place edit would.
            let t = g.and(x, y);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut txn = Transaction::begin(&mut g, &mut inc);
            txn.substitute(y.var(), !x);
            txn.commit();
            t
        };
        let c = g.and(e, z);
        // Live logic, built after the dead cone so c < zn.
        let zn = g.and(y, z);
        g.add_output(zn, None::<&str>);

        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let mut ctx = MapContext::new();
        // Prior call caches rows: e is dead, row None, map succeeds.
        mapper
            .map_incremental(&mut ctx, &g, &db, 0)
            .expect("dead unmatchable node is skipped");
        // Retarget the output into the dead cone: e becomes live.
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(zn.var(), c);
        let since = txn.min_touched();
        txn.commit();
        db.invalidate(&g, &inc, inc.last_dirty());
        assert!(e.var() < since, "e's row sits below the watermark");
        let fresh = mapper.map(&g);
        let incr = mapper.map_incremental(&mut ctx, &g, &db, since);
        match (incr, fresh) {
            (Err(MapError::NoMatch { node: a }), Err(MapError::NoMatch { node: b })) => {
                assert_eq!(a, b, "both entry points must name the same node");
                assert_eq!(a, e.var());
            }
            (a, b) => panic!("outcome diverged: {a:?} vs {b:?}"),
        }
    }

    /// A mismatched cut database is a caller bug surfaced up front.
    #[test]
    fn incremental_map_rejects_mismatched_cutdb() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let g = random_aig(1, 4, 10);
        let mut db = CutDb::new(3, 8); // wrong k
        db.build(&g);
        let mut ctx = MapContext::new();
        assert!(matches!(
            mapper.map_incremental(&mut ctx, &g, &db, 0),
            Err(MapError::BadOptions(_))
        ));
    }

    #[test]
    fn shrink_support_drops_redundant() {
        // f = x0 over 2 leaves (leaf 1 redundant).
        let cut = Cut::from_leaves(&[4, 9], 0b1010);
        let (tt, leaves) = shrink_support(&cut).expect("non-const");
        assert_eq!(leaves.as_slice(), &[4]);
        assert_eq!(tt & 0b11, 0b10);
        // constant cut
        let cut = Cut::from_leaves(&[4, 9], 0b0000);
        assert!(shrink_support(&cut).is_none());
    }
}
