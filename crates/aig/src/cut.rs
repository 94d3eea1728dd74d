//! K-feasible cut enumeration with cut functions.
//!
//! Cuts are the workhorse of both the rewriting engine (4-input cuts
//! resynthesized against an NPN cache) and the technology mapper
//! (4-input cuts Boolean-matched against the cell library). Because
//! the SA loop re-enumerates cuts on every candidate, this module is
//! the hottest code in the repository and is written allocation-free:
//!
//! * [`Cut`] keeps its leaves in an inline `[NodeId; 6]` (ABC-style)
//!   with a separate length, so cuts are `Copy` and merging two leaf
//!   sets never touches the heap;
//! * every cut carries a 64-bit Bloom-style *signature* of its leaf
//!   set; `sig_a & !sig_b != 0` proves `a ⊄ b`, which prefilters both
//!   the k-feasibility of merges (via a popcount bound) and the
//!   dominance scan in O(1);
//! * the truth table is masked to the cut's width once, at
//!   construction, instead of on every [`Cut::tt`] call;
//! * [`CutSet`] stores all cut lists in one flat arena indexed by
//!   per-node spans, so enumeration performs no per-node `Vec`
//!   allocations.
//!
//! The previous `Vec`-backed implementation survives as
//! [`enumerate_cuts_naive`]; parity tests assert both produce
//! identical cut sets, and the component benchmark measures the
//! speedup between them.
//!
//! For the SA loop's *in-place* moves, [`CutDb`] keeps the cut table
//! alive across graph edits: seeded by the
//! [`DirtyRegion`](crate::incremental::DirtyRegion) of a
//! substitution, it recomputes only the edited nodes and the part of
//! their transitive fanout whose lists actually change (equality
//! cutoff), and supports exact rollback in step with an edit
//! [`Transaction`](crate::incremental::Transaction). Its table is
//! bit-identical to a fresh [`enumerate_cuts`] after any edit
//! sequence.

use crate::graph::Aig;
use crate::lit::{Lit, NodeId};
use std::collections::BinaryHeap;

/// Maximum number of leaves a [`Cut`] can hold.
pub const MAX_CUT_SIZE: usize = 6;

/// A k-feasible cut of a node: a set of leaves plus the function of
/// the node expressed over those leaves.
///
/// Leaves are sorted ascending; [`Cut::tt`] is the truth table over
/// the leaves (leaf `i` is variable `i`), already masked to the cut's
/// width, valid for cuts of at most six leaves. The truth table is
/// expressed for the *plain* (uncomplemented) polarity of the root
/// node.
#[derive(Clone, Copy, Debug)]
pub struct Cut {
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
    sig: u64,
    tt: u64,
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        // sig is derived from leaves; tt is stored masked — plain
        // field comparison after the cheap discriminators.
        self.len == other.len
            && self.sig == other.sig
            && self.tt == other.tt
            && self.leaves() == other.leaves()
    }
}

impl Eq for Cut {}

#[inline]
fn leaf_sig(leaf: NodeId) -> u64 {
    1u64 << (leaf & 63)
}

#[inline]
fn width_mask(len: usize) -> u64 {
    let bits = 1usize << len;
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl Cut {
    /// The trivial cut `{node}` with the identity function.
    pub fn trivial(node: NodeId) -> Cut {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: leaf_sig(node),
            tt: 0b10, // f = x0 over one variable
        }
    }

    /// Builds a cut from sorted-ascending `leaves` and a truth table
    /// (masked to the cut width on construction).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` has more than [`MAX_CUT_SIZE`] entries or is
    /// not strictly ascending.
    pub fn from_leaves(leaves: &[NodeId], tt: u64) -> Cut {
        assert!(
            leaves.len() <= MAX_CUT_SIZE,
            "cut of {} leaves",
            leaves.len()
        );
        assert!(
            leaves.windows(2).all(|w| w[0] < w[1]),
            "cut leaves must be sorted ascending: {leaves:?}"
        );
        let mut arr = [0; MAX_CUT_SIZE];
        arr[..leaves.len()].copy_from_slice(leaves);
        let mut sig = 0;
        for &l in leaves {
            sig |= leaf_sig(l);
        }
        Cut {
            leaves: arr,
            len: leaves.len() as u8,
            sig,
            tt: tt & width_mask(leaves.len()),
        }
    }

    /// The cut leaves, ascending node ids.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// The Bloom-style 64-bit signature of the leaf set (bit
    /// `leaf & 63` set for every leaf).
    #[inline]
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// The cut function over the leaves, masked to the cut width.
    #[inline]
    pub fn tt(&self) -> u64 {
        self.tt
    }

    /// The masked truth table (same as [`Cut::tt`]; the mask is
    /// applied once at construction, kept for API continuity).
    #[inline]
    pub fn masked_tt(&self) -> u64 {
        self.tt
    }

    /// Whether every leaf of `self` also appears in `other`
    /// (i.e. `self` dominates `other` and renders it redundant).
    #[inline]
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sig & !other.sig != 0 {
            return false;
        }
        self.subset_scan(other)
    }

    /// Exact subset test by merge scan (no signature prefilter);
    /// exposed for the property tests that validate the prefilter.
    #[doc(hidden)]
    pub fn subset_scan(&self, other: &Cut) -> bool {
        let a = self.leaves();
        let b = other.leaves();
        let mut j = 0;
        for &l in a {
            while j < b.len() && b[j] < l {
                j += 1;
            }
            if j == b.len() || b[j] != l {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Merges the leaf sets of `a` and `b` into a new cut with
    /// truth table `tt`; `None` when the union exceeds `k` leaves.
    #[inline]
    fn merged_leaves(a: &Cut, b: &Cut, k: usize) -> Option<([NodeId; MAX_CUT_SIZE], u8, u64)> {
        let (la, lb) = (a.leaves(), b.leaves());
        let mut out = [0; MAX_CUT_SIZE];
        let (mut i, mut j, mut n) = (0, 0, 0usize);
        while i < la.len() || j < lb.len() {
            let next = if j == lb.len() || (i < la.len() && la[i] <= lb[j]) {
                let x = la[i];
                if j < lb.len() && lb[j] == x {
                    j += 1;
                }
                i += 1;
                x
            } else {
                let y = lb[j];
                j += 1;
                y
            };
            if n == k {
                return None;
            }
            out[n] = next;
            n += 1;
        }
        Some((out, n as u8, a.sig | b.sig))
    }
}

/// Per-node cut sets produced by [`enumerate_cuts`].
///
/// Cut lists are stored back-to-back in a single arena; `cuts(id)`
/// returns the node's span as a slice.
#[derive(Clone, Debug, Default)]
pub struct CutSet {
    arena: Vec<Cut>,
    span: Vec<(u32, u32)>,
    k: usize,
    // Scratch buffers for `enumerate_cuts_into`, kept here so a reused
    // `CutSet` makes re-enumeration allocation-free on the steady
    // state (the mapping context reuses one across thousands of
    // candidate AIGs).
    merged_scratch: Vec<Cut>,
    list_scratch: Vec<Cut>,
}

impl CutSet {
    /// The cuts of node `id` (trivial cut included, first).
    pub fn cuts(&self, id: NodeId) -> &[Cut] {
        let (s, e) = self.span[id as usize];
        &self.arena[s as usize..e as usize]
    }

    /// The cut-size bound `k` used during enumeration.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of stored cuts across all nodes.
    pub fn num_cuts(&self) -> usize {
        self.arena.len()
    }

    /// Pre-sizes the span table and cut arena for a graph of `nodes`
    /// nodes at up to `max_cuts` cuts each (capacity only; contents
    /// untouched). A following [`enumerate_cuts_into`] then performs
    /// no incremental regrowth.
    pub fn reserve_nodes(&mut self, nodes: usize, max_cuts: usize) {
        let grow = |cap: usize, len: usize| cap.saturating_sub(len);
        self.span.reserve(grow(nodes, self.span.len()));
        let cuts = nodes.saturating_mul(max_cuts.min(8) + 1);
        self.arena.reserve(grow(cuts, self.arena.len()));
    }
}

/// Duplicates each `2^p`-bit block of `tt`, i.e. inserts a don't-care
/// variable at position `p`. Butterfly spread by magic masks: the
/// input may occupy at most 32 bits (a 5-variable table), which holds
/// for every insertion on the way to a 6-variable result.
#[inline]
fn insert_var(tt: u64, p: usize) -> u64 {
    const SPREAD: [(u32, u64); 5] = [
        (1, 0x5555_5555_5555_5555),
        (2, 0x3333_3333_3333_3333),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (8, 0x00FF_00FF_00FF_00FF),
        (16, 0x0000_FFFF_0000_FFFF),
    ];
    let k = 1u32 << p;
    let mut x = tt;
    for &(s, m) in SPREAD.iter().rev() {
        if s >= k {
            x = (x | (x << s)) & m;
        }
    }
    x | (x << k)
}

/// Re-expresses `tt` (over sorted leaf set `from`) over the sorted
/// superset leaf set `to`.
///
/// Runs one O(1) butterfly insertion per variable of `to` missing
/// from `from` (the hot operation of cut merging), instead of the
/// naive reference's O(2^n) per-minterm loop.
///
/// # Panics
///
/// Panics (debug) if `from` is not a subset of `to` or `to.len() > 6`.
pub fn expand_tt(tt: u64, from: &[NodeId], to: &[NodeId]) -> u64 {
    debug_assert!(to.len() <= MAX_CUT_SIZE);
    // Mask to `from`'s width first: the butterfly would otherwise OR
    // garbage high bits into valid positions of the result (the old
    // per-minterm loop ignored them implicitly).
    let mut t = tt & width_mask(from.len());
    // Invariant: `t` is expressed over the vars of `to[..i]` already
    // processed followed by the pending tail `from[j..]`; a var of
    // `to` absent from `from` is inserted at its final position `i`,
    // shifting the pending tail up by one.
    let mut j = 0;
    for (i, &v) in to.iter().enumerate() {
        if j < from.len() && from[j] == v {
            j += 1;
        } else {
            t = insert_var(t, i);
        }
    }
    debug_assert_eq!(j, from.len(), "`from` leaves must be a subset of `to`");
    t
}

/// Enumerates up to `max_cuts` k-feasible cuts per node, `k <= 6`.
///
/// Every node's cut list begins with its trivial cut. Dominated cuts
/// (supersets of another kept cut) are filtered; surplus cuts are
/// pruned preferring fewer leaves. Produces exactly the same cut sets
/// as [`enumerate_cuts_naive`] (asserted by the parity tests) while
/// performing no per-candidate allocation.
///
/// # Panics
///
/// Panics if `k > 6` or `k == 0`.
///
/// # Examples
///
/// ```
/// use aig::{Aig, cut::enumerate_cuts};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let c = g.add_input();
/// let ab = g.and(a, b);
/// let abc = g.and(ab, c);
/// g.add_output(abc, None::<&str>);
/// let cuts = enumerate_cuts(&g, 4, 8);
/// // abc has the trivial cut, {ab, c} and {a, b, c}.
/// assert!(cuts.cuts(abc.var()).len() >= 3);
/// ```
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> CutSet {
    let mut out = CutSet::default();
    enumerate_cuts_into(aig, k, max_cuts, &mut out);
    out
}

/// [`enumerate_cuts`] into a caller-owned [`CutSet`], reusing its
/// arena and scratch allocations.
///
/// Re-enumerating into a warm `CutSet` is allocation-free once the
/// arena has grown to the largest graph seen; the technology mapper's
/// [reusable context](../../techmap) and the SA evaluation loop lean
/// on this. Produces exactly the cut sets [`enumerate_cuts`] produces
/// (the parity tests cover the reuse path).
///
/// # Panics
///
/// Panics if `k > 6` or `k == 0`.
pub fn enumerate_cuts_into(aig: &Aig, k: usize, max_cuts: usize, out: &mut CutSet) {
    assert!(
        (1..=MAX_CUT_SIZE).contains(&k),
        "cut size k must be in 1..=6"
    );
    let n = aig.num_nodes();
    out.k = k;
    let CutSet {
        arena,
        span,
        k: _,
        merged_scratch: merged,
        list_scratch: list,
    } = out;
    arena.clear();
    arena.reserve(n.saturating_mul(max_cuts.min(8) + 1));
    span.clear();
    span.resize(n, (0, 0));

    fn push_list(arena: &mut Vec<Cut>, span: &mut [(u32, u32)], id: NodeId, cuts: &[Cut]) {
        let s = arena.len() as u32;
        arena.extend_from_slice(cuts);
        span[id as usize] = (s, arena.len() as u32);
    }

    // Constant node: single empty cut with constant-false function.
    push_list(arena, span, 0, &[Cut::from_leaves(&[], 0)]);
    for &pi in aig.inputs() {
        push_list(arena, span, pi, &[Cut::trivial(pi)]);
    }

    let (f0s, f1s) = aig.fanin_arrays();
    aig.for_each_and_topo(|id| {
        let (f0, f1) = (f0s[id as usize], f1s[id as usize]);
        node_cut_list(f0, f1, id, k, max_cuts, arena, span, merged, list);
        push_list(arena, span, id, list);
    });
}

/// Computes the cut list of AND node `id` (fanins `f0`/`f1`, as read
/// from [`Aig::fanin_arrays`]) into `list`, reading the fanins' lists
/// through `(arena, span)`. This is the shared inner loop of
/// [`enumerate_cuts_into`] (full enumeration) and [`CutDb`]
/// (incremental re-enumeration); both therefore keep *identical*
/// per-node cut lists by construction.
#[allow(clippy::too_many_arguments)]
fn node_cut_list(
    f0: Lit,
    f1: Lit,
    id: NodeId,
    k: usize,
    max_cuts: usize,
    arena: &[Cut],
    span: &[(u32, u32)],
    merged: &mut Vec<Cut>,
    list: &mut Vec<Cut>,
) {
    list.clear();
    list.push(Cut::trivial(id));
    let (s0, e0) = span[f0.var() as usize];
    let (s1, e1) = span[f1.var() as usize];
    merged.clear();
    for i0 in s0..e0 {
        let c0 = arena[i0 as usize];
        for i1 in s1..e1 {
            let c1 = arena[i1 as usize];
            // Signature prefilter: the union has at least
            // popcount(sig0 | sig1) distinct leaves.
            if (c0.sig | c1.sig).count_ones() as usize > k {
                continue;
            }
            let Some((leaves, len, sig)) = Cut::merged_leaves(&c0, &c1, k) else {
                continue;
            };
            let leaves_s = &leaves[..len as usize];
            let t0 = expand_tt(c0.tt, c0.leaves(), leaves_s);
            let t1 = expand_tt(c1.tt, c1.leaves(), leaves_s);
            let mask = width_mask(len as usize);
            let t0 = if f0.is_complement() { !t0 & mask } else { t0 };
            let t1 = if f1.is_complement() { !t1 & mask } else { t1 };
            merged.push(Cut {
                leaves,
                len,
                sig,
                tt: t0 & t1,
            });
        }
    }
    // Visit candidates in size order (prefer small cuts) without
    // sorting: sizes span 1..=6, so stable size-bucket passes are
    // cheaper than a (heap-allocating) stable sort. Filter
    // dominated/duplicate cuts; `dominates` covers equality, and
    // its signature-subset prefilter rejects most candidates in
    // one AND.
    'fill: for size in 1..=k {
        for c in merged.iter() {
            if c.size() != size {
                continue;
            }
            if list.len() >= max_cuts {
                break 'fill;
            }
            if list.iter().any(|kept| kept.dominates(c)) {
                continue;
            }
            list.push(*c);
        }
    }
}

/// One open [`CutDb`] edit session: `(node, old span, old version)`
/// records plus the arena, span-table and live sizes at
/// [`CutDb::begin_edit`].
#[derive(Clone, Debug)]
struct EditJournal {
    old_spans: Vec<(NodeId, (u32, u32), u64)>,
    arena_len: usize,
    span_len: usize,
    live: usize,
}

/// An incrementally maintained per-node cut database.
///
/// [`enumerate_cuts`] recomputes every node's cut list from scratch —
/// the right tool when the whole graph changed. The SA loop's
/// in-place moves instead edit a handful of nodes, and a single
/// substitution can only change the cut sets of the edited nodes and
/// their transitive fanout. `CutDb` keeps the full per-node cut table
/// (same arena + span layout as [`CutSet`]) alive across edits:
///
/// * [`CutDb::build`] — full enumeration (cost of one
///   [`enumerate_cuts`]);
/// * [`CutDb::sync_appends`] — absorbs appended nodes only;
/// * [`CutDb::invalidate`] — seeded by a [`DirtyRegion`]'s
///   [`edited`](DirtyRegion::edited) set, recomputes dirty nodes in
///   ascending id order and propagates to a node's consumers **only
///   when its recomputed list actually changed** (equality cutoff),
///   so the cost tracks the true footprint of the edit;
/// * [`CutDb::begin_edit`] / [`CutDb::commit_edit`] /
///   [`CutDb::rollback_edit`] — bracket the updates belonging to one
///   tentative [`Transaction`](crate::incremental::Transaction), so
///   a rejected SA move also rolls the cut table back exactly.
///
/// Updated lists are appended to the arena and the node's span is
/// redirected; the stale region is garbage that [`CutDb::commit_edit`]
/// compacts away once it outweighs the live cuts. The maintained
/// table is **bit-identical** to a fresh enumeration after any edit
/// sequence ([`CutDb::assert_matches_fresh`] is the oracle check the
/// differential suite runs after every step) — which is what lets the
/// rewriting engine and the mapper consume cached cuts without any
/// behavioral difference from re-enumeration.
///
/// # Version counters
///
/// Every node carries a **cut-list version** ([`CutDb::version`]):
/// an opaque `u64` that changes *exactly* when the node's stored cut
/// list changes, drawn from a monotone counter whose values are never
/// reused. The contract downstream caches (the mapper's per-row DP
/// cutoff) key on:
///
/// * [`CutDb::build`] assigns every node a fresh value (the whole
///   table was rewritten);
/// * [`CutDb::sync_appends`] assigns fresh values to the appended
///   nodes only;
/// * [`CutDb::invalidate`] bumps a node's version iff the recomputed
///   list differs from the stored one (the equality cutoff that stops
///   propagation also leaves the version untouched);
/// * [`CutDb::rollback_edit`] restores the versions recorded since
///   [`CutDb::begin_edit`] **exactly** — and because bumped values
///   are never reused, a consumer that snapshotted a mid-edit version
///   still observes `snapshot != version` after the rollback, while a
///   consumer that never saw the rolled-back edit observes equality
///   (the list really is bit-identical to what it cached).
///
/// Version equality therefore *proves* the list is unchanged since
/// the compared snapshot; inequality means "maybe changed" (a
/// rollback restores the list and the version together, so no false
/// equalities exist in either direction). Snapshots must be keyed to
/// a database instance ([`CutDb::instance_id`]): clones evolve
/// independently and get a fresh identity.
#[derive(Debug)]
pub struct CutDb {
    k: usize,
    max_cuts: usize,
    /// Process-unique identity for version snapshots (fresh per clone,
    /// never reused — see the module docs on version counters).
    instance_id: u64,
    arena: Vec<Cut>,
    span: Vec<(u32, u32)>,
    /// Per-node cut-list versions (see the type docs).
    versions: Vec<u64>,
    /// Monotone version source; never decremented, not rolled back.
    vgen: u64,
    /// Total cuts across live spans (arena occupancy heuristic).
    live: usize,
    /// Open edit session, `None` outside one.
    journal: Option<EditJournal>,
    // Scratch.
    merged: Vec<Cut>,
    list: Vec<Cut>,
    heap: BinaryHeap<std::cmp::Reverse<NodeId>>,
    queued: Vec<bool>,
}

fn next_cutdb_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

impl Clone for CutDb {
    /// Clones the full table but under a **fresh**
    /// [`CutDb::instance_id`]: the clone evolves independently, so
    /// version snapshots taken against the original must not match it.
    fn clone(&self) -> Self {
        CutDb {
            instance_id: next_cutdb_id(),
            k: self.k,
            max_cuts: self.max_cuts,
            arena: self.arena.clone(),
            span: self.span.clone(),
            versions: self.versions.clone(),
            vgen: self.vgen,
            live: self.live,
            journal: self.journal.clone(),
            merged: self.merged.clone(),
            list: self.list.clone(),
            heap: self.heap.clone(),
            queued: self.queued.clone(),
        }
    }

    /// [`Clone::clone`] into an existing database, reusing its arena,
    /// span, and version allocations (once the destination has grown
    /// to the source's size this copies element-for-element with no
    /// heap traffic).
    /// Semantics match `clone()`: the destination takes a **fresh**
    /// [`CutDb::instance_id`], so version snapshots taken against
    /// either database never cross-match.
    fn clone_from(&mut self, src: &Self) {
        self.instance_id = next_cutdb_id();
        self.k = src.k;
        self.max_cuts = src.max_cuts;
        self.arena.clone_from(&src.arena);
        self.span.clone_from(&src.span);
        self.versions.clone_from(&src.versions);
        self.vgen = src.vgen;
        self.live = src.live;
        self.journal.clone_from(&src.journal);
        self.merged.clone_from(&src.merged);
        self.list.clone_from(&src.list);
        self.heap.clone_from(&src.heap);
        self.queued.clone_from(&src.queued);
    }
}

impl CutDb {
    /// An empty database enumerating `k`-feasible cuts, up to
    /// `max_cuts` per node.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=6`.
    pub fn new(k: usize, max_cuts: usize) -> Self {
        assert!(
            (1..=MAX_CUT_SIZE).contains(&k),
            "cut size k must be in 1..=6"
        );
        CutDb {
            k,
            max_cuts,
            instance_id: next_cutdb_id(),
            arena: Vec::new(),
            span: Vec::new(),
            versions: Vec::new(),
            vgen: 0,
            live: 0,
            journal: None,
            merged: Vec::new(),
            list: Vec::new(),
            heap: BinaryHeap::new(),
            queued: Vec::new(),
        }
    }

    /// Process-unique identity of this database (fresh per
    /// [`CutDb::new`] and per clone). Version snapshots are only
    /// meaningful against the instance they were taken from.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The cut-list version of node `id` (see the type docs): equal
    /// to a previously snapshotted value iff the node's cut list is
    /// bit-identical to the snapshotted one.
    #[inline]
    pub fn version(&self, id: NodeId) -> u64 {
        self.versions[id as usize]
    }

    /// Draws a fresh, never-reused version value.
    fn bump(&mut self) -> u64 {
        self.vgen += 1;
        self.vgen
    }

    /// Pre-sizes the per-node tables and the cut arena for a graph of
    /// `nodes` nodes, so a following [`CutDb::build`] (or
    /// `clone_from` of a database that large) performs no incremental
    /// regrowth. Capacity only — contents are untouched.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        let grow = |cap: usize, len: usize| cap.saturating_sub(len);
        self.span.reserve(grow(nodes, self.span.len()));
        self.versions.reserve(grow(nodes, self.versions.len()));
        self.queued.reserve(grow(nodes, self.queued.len()));
        let cuts = nodes.saturating_mul(self.max_cuts.min(8) + 1);
        self.arena.reserve(grow(cuts, self.arena.len()));
    }

    /// The cut-size bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-node cut-count bound.
    pub fn max_cuts(&self) -> usize {
        self.max_cuts
    }

    /// Number of nodes currently tracked.
    pub fn num_nodes(&self) -> usize {
        self.span.len()
    }

    /// The cuts of node `id` (trivial cut included, first).
    pub fn cuts(&self, id: NodeId) -> &[Cut] {
        let (s, e) = self.span[id as usize];
        &self.arena[s as usize..e as usize]
    }

    /// Full (re-)enumeration for `aig`, reusing the arena.
    ///
    /// # Panics
    ///
    /// Panics inside an open edit session.
    pub fn build(&mut self, aig: &Aig) {
        assert!(self.journal.is_none(), "build() inside an edit session");
        let n = aig.num_nodes();
        self.arena.clear();
        self.arena
            .reserve(n.saturating_mul(self.max_cuts.min(8) + 1));
        self.span.clear();
        self.span.resize(n, (0, 0));
        // The whole table is rewritten: every node gets a fresh
        // version, so any snapshot taken before the rebuild mismatches.
        let v = self.bump();
        self.versions.clear();
        self.versions.resize(n, v);
        self.queued.clear();
        self.queued.resize(n, false);
        self.push_list_for(0, &[Cut::from_leaves(&[], 0)]);
        for &pi in aig.inputs() {
            self.push_list_for(pi, &[Cut::trivial(pi)]);
        }
        let mut list = std::mem::take(&mut self.list);
        let mut merged = std::mem::take(&mut self.merged);
        let (f0s, f1s) = aig.fanin_arrays();
        aig.for_each_and_topo(|id| {
            node_cut_list(
                f0s[id as usize],
                f1s[id as usize],
                id,
                self.k,
                self.max_cuts,
                &self.arena,
                &self.span,
                &mut merged,
                &mut list,
            );
            self.push_list_for(id, &list);
        });
        self.list = list;
        self.merged = merged;
        self.live = self.arena.len();
    }

    /// Absorbs nodes appended to the same graph since the last
    /// `build`/`sync_appends` (cost proportional to the appended
    /// suffix).
    ///
    /// # Panics
    ///
    /// Panics if the graph shrank.
    pub fn sync_appends(&mut self, aig: &Aig) {
        let old_n = self.span.len();
        let n = aig.num_nodes();
        assert!(
            n >= old_n,
            "sync_appends() only supports append-only growth ({old_n} -> {n} nodes)"
        );
        self.span.resize(n, (0, 0));
        let v = self.bump();
        self.versions.resize(n, v);
        self.queued.resize(n, false);
        let mut list = std::mem::take(&mut self.list);
        let mut merged = std::mem::take(&mut self.merged);
        let (f0s, f1s) = aig.fanin_arrays();
        for id in old_n as NodeId..n as NodeId {
            if aig.is_and(id) {
                node_cut_list(
                    f0s[id as usize],
                    f1s[id as usize],
                    id,
                    self.k,
                    self.max_cuts,
                    &self.arena,
                    &self.span,
                    &mut merged,
                    &mut list,
                );
                self.push_list_for(id, &list);
                self.live += list.len();
            } else {
                self.push_list_for(id, &[Cut::trivial(id)]);
                self.live += 1;
            }
        }
        self.list = list;
        self.merged = merged;
    }

    /// Recomputes the cut lists invalidated by an in-place edit.
    ///
    /// `dirty` is the report of the edit
    /// ([`IncrementalAnalysis::substitute`] or accumulated across a
    /// transaction step); its [`edited`](DirtyRegion::edited) nodes
    /// seed an ascending worklist. Each popped node's list is
    /// recomputed from its (current) fanin lists; if the result
    /// differs from the stored list, the node's consumers (read from
    /// `inc`, which must be live for the same graph) are enqueued —
    /// if it is identical, propagation stops there (and the node's
    /// [version](CutDb::version) stays put; changed lists get a fresh
    /// version). After the call the table equals a fresh enumeration
    /// of the current graph.
    ///
    /// [`IncrementalAnalysis::substitute`]:
    /// crate::incremental::IncrementalAnalysis::substitute
    ///
    /// # Panics
    ///
    /// Panics if the database tracks a different node count than
    /// `aig` — a desynced database would read fanin cut lists through
    /// stale spans and corrupt the arena, so the mismatch is rejected
    /// in **all** build profiles (not just under `debug_assertions`).
    /// Call [`CutDb::build`] or [`CutDb::sync_appends`] first.
    pub fn invalidate(
        &mut self,
        aig: &Aig,
        inc: &crate::incremental::IncrementalAnalysis,
        dirty: &crate::incremental::DirtyRegion,
    ) {
        assert_eq!(
            self.span.len(),
            aig.num_nodes(),
            "cut database out of sync with the graph: call build() or sync_appends() first"
        );
        for &seed in dirty.edited() {
            self.enqueue(seed);
        }
        let mut list = std::mem::take(&mut self.list);
        let mut merged = std::mem::take(&mut self.merged);
        let (f0s, f1s) = aig.fanin_arrays();
        while let Some(std::cmp::Reverse(id)) = self.heap.pop() {
            self.queued[id as usize] = false;
            node_cut_list(
                f0s[id as usize],
                f1s[id as usize],
                id,
                self.k,
                self.max_cuts,
                &self.arena,
                &self.span,
                &mut merged,
                &mut list,
            );
            if self.cuts(id) == &list[..] {
                continue; // equality cutoff: consumers see no change
            }
            let old = self.span[id as usize];
            let old_version = self.versions[id as usize];
            if let Some(journal) = &mut self.journal {
                journal.old_spans.push((id, old, old_version));
            }
            self.live = self.live + list.len() - (old.1 - old.0) as usize;
            self.versions[id as usize] = self.bump();
            self.push_list_for(id, &list);
            for &c in inc.consumers(id) {
                self.enqueue(c);
            }
        }
        self.list = list;
        self.merged = merged;
    }

    /// Opens an edit session: span updates are journaled so
    /// [`CutDb::rollback_edit`] can revert them exactly.
    ///
    /// # Panics
    ///
    /// Panics if a session is already open.
    pub fn begin_edit(&mut self) {
        assert!(self.journal.is_none(), "edit session already open");
        self.journal = Some(EditJournal {
            old_spans: Vec::new(),
            arena_len: self.arena.len(),
            span_len: self.span.len(),
            live: self.live,
        });
    }

    /// Closes the edit session keeping every update, and compacts the
    /// arena when stale spans outweigh live cuts.
    ///
    /// # Panics
    ///
    /// Panics without an open session.
    pub fn commit_edit(&mut self) {
        assert!(self.journal.take().is_some(), "no edit session open");
        if self.arena.len() > self.live.saturating_mul(4) {
            self.compact();
        }
    }

    /// Closes the edit session reverting every update since
    /// [`CutDb::begin_edit`]: spans, appended suffix, **and the
    /// version counters** are restored exactly (the monotone version
    /// source itself is not rewound, so rolled-back values are never
    /// handed out again — see the type docs).
    ///
    /// # Panics
    ///
    /// Panics without an open session.
    pub fn rollback_edit(&mut self) {
        let journal = self.journal.take().expect("no edit session open");
        self.span.truncate(journal.span_len);
        self.versions.truncate(journal.span_len);
        self.queued.truncate(journal.span_len);
        for &(id, old, old_version) in journal.old_spans.iter().rev() {
            if (id as usize) < journal.span_len {
                self.span[id as usize] = old;
                self.versions[id as usize] = old_version;
            }
            // Entries for nodes appended within this session (an
            // invalidate can change a mid-session append's list) were
            // dropped wholesale by the truncation above.
        }
        self.arena.truncate(journal.arena_len);
        self.live = journal.live;
    }

    /// Rewrites the arena without the stale spans (relative order of
    /// live spans is irrelevant; lookups go through `span`).
    fn compact(&mut self) {
        let mut fresh: Vec<Cut> = Vec::with_capacity(self.live);
        for sp in self.span.iter_mut() {
            let (s, e) = *sp;
            let ns = fresh.len() as u32;
            fresh.extend_from_slice(&self.arena[s as usize..e as usize]);
            *sp = (ns, fresh.len() as u32);
        }
        self.arena = fresh;
        debug_assert_eq!(self.arena.len(), self.live);
    }

    fn push_list_for(&mut self, id: NodeId, cuts: &[Cut]) {
        let s = self.arena.len() as u32;
        self.arena.extend_from_slice(cuts);
        self.span[id as usize] = (s, self.arena.len() as u32);
    }

    fn enqueue(&mut self, id: NodeId) {
        if !self.queued[id as usize] {
            self.queued[id as usize] = true;
            self.heap.push(std::cmp::Reverse(id));
        }
    }

    /// Asserts every node's list equals a fresh [`enumerate_cuts`] of
    /// the current graph (differential-testing oracle; full-cost).
    ///
    /// # Panics
    ///
    /// Panics (with the node id) on the first mismatch.
    pub fn assert_matches_fresh(&self, aig: &Aig) {
        assert_eq!(self.span.len(), aig.num_nodes(), "node count diverged");
        let fresh = enumerate_cuts(aig, self.k, self.max_cuts);
        for id in aig.node_ids() {
            assert_eq!(
                self.cuts(id),
                fresh.cuts(id),
                "cut db diverged from fresh enumeration at node {id}"
            );
        }
    }
}

/// The seed's per-minterm truth-table expansion, retained as the
/// oracle for the butterfly [`expand_tt`] and so the naive reference
/// enumeration measures the full pre-optimization cost profile.
fn expand_tt_minterm(tt: u64, from: &[NodeId], to: &[NodeId]) -> u64 {
    let mut pos = [0usize; MAX_CUT_SIZE];
    let mut j = 0;
    for (i, &t) in to.iter().enumerate() {
        if j < from.len() && from[j] == t {
            pos[j] = i;
            j += 1;
        }
    }
    let bits = 1usize << to.len();
    let mut out = 0u64;
    for m in 0..bits {
        let mut src = 0usize;
        for (jj, &p) in pos.iter().enumerate().take(from.len()) {
            src |= ((m >> p) & 1) << jj;
        }
        out |= ((tt >> src) & 1) << m;
    }
    out
}

/// The pre-optimization reference implementation: heap-allocated leaf
/// vectors, no signatures, O(n²) full-leaf dominance scans.
///
/// Kept verbatim (modulo the [`Cut`] constructors) as the oracle for
/// the parity tests and as the baseline the `cut_enum` component
/// benchmark measures [`enumerate_cuts`] against.
///
/// # Panics
///
/// Panics if `k > 6` or `k == 0`.
pub fn enumerate_cuts_naive(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    assert!(
        (1..=MAX_CUT_SIZE).contains(&k),
        "cut size k must be in 1..=6"
    );
    fn merge_leaves(a: &[NodeId], b: &[NodeId], k: usize) -> Option<Vec<NodeId>> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if out.len() == k {
                return None;
            }
            out.push(next);
        }
        Some(out)
    }
    fn dominates(a: &[NodeId], b: &[NodeId]) -> bool {
        if a.len() > b.len() {
            return false;
        }
        let mut j = 0;
        for &l in a {
            while j < b.len() && b[j] < l {
                j += 1;
            }
            if j == b.len() || b[j] != l {
                return false;
            }
        }
        true
    }
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    cuts[0].push(Cut::from_leaves(&[], 0));
    for &pi in aig.inputs() {
        cuts[pi as usize].push(Cut::trivial(pi));
    }
    for id in aig.and_ids() {
        let [f0, f1] = aig.fanins(id);
        let mut list: Vec<Cut> = vec![Cut::trivial(id)];
        let c0s = &cuts[f0.var() as usize];
        let c1s = &cuts[f1.var() as usize];
        let mut merged: Vec<(Vec<NodeId>, u64)> = Vec::new();
        for c0 in c0s {
            for c1 in c1s {
                let Some(leaves) = merge_leaves(c0.leaves(), c1.leaves(), k) else {
                    continue;
                };
                let t0 = expand_tt_minterm(c0.masked_tt(), c0.leaves(), &leaves);
                let t1 = expand_tt_minterm(c1.masked_tt(), c1.leaves(), &leaves);
                let mask = width_mask(leaves.len());
                let t0 = if f0.is_complement() { !t0 & mask } else { t0 };
                let t1 = if f1.is_complement() { !t1 & mask } else { t1 };
                merged.push((leaves, t0 & t1));
            }
        }
        merged.sort_by_key(|(leaves, _)| leaves.len());
        for (leaves, tt) in merged {
            if list.len() >= max_cuts {
                break;
            }
            if list
                .iter()
                .any(|kept| kept.leaves() == leaves || dominates(kept.leaves(), &leaves))
            {
                continue;
            }
            list.push(Cut::from_leaves(&leaves, tt));
        }
        cuts[id as usize] = list;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTable;
    use crate::Lit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn expand_identity() {
        let leaves = [3u32, 7, 9];
        assert_eq!(expand_tt(0b1010_1010, &leaves, &leaves), 0b1010_1010);
    }

    #[test]
    fn expand_inserts_var() {
        // f = x0 over {5}; expand to {2, 5}: x0 becomes var 1.
        let t = expand_tt(0b10, &[5], &[2, 5]);
        assert_eq!(t, 0b1100);
    }

    /// The butterfly expansion must agree with the retained
    /// per-minterm reference on random subsets and tables, at every
    /// width.
    #[test]
    fn butterfly_expand_matches_minterm_reference() {
        let reference = expand_tt_minterm;
        let mut rng = SmallRng::seed_from_u64(777);
        for _ in 0..5000 {
            let to_len = rng.gen_range(1usize..7);
            let mut to: Vec<NodeId> = Vec::new();
            while to.len() < to_len {
                let v = rng.gen_range(1u32..40);
                if !to.contains(&v) {
                    to.push(v);
                }
            }
            to.sort_unstable();
            let from: Vec<NodeId> = to.iter().copied().filter(|_| rng.gen::<bool>()).collect();
            if from.is_empty() {
                continue;
            }
            let tt = rng.gen::<u64>() & ((1u64 << (1 << from.len()).min(63)) - 1);
            assert_eq!(
                expand_tt(tt, &from, &to),
                reference(tt, &from, &to),
                "tt {tt:#x} from {from:?} to {to:?}"
            );
        }
    }

    #[test]
    fn dominance() {
        let small = Cut::from_leaves(&[1, 3], 0);
        let big = Cut::from_leaves(&[1, 2, 3], 0);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small), "equal sets dominate");
    }

    #[test]
    fn construction_masks_tt_and_builds_signature() {
        let c = Cut::from_leaves(&[2, 5], u64::MAX);
        assert_eq!(c.tt(), 0b1111, "tt masked to 2^2 bits at construction");
        assert_eq!(c.masked_tt(), c.tt());
        assert_eq!(c.signature(), (1 << 2) | (1 << 5));
        // Signature wraps modulo 64.
        let c = Cut::from_leaves(&[64, 129], 0);
        assert_eq!(c.signature(), (1 << 0) | (1 << 1));
    }

    /// The signature prefilter may only produce false positives
    /// (claimed-maybe-subset that is not), never false negatives:
    /// whenever the exact scan says subset, the signatures must agree.
    #[test]
    fn signature_subset_agrees_with_exact_dominates() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _ in 0..20_000 {
            let mut mk = |max_len: usize| {
                let len = rng.gen_range(0..max_len + 1);
                let mut ls: Vec<NodeId> = Vec::new();
                while ls.len() < len {
                    let l = rng.gen_range(1u32..90);
                    if !ls.contains(&l) {
                        ls.push(l);
                    }
                }
                ls.sort_unstable();
                Cut::from_leaves(&ls, 0)
            };
            let a = mk(6);
            let b = mk(6);
            let exact = a.len <= b.len && a.subset_scan(&b);
            assert_eq!(
                a.dominates(&b),
                exact,
                "a={:?} b={:?}",
                a.leaves(),
                b.leaves()
            );
            if exact {
                assert_eq!(
                    a.signature() & !b.signature(),
                    0,
                    "prefilter must never reject a true subset"
                );
            }
        }
    }

    /// The optimized enumeration must keep exactly the cut sets the
    /// naive reference keeps — same cuts, same order, same functions.
    #[test]
    fn parity_with_naive_reference() {
        for seed in 0..12 {
            let g = crate::test_support::random_aig(seed, 8, 120, 4);
            for (k, max_cuts) in [(4, 8), (6, 5), (3, 12), (2, 4)] {
                let fast = enumerate_cuts(&g, k, max_cuts);
                let naive = enumerate_cuts_naive(&g, k, max_cuts);
                for id in g.node_ids() {
                    assert_eq!(
                        fast.cuts(id),
                        &naive[id as usize][..],
                        "seed {seed} node {id} k {k}"
                    );
                }
            }
        }
    }

    /// Cut truth tables must agree with simulation: for every cut of
    /// every node, evaluating the cut function on the leaves'
    /// simulated values must reproduce the node's simulated value.
    #[test]
    fn cut_functions_match_simulation() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let d = g.add_input();
        let ab = g.and(a, !b);
        let cd = g.or(c, d);
        let f = g.xor(ab, cd);
        let h = g.mux(a, f, cd);
        g.add_output(h, None::<&str>);
        let sim = SimTable::exhaustive(&g).expect("4 inputs");
        let cuts = enumerate_cuts(&g, 4, 12);
        for id in g.and_ids() {
            for cut in cuts.cuts(id) {
                let nbits = 1usize << g.num_inputs();
                for m in 0..nbits {
                    // Build the cut minterm from leaf values.
                    let mut idx = 0usize;
                    for (j, &leaf) in cut.leaves().iter().enumerate() {
                        if sim.node_bit(leaf, m) {
                            idx |= 1 << j;
                        }
                    }
                    let cut_val = cut.masked_tt() >> idx & 1 == 1;
                    assert_eq!(
                        cut_val,
                        sim.node_bit(id, m),
                        "node {id} cut {:?} minterm {m}",
                        cut.leaves()
                    );
                }
            }
        }
    }

    /// Random edit walks: after every substitution + invalidate (and
    /// every rolled-back tentative edit) the database must equal a
    /// fresh enumeration bit for bit.
    #[test]
    fn cutdb_tracks_fresh_enumeration_through_edits() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0xCDB ^ seed);
            let mut g = crate::test_support::random_aig(seed, 7, 80, 3);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = CutDb::new(4, 8);
            db.build(&g);
            db.assert_matches_fresh(&g);

            for _ in 0..12 {
                let commit = rng.gen::<bool>();
                db.begin_edit();
                let mut txn = Transaction::begin(&mut g, &mut inc);
                for _ in 0..rng.gen_range(1..4) {
                    let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                    let node = ands[rng.gen_range(0..ands.len())];
                    let with = crate::Lit::new(rng.gen_range(0..node), rng.gen());
                    txn.substitute(node, with);
                    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
                }
                if commit {
                    txn.commit();
                    db.commit_edit();
                } else {
                    txn.rollback();
                    db.rollback_edit();
                }
                db.assert_matches_fresh(&g);
            }
        }
    }

    /// Appends are absorbed incrementally, and compaction (forced by
    /// many edits) preserves the table.
    #[test]
    fn cutdb_sync_appends_and_compaction() {
        use crate::incremental::IncrementalAnalysis;
        let mut rng = SmallRng::seed_from_u64(99);
        let mut g = crate::test_support::random_aig(3, 6, 50, 2);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        for round in 0..30 {
            // Grow a little...
            let n = g.num_nodes() as NodeId;
            let a = Lit::new(rng.gen_range(0..n), rng.gen());
            let b = Lit::new(rng.gen_range(0..n), rng.gen());
            g.and(a, b);
            inc.sync(&g);
            db.sync_appends(&g);
            // ...then churn one substitution, committing every time so
            // stale spans accumulate and compaction eventually fires.
            let ands: Vec<NodeId> = g.and_ids().collect();
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            db.begin_edit();
            inc.substitute(&mut g, node, with);
            db.invalidate(&g, &inc, inc.last_dirty());
            db.commit_edit();
            db.assert_matches_fresh(&g);
            let _ = round;
        }
        assert!(
            db.arena.len() <= db.live.saturating_mul(4),
            "commit_edit must keep the arena compact"
        );
    }

    #[test]
    #[should_panic(expected = "edit session")]
    fn cutdb_rejects_unpaired_commit() {
        let mut db = CutDb::new(4, 8);
        db.commit_edit();
    }

    /// A node appended *inside* an edit session whose list is then
    /// changed by an `invalidate` in the same session (its journal
    /// entry indexes past the pre-edit length) must roll back
    /// cleanly: the truncation drops the appended suffix, and the
    /// journaled entry for it is skipped rather than written out of
    /// bounds.
    #[test]
    fn cutdb_rollback_with_mid_session_appends() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        let mut g = crate::test_support::random_aig(5, 6, 40, 2);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let x = g
            .and_ids()
            .find(|&id| !inc.consumers(id).is_empty())
            .expect("an AND with consumers");
        let last = g.num_nodes() as NodeId - 1;

        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let before = txn.aig().num_nodes();
        let z = txn.and(Lit::new(x, false), Lit::new(last, true));
        assert!(
            txn.aig().num_nodes() > before,
            "appended node must be fresh (z = {z:?})"
        );
        db.sync_appends(txn.aig());
        // Rewiring x's readers changes z's cut list too, journaling a
        // span beyond the pre-edit length.
        txn.substitute(x, Lit::new(0, true));
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        txn.rollback();
        db.rollback_edit();
        db.assert_matches_fresh(&g);
    }

    /// A desynced database must be rejected in every build profile —
    /// silently reading fanin lists through stale spans would corrupt
    /// the arena (this used to be a `debug_assert`).
    #[test]
    #[should_panic(expected = "out of sync")]
    fn cutdb_invalidate_rejects_desynced_graph() {
        use crate::incremental::IncrementalAnalysis;
        let mut g = crate::test_support::random_aig(1, 5, 30, 2);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        // Grow the graph behind the database's back.
        let a = Lit::new(g.inputs()[0], false);
        let b = Lit::new(*g.inputs().last().unwrap(), true);
        g.and(a, b);
        let inc = IncrementalAnalysis::new(&g);
        db.invalidate(&g, &inc, &crate::incremental::DirtyRegion::default());
    }

    /// Version-counter contract: versions change exactly when a
    /// node's list changes, build/sync_appends hand out fresh values,
    /// rollback restores values exactly, and a mid-edit bump is never
    /// equal to the restored value (monotone source).
    #[test]
    fn cutdb_version_counters_track_list_changes() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        let mut g = crate::test_support::random_aig(11, 6, 60, 3);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let baseline: Vec<u64> = g.node_ids().map(|id| db.version(id)).collect();

        // Rebuild for the same graph: lists identical, but versions
        // must still move (the whole table was rewritten; equality
        // may only certify "unchanged since the snapshot *I* took").
        db.build(&g);
        for id in g.node_ids() {
            assert_ne!(db.version(id), baseline[id as usize], "node {id}");
        }
        let before: Vec<u64> = g.node_ids().map(|id| db.version(id)).collect();

        // A committed substitution: exactly the nodes whose lists
        // changed get new versions.
        let pre_lists: Vec<Vec<Cut>> = g.node_ids().map(|id| db.cuts(id).to_vec()).collect();
        let node = g
            .and_ids()
            .find(|&id| !inc.consumers(id).is_empty())
            .expect("some AND has consumers");
        let with = Lit::new(g.inputs()[0], false);
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        txn.commit();
        db.commit_edit();
        let mut changed = 0;
        for id in g.node_ids() {
            let bumped = db.version(id) != before[id as usize];
            let list_changed = db.cuts(id) != &pre_lists[id as usize][..];
            assert_eq!(
                bumped, list_changed,
                "version must move iff the list changed (node {id})"
            );
            changed += usize::from(bumped);
        }
        assert!(changed > 0, "the substitution must have changed lists");

        // A rolled-back edit restores versions exactly, and the
        // mid-edit values never reappear.
        let pre: Vec<u64> = g.node_ids().map(|id| db.version(id)).collect();
        let node = g
            .and_ids()
            .filter(|&id| !inc.consumers(id).is_empty())
            .nth(3)
            .expect("several ANDs have consumers");
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, !with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        let mid: Vec<u64> = txn.aig().node_ids().map(|id| db.version(id)).collect();
        txn.rollback();
        db.rollback_edit();
        db.assert_matches_fresh(&g);
        for id in g.node_ids() {
            let vi = id as usize;
            assert_eq!(db.version(id), pre[vi], "rollback must restore versions");
            if mid[vi] != pre[vi] {
                // A consumer that snapshotted the mid-edit value
                // must still see a mismatch after the rollback.
                assert_ne!(db.version(id), mid[vi], "mid-edit value reused");
            }
        }

        // Clones get a fresh identity.
        let clone = db.clone();
        assert_ne!(clone.instance_id(), db.instance_id());
    }

    #[test]
    fn trivial_cut_first() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        let cuts = enumerate_cuts(&g, 4, 8);
        assert_eq!(cuts.cuts(f.var())[0].leaves(), &[f.var()]);
        assert_eq!(cuts.k(), 4);
        assert!(cuts.num_cuts() >= 4);
    }
}
