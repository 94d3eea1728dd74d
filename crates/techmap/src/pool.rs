//! Owner-supplied pool of graph-sized mapping buffers.
//!
//! The incremental ground-truth evaluator holds one [`MapContext`]
//! and one [`MappedDesign`] for its lifetime, so *within* a run the
//! mapping stack is allocation-free on the steady state. Across
//! evaluator lifetimes, though — `optimize_seeds` restarts, datagen
//! sweeps, speculative forks — every fresh evaluator used to regrow
//! all of its graph-shaped tables from zero, which on a million-node
//! design is tens of reallocation storms per experiment.
//!
//! [`MapPool`] extends the warm-buffer pattern one level up: the
//! *owner* of the experiment (the SA `EvalContext`, a bench harness)
//! holds the pool, evaluators check their context/design out at
//! construction and return them at teardown, and the buffers' grown
//! capacity survives. `reserve_nodes` additionally records a floor so
//! even a pool miss hands out pre-sized buffers.
//!
//! Contents never leak between users: every table a [`MapContext`] or
//! [`MappedDesign`] keeps is fully re-initialized (or validity-gated
//! by fingerprints/instance ids) on first use against a new graph —
//! the same argument that makes `map_with` parity hold on reused
//! contexts. Only capacity persists.

use crate::design::MappedDesign;
use crate::mapper::MapContext;

/// A pool of reusable [`MapContext`]s and [`MappedDesign`]s (see the
/// module docs).
#[derive(Debug, Default)]
pub struct MapPool {
    contexts: Vec<MapContext>,
    designs: Vec<MappedDesign>,
    /// Pre-size floor applied to fresh checkouts: `(nodes, max_cuts)`.
    floor: Option<(usize, usize)>,
    /// Checkouts that missed the pool and built fresh buffers.
    misses: usize,
}

impl MapPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a pre-size floor: every pooled and every future
    /// checked-out [`MapContext`]/[`MappedDesign`] is reserved for a
    /// graph of `nodes` nodes at `max_cuts` cuts per node. Floors
    /// only ratchet up.
    pub fn reserve_nodes(&mut self, nodes: usize, max_cuts: usize) {
        let (n, m) = self.floor.unwrap_or((0, 0));
        let floor = (n.max(nodes), m.max(max_cuts));
        self.floor = Some(floor);
        for ctx in &mut self.contexts {
            ctx.reserve_nodes(floor.0, floor.1);
        }
        for d in &mut self.designs {
            d.reserve_nodes(floor.0);
        }
    }

    /// Checks a context out of the pool (fresh on a miss), reserved
    /// to the recorded floor.
    pub fn take_context(&mut self) -> MapContext {
        match self.contexts.pop() {
            Some(ctx) => ctx,
            None => {
                self.misses += 1;
                let mut ctx = MapContext::new();
                if let Some((n, m)) = self.floor {
                    ctx.reserve_nodes(n, m);
                }
                ctx
            }
        }
    }

    /// Returns a context to the pool for the next checkout.
    pub fn put_context(&mut self, mut ctx: MapContext) {
        ctx.disarm_journal();
        self.contexts.push(ctx);
    }

    /// Checks a design out of the pool (fresh on a miss), reserved to
    /// the recorded floor.
    pub fn take_design(&mut self) -> MappedDesign {
        match self.designs.pop() {
            Some(d) => d,
            None => {
                self.misses += 1;
                let mut d = MappedDesign::new();
                if let Some((n, _)) = self.floor {
                    d.reserve_nodes(n);
                }
                d
            }
        }
    }

    /// Returns a design to the pool. The design is invalidated — the
    /// next user's first sync always rebuilds, so no cover state can
    /// leak across users.
    pub fn put_design(&mut self, mut d: MappedDesign) {
        d.invalidate();
        self.designs.push(d);
    }

    /// Checkouts that missed the pool and had to build fresh buffers
    /// (reuse does not count). Flat across repeated runs sharing a
    /// pool — the reuse contract the pooling tests assert.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Contexts and designs currently parked in the pool.
    pub fn parked(&self) -> (usize, usize) {
        (self.contexts.len(), self.designs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_reuses_buffers() {
        let mut pool = MapPool::new();
        assert_eq!(pool.parked(), (0, 0));
        let ctx = pool.take_context();
        let d = pool.take_design();
        assert_eq!(pool.misses(), 2);
        pool.put_context(ctx);
        pool.put_design(d);
        assert_eq!(pool.parked(), (1, 1));
        let _ctx = pool.take_context();
        let _d = pool.take_design();
        assert_eq!(pool.misses(), 2, "round trips must not rebuild");
    }

    #[test]
    fn floor_applies_to_fresh_and_parked() {
        let mut pool = MapPool::new();
        pool.reserve_nodes(1000, 8);
        let ctx = pool.take_context();
        pool.put_context(ctx);
        // Ratchet: a smaller request must not lower the floor.
        pool.reserve_nodes(10, 2);
        assert_eq!(pool.floor, Some((1000, 8)));
        assert_eq!(pool.misses(), 1);
    }
}
