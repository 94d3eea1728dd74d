//! Differential suite for the footprint-bounded incremental mapper:
//! [`Mapper::map_incremental`] / [`Mapper::sync_design`] with the
//! per-row DP cutoff (CutDb version counters + leaf bit-equality)
//! must produce netlists **bit-identical** to `Mapper::map` across
//! random in-place edit walks with rollbacks — on random graphs and
//! on every benchgen design — while recomputing only rows inside the
//! edit's footprint. The cutoff-off context (the old watermark
//! recompute) runs alongside as a second oracle.

use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use cells::sky130ish;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use techmap::{MapContext, MapError, MapOptions, Mapper};

mod common;
use common::random_aig_with;

/// Deep netlist identity: the derived `Debug` form covers drivers,
/// gates (cells + pin wiring), inputs, and output ports.
fn assert_same_netlist(a: &techmap::Netlist, b: &techmap::Netlist, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

/// Asserts two mapping outcomes (netlist or error) are identical.
fn assert_same_outcome(
    incr: Result<techmap::Netlist, MapError>,
    fresh: Result<techmap::Netlist, MapError>,
    what: &str,
) {
    match (incr, fresh) {
        (Ok(a), Ok(b)) => assert_same_netlist(&a, &b, what),
        (Err(MapError::NoMatch { node: a }), Err(MapError::NoMatch { node: b })) => {
            assert_eq!(a, b, "{what}: error node diverged");
        }
        (a, b) => panic!("{what}: outcome diverged: {a:?} vs {b:?}"),
    }
}

/// Random in-place edit walks with rollbacks, mapping mid-edit and
/// after commit/rollback, with three mappers racing: fresh `map`
/// (oracle), cutoff-on incremental, cutoff-off incremental (the old
/// watermark recompute). All three must agree bit for bit at every
/// step — including on `NoMatch` errors from edits that leave a live
/// constant node behind.
fn drive_walk(g0: &Aig, seed: u64, steps: usize) {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx_on = MapContext::new();
    let mut ctx_off = MapContext::new();
    ctx_off.set_row_cutoff(false);
    assert!(ctx_on.row_cutoff() && !ctx_off.row_cutoff());
    // Seed both contexts' rows (and the cutoff context's version
    // snapshot) with the unedited graph.
    let first_on = mapper.map_incremental(&mut ctx_on, &g, &db, 0);
    let first_off = mapper.map_incremental(&mut ctx_off, &g, &db, 0);
    assert_same_outcome(first_on, mapper.map(&g), "seed");
    assert_same_outcome(first_off, mapper.map(&g), "seed (cutoff off)");
    // A second pass readies the cutoff context's snapshot (the first
    // incremental call after a fresh context is the fallback sweep).
    let _ = mapper.map_incremental(&mut ctx_on, &g, &db, NodeId::MAX);

    for step in 0..steps {
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        for _ in 0..rng.gen_range(1..4) {
            let ands: Vec<NodeId> = txn.aig().and_ids().collect();
            if ands.is_empty() {
                break;
            }
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            txn.substitute(node, with);
            db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        }
        let since = txn.min_touched();
        // Mid-edit mapping: the cutoff context snapshots speculative
        // versions here — a following rollback must still be
        // detected (bumped values are never reused).
        let fresh_mid = mapper.map(txn.aig());
        let incr_mid = mapper.map_incremental(&mut ctx_on, txn.aig(), &db, since);
        let off_mid = mapper.map_incremental(&mut ctx_off, txn.aig(), &db, since);
        assert_same_outcome(incr_mid, mapper.map(txn.aig()), &format!("step {step} mid"));
        assert_same_outcome(off_mid, fresh_mid, &format!("step {step} mid (cutoff off)"));
        if rng.gen_bool(0.5) {
            txn.commit();
            db.commit_edit();
        } else {
            txn.rollback();
            db.rollback_edit();
        }
        // Post-outcome remap with the same watermark (the SA loop's
        // resync pattern after a reject).
        let fresh = mapper.map(&g);
        let incr = mapper.map_incremental(&mut ctx_on, &g, &db, since);
        let off = mapper.map_incremental(&mut ctx_off, &g, &db, since);
        assert_same_outcome(incr, mapper.map(&g), &format!("step {step} post"));
        assert_same_outcome(off, fresh, &format!("step {step} post (cutoff off)"));
        db.assert_matches_fresh(&g);
    }
}

#[test]
fn edit_walks_bit_identical_on_random_graphs() {
    for seed in 0..5u64 {
        let g = random_aig_with(0xD9 ^ seed, 7, 100, 3);
        drive_walk(&g, 0xC0DE ^ seed, 10);
    }
}

/// Every benchgen design: realistic structures, fewer steps to bound
/// runtime.
#[test]
fn edit_walks_bit_identical_on_benchgen_designs() {
    for design in benchgen::iwls_like_suite() {
        drive_walk(&design.aig, 0xFACE, 3);
    }
}

/// Windowed edits on a large design: the cutoff's recomputed-row
/// counter must stay strictly below the watermark-to-top row count
/// (what the old path always paid), and a no-op resync must recompute
/// nothing.
#[test]
fn recompute_count_is_footprint_bounded_on_windowed_edits() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let design = benchgen::ex28();
    let mut g = design.aig.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx = MapContext::new();
    mapper
        .map_incremental(&mut ctx, &g, &db, 0)
        .expect("mappable");

    let mut rng = SmallRng::seed_from_u64(7);
    let ands: Vec<NodeId> = g.and_ids().collect();
    let mut exercised = 0usize;
    for round in 0..12 {
        // A windowed edit: substitute a mid-graph node by a nearby
        // earlier literal, so the watermark sits well below the top.
        let k = rng.gen_range(ands.len() / 4..ands.len() * 3 / 4);
        let node = ands[k];
        let with = Lit::new(ands[k - 1].min(node - 1), rng.gen());
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        let since = txn.min_touched();
        let rows_above = txn.aig().and_ids().filter(|&id| id >= since).count();
        match mapper.map_incremental(&mut ctx, txn.aig(), &db, since) {
            Ok(nl) => {
                assert_same_netlist(
                    &nl,
                    &mapper.map(txn.aig()).expect("mappable"),
                    &format!("round {round}"),
                );
                assert!(
                    ctx.recomputed_rows() < rows_above,
                    "round {round}: recomputed {} rows, watermark-to-top is {rows_above}",
                    ctx.recomputed_rows()
                );
                exercised += 1;
                // A no-op resync over the unchanged graph recomputes
                // nothing at all.
                mapper
                    .map_incremental(&mut ctx, txn.aig(), &db, since)
                    .expect("mappable");
                assert_eq!(ctx.recomputed_rows(), 0, "round {round}: no-op resync");
                txn.commit();
                db.commit_edit();
            }
            Err(MapError::NoMatch { .. }) => {
                // The raw substitution left a live constant node; not
                // the footprint scenario under test — roll it back.
                txn.rollback();
                db.rollback_edit();
                let restored = mapper
                    .map_incremental(&mut ctx, &g, &db, since)
                    .expect("restored graph is mappable");
                assert_same_netlist(&restored, &mapper.map(&g).expect("mappable"), "restored");
            }
            Err(e) => panic!("round {round}: unexpected error {e}"),
        }
    }
    assert!(exercised >= 4, "too few committed windowed edits");
}

/// Committed fresh-cone walks: windowed in-place passes that append
/// replacement cones and splice them into earlier readers, leaving
/// the graph non-topological after commit. Three mappers race as in
/// `drive_walk` — fresh `map` (oracle), cutoff-on, cutoff-off — and a
/// persistent [`techmap::MappedDesign`] + incremental sizing/STA
/// pipeline rides along: after the warm-up sync, appended-only growth
/// must take the in-place grow path (never a rebuild) and its priced
/// delay/area must stay bit-identical to the fresh full pipeline.
fn drive_append_walk(g0: &Aig, seed: u64, steps: usize) -> bool {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    if mapper.map(g0).is_err() {
        // Random seeds can leave a live constant node (unmappable by
        // construction); the design pipeline under test requires a
        // mappable start.
        return false;
    }
    let sizing = techmap::SizingTable::new(&lib);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx_on = MapContext::new();
    let mut ctx_off = MapContext::new();
    ctx_off.set_row_cutoff(false);
    mapper
        .map_incremental(&mut ctx_on, &g, &db, 0)
        .expect("mappable");
    mapper
        .map_incremental(&mut ctx_off, &g, &db, 0)
        .expect("mappable");
    // Ready the cutoff context's version snapshot.
    mapper
        .map_incremental(&mut ctx_on, &g, &db, NodeId::MAX)
        .expect("mappable");
    let mut ctx_d = MapContext::new();
    let mut design = techmap::MappedDesign::new();
    let mut ista = sta::IncrementalSta::new();
    let mut sta_seeds: Vec<techmap::GateId> = Vec::new();
    mapper
        .sync_design(&mut ctx_d, &g, &db, 0, true, &mut design)
        .expect("mappable");
    design.finish_full(&sizing);
    ista.build(design.netlist(), &lib, design.topo_keys());

    let cache = transform::ResynthCache::new();
    let mut saw_forward = false;
    for step in 0..steps {
        let n = g.num_nodes() as u32;
        let start = rng.gen_range(0..n);
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        match step % 3 {
            0 => {
                transform::balance_inplace_window(&mut txn, &mut db, start, 48, None);
            }
            1 => {
                transform::resynth_inplace_window(
                    &mut txn,
                    &mut db,
                    &cache,
                    transform::InplaceMode::ZeroCost,
                    true,
                    start,
                    64,
                    None,
                );
            }
            _ => {
                transform::resub_inplace_window(&mut txn, &mut db, start, 48, None);
            }
        }
        let since = txn.min_touched();
        // SA never commits a move it could not price: a window that
        // left a live unmatchable node is rolled back (the reject
        // path — which also exercises append rollback against the
        // cached topo index), everything else commits.
        if mapper.map(txn.aig()).is_ok() {
            txn.commit();
            db.commit_edit();
        } else {
            txn.rollback();
            db.rollback_edit();
        }
        saw_forward |= !g.is_topological();
        let fresh = mapper.map(&g);
        let incr = mapper.map_incremental(&mut ctx_on, &g, &db, since);
        let off = mapper.map_incremental(&mut ctx_off, &g, &db, since);
        assert_same_outcome(incr, mapper.map(&g), &format!("append step {step}"));
        assert_same_outcome(off, fresh, &format!("append step {step} (cutoff off)"));
        db.assert_matches_fresh(&g);
        // The design follows through the in-place grow path.
        let rebuilt = mapper
            .sync_design(&mut ctx_d, &g, &db, since, false, &mut design)
            .expect("mappable");
        assert!(
            !rebuilt,
            "append step {step}: appended-only growth must extend in place"
        );
        sta_seeds.clear();
        design.finish_incremental(&sizing, &mut sta_seeds);
        ista.update(design.netlist(), &lib, design.topo_keys(), &sta_seeds);
        let pd = ista.max_delay_ps(design.netlist());
        let pa = design.netlist().area_um2(&lib);
        let mut full = mapper.map(&g).expect("mappable");
        techmap::resize_greedy(&mut full, &lib, 2);
        let (fd, fa) = sta::delay_and_area(&full, &lib);
        assert!(
            pd.to_bits() == fd.to_bits() && pa.to_bits() == fa.to_bits(),
            "append step {step}: grown design diverged: {pd}/{pa} vs {fd}/{fa}"
        );
    }
    saw_forward
}

#[test]
fn append_walks_bit_identical_on_random_graphs() {
    let mut forward_walks = 0usize;
    for seed in 0..6u64 {
        let g = random_aig_with(0xA9 ^ seed, 7, 110, 3);
        if drive_append_walk(&g, 0xBEEF ^ seed, 9) {
            forward_walks += 1;
        }
    }
    assert!(
        forward_walks >= 2,
        "too few walks committed forward references ({forward_walks})"
    );
}

#[test]
fn append_walks_bit_identical_on_benchgen_designs() {
    let mut forward_walks = 0usize;
    for design in benchgen::iwls_like_suite().into_iter().take(4) {
        if drive_append_walk(&design.aig, 0xFEED, 4) {
            forward_walks += 1;
        }
    }
    assert!(
        forward_walks >= 1,
        "no benchgen walk committed a forward reference"
    );
}

/// On a graph carrying committed forward references the cutoff must
/// stay active: recomputed rows strictly below the effective
/// (forward-clamped) watermark-to-top row count — the fallback the
/// old `is_topological` guard always forced.
#[test]
fn recompute_count_stays_footprint_bounded_under_forward_refs() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let design = benchgen::ex28();
    let mut g = design.aig.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx = MapContext::new();
    mapper
        .map_incremental(&mut ctx, &g, &db, 0)
        .expect("mappable");
    mapper
        .map_incremental(&mut ctx, &g, &db, NodeId::MAX)
        .expect("mappable");

    let mut rng = SmallRng::seed_from_u64(19);
    let cache = transform::ResynthCache::new();
    let mut exercised = 0usize;
    for round in 0..12 {
        let n = g.num_nodes() as u32;
        let start = rng.gen_range(n / 4..n);
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        transform::resynth_inplace_window(
            &mut txn,
            &mut db,
            &cache,
            transform::InplaceMode::ZeroCost,
            true,
            start,
            96,
            None,
        );
        let since = txn.min_touched();
        txn.commit();
        db.commit_edit();
        if since as usize >= g.num_nodes() {
            continue; // window found nothing to do
        }
        // `dp_update` clamps the watermark below the first forward id
        // — that clamped suffix is what the watermark fallback would
        // recompute wholesale.
        let eff = since.min(g.forward_ids().next().unwrap_or(NodeId::MAX));
        let rows_above = g.and_ids().filter(|&id| id >= eff).count();
        let nl = mapper
            .map_incremental(&mut ctx, &g, &db, since)
            .expect("mappable");
        assert_same_netlist(
            &nl,
            &mapper.map(&g).expect("mappable"),
            &format!("forward round {round}"),
        );
        if !g.is_topological() {
            assert!(
                ctx.recomputed_rows() < rows_above,
                "round {round}: recomputed {} rows, clamped watermark-to-top is {rows_above}",
                ctx.recomputed_rows()
            );
            exercised += 1;
        }
    }
    assert!(exercised >= 4, "too few forward-carrying rounds");
}

/// A stale cut database (missed `build`/`sync_appends`) must surface
/// as a typed error from the incremental entry points — in *every*
/// build profile. This used to be a `debug_assert_eq!`, i.e. release
/// builds would silently map through stale spans; the test pins the
/// release-mode behavior (it does not rely on `debug_assertions`).
#[test]
fn stale_cutdb_is_a_typed_error_not_a_debug_assert() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut g = random_aig_with(42, 6, 40, 2);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let tracked = g.num_nodes();
    // Grow the graph behind the database's back.
    let a = Lit::new(g.inputs()[0], false);
    let b = Lit::new(*g.inputs().last().unwrap(), true);
    g.and(a, b);
    let mut ctx = MapContext::new();
    match mapper.map_incremental(&mut ctx, &g, &db, 0) {
        Err(MapError::StaleCuts {
            db_nodes,
            graph_nodes,
        }) => {
            assert_eq!(db_nodes, tracked);
            assert_eq!(graph_nodes, g.num_nodes());
        }
        other => panic!("expected StaleCuts, got {other:?}"),
    }
    // The error is recoverable: syncing the database makes the same
    // call succeed and match the fresh map.
    db.sync_appends(&g);
    let incr = mapper
        .map_incremental(&mut ctx, &g, &db, 0)
        .expect("synced db maps");
    assert_same_netlist(&incr, &mapper.map(&g).expect("mappable"), "after sync");
}

/// A `map_incremental` interleaved between two `sync_design` calls
/// must stay visible to the design: the changed-row record
/// accumulates until a design consumes it, so the second sync heals
/// the netlist even though its own `dp_update` is a no-op (rows
/// already current, watermark `NodeId::MAX`).
#[test]
fn sync_design_sees_interleaved_map_incremental_changes() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let sizing = techmap::SizingTable::new(&lib);
    let g0 = random_aig_with(3100, 8, 120, 3);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx = MapContext::new();
    let mut design = techmap::MappedDesign::new();
    let mut ista = sta::IncrementalSta::new();
    let mut sta_seeds: Vec<techmap::GateId> = Vec::new();
    mapper
        .sync_design(&mut ctx, &g, &db, 0, true, &mut design)
        .expect("mappable");
    design.finish_full(&sizing);
    ista.build(design.netlist(), &lib, design.topo_keys());

    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut exercised = 0usize;
    for _ in 0..40 {
        if exercised >= 6 {
            break;
        }
        // Commit an edit that keeps the graph mappable AND actually
        // changes the mapped netlist (random nodes are often dead —
        // a cover-neutral edit cannot exercise the design patch), so
        // prefer nodes in the live cover.
        let mut live = vec![false; g.num_nodes()];
        let mut stack: Vec<NodeId> = g.outputs().iter().map(|o| o.lit.var()).collect();
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut live[v as usize], true) && g.is_and(v) {
                let [f0, f1] = g.fanins(v);
                stack.push(f0.var());
                stack.push(f1.var());
            }
        }
        let ands: Vec<NodeId> = g.and_ids().filter(|&id| live[id as usize]).collect();
        if ands.is_empty() {
            break;
        }
        let node = ands[rng.gen_range(0..ands.len())];
        if node == 0 {
            continue;
        }
        let with = Lit::new(rng.gen_range(0..node), rng.gen());
        {
            let mut trial = g.clone();
            let mut tinc = IncrementalAnalysis::new(&trial);
            tinc.substitute(&mut trial, node, with);
            match mapper.map(&trial) {
                Ok(nl) => {
                    let before = mapper.map(&g).expect("mappable");
                    if format!("{nl:?}") == format!("{before:?}") {
                        continue;
                    }
                }
                Err(_) => continue,
            }
        }
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        let since = txn.min_touched();
        txn.commit();
        db.commit_edit();
        // Interleaved row refresh that bypasses the design entirely.
        mapper
            .map_incremental(&mut ctx, &g, &db, since)
            .expect("mappable");
        // The design sync's own DP pass now finds nothing to
        // recompute (rows already current) — alternating between the
        // same-watermark re-entry and the O(1) fast path, the design
        // must heal purely from the accumulated changed-row record.
        let resync_since = if exercised.is_multiple_of(2) {
            since
        } else {
            NodeId::MAX
        };
        let rebuilt = mapper
            .sync_design(&mut ctx, &g, &db, resync_since, false, &mut design)
            .expect("mappable");
        // Price the patched design exactly like
        // `GroundTruthCost::evaluate_edit` (full sizing capture only
        // on rebuilds; incremental sizing + STA update on patches —
        // the design's slots are not id-topological, so STA goes
        // through the incremental engine + topo keys).
        if rebuilt {
            design.finish_full(&sizing);
            ista.build(design.netlist(), &lib, design.topo_keys());
        } else {
            sta_seeds.clear();
            design.finish_incremental(&sizing, &mut sta_seeds);
            ista.update(design.netlist(), &lib, design.topo_keys(), &sta_seeds);
        }
        let pd = ista.max_delay_ps(design.netlist());
        let pa = design.netlist().area_um2(&lib);
        let mut fresh = mapper.map(&g).expect("mappable");
        techmap::resize_greedy(&mut fresh, &lib, 2);
        let (fd, fa) = sta::delay_and_area(&fresh, &lib);
        assert!(
            pd.to_bits() == fd.to_bits() && pa.to_bits() == fa.to_bits(),
            "patched design diverged after interleaved map: {pd}/{pa} vs {fd}/{fa}"
        );
        exercised += 1;
    }
    assert!(exercised >= 4, "too few committed edits");
}

/// Switching a context between two independent `CutDb` instances must
/// not let version values of the old database masquerade as the new
/// one's: the fallback sweep re-snapshots the *whole* range (not just
/// `[since, n)`), so a later cutoff call can never compare a row
/// against another database's numerically colliding version value.
/// This drives the exact switch sequence — the colliding values are
/// engineered below (each database assigns `x` its second counter
/// value) — and asserts bit-identity; the direct wrong-skip
/// additionally requires the colliding row to carry no other dirty
/// signal, so the full-range snapshot is the guarantee under test.
#[test]
fn snapshot_is_not_reattributed_across_databases() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    // x = AND(u, v) with u, v single-consumer helpers, plus logic
    // above x so the database-switch call can use a high watermark.
    let mut g = Aig::new();
    let a = g.add_input();
    let b = g.add_input();
    let c = g.add_input();
    let d = g.add_input();
    let u = g.and(a, b);
    let v = g.and(c, d);
    let x = g.and(u, v);
    let mut top = x;
    for _ in 0..6 {
        let t = g.xor(a, d);
        top = g.and(top, t);
    }
    g.add_output(top, None::<&str>);
    let high = top.var();

    let mut inc = IncrementalAnalysis::new(&g);
    let mut ctx = MapContext::new();
    let mut db_a = CutDb::new(4, 8);
    db_a.build(&g);
    mapper
        .map_incremental(&mut ctx, &g, &db_a, 0)
        .expect("mappable");
    // Edit through A so x's version becomes A's second value (build
    // handed out the first): substitute u by `a` — x is the first
    // (smallest-id) node whose list changes.
    let mut txn = Transaction::begin(&mut g, &mut inc);
    txn.substitute(u.var(), a);
    db_a.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    let since_a = txn.min_touched();
    txn.commit();
    mapper
        .map_incremental(&mut ctx, &g, &db_a, since_a)
        .expect("mappable");
    // Switch to an independently built database with a high
    // watermark: the fallback sweep must claim no knowledge of B's
    // versions below it.
    let mut db_b = CutDb::new(4, 8);
    db_b.build(&g);
    mapper
        .map_incremental(&mut ctx, &g, &db_b, high)
        .expect("mappable");
    // Edit through B so x's version becomes B's second value — the
    // same numeric value A assigned it, which the stale snapshot
    // would mistake for "unchanged".
    let mut txn = Transaction::begin(&mut g, &mut inc);
    txn.substitute(v.var(), c);
    db_b.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    let since_b = txn.min_touched();
    txn.commit();
    let incr = mapper.map_incremental(&mut ctx, &g, &db_b, since_b);
    assert_same_outcome(incr, mapper.map(&g), "after database switch");
}

/// Ground-truth SA evaluation with the cutoff on vs off must be
/// byte-identical (same metrics, same best graph) — the evaluator
/// toggle is `GroundTruthCost::set_dp_row_cutoff`.
#[test]
fn ground_truth_sa_byte_identical_with_cutoff_on_or_off() {
    use saopt::{optimize_with, EvalContext, GroundTruthCost, SaOptions};
    use transform::{Recipe, Transform};
    let g = random_aig_with(777, 8, 110, 4);
    let lib = sky130ish();
    let actions = vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Balance]),
    ];
    let opts = SaOptions {
        iterations: 10,
        seed: 31,
        ..SaOptions::default()
    };
    let run = |cutoff: bool| {
        let mut eval = GroundTruthCost::new(&lib);
        eval.set_dp_row_cutoff(cutoff);
        let mut ctx = EvalContext::new();
        optimize_with(&g, &mut eval, &actions, &opts, &mut ctx)
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(
        aig::aiger::to_ascii(&on.best),
        aig::aiger::to_ascii(&off.best),
        "best graph diverged"
    );
    assert_eq!(on.evaluated, off.evaluated, "metrics diverged");
    assert_eq!(on.history, off.history, "history diverged");
    assert_eq!(on.accepted, off.accepted);
}

/// A rejected move that appended a fresh cone *and* touched the
/// constant node (an output retargeted to a constant) has watermark
/// `0`, yet keeps every node id stable. Re-syncing the rolled-back
/// graph must stay on the footprint-bounded patch — no rebuild —
/// whether the rows are recomputed (`sync_design`) or undone
/// (`undo_sync`), and the patched design must price bit-identically
/// to the full map → resize → STA pipeline.
#[test]
fn rejected_append_touching_constant_stays_incremental() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let sizing = techmap::SizingTable::new(&lib);
    let oracle = |g: &Aig| {
        let mut nl = mapper.map(g).expect("mappable");
        techmap::resize_greedy(&mut nl, &lib, 2);
        sta::delay_and_area(&nl, &lib)
    };
    for seed in 0..4u64 {
        let mut g = random_aig_with(0xC0 ^ seed, 8, 120, 4);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        for undo in [false, true] {
            let mut ctx = MapContext::new();
            let mut design = techmap::MappedDesign::new();
            let mut ista = sta::IncrementalSta::new();
            let mut seeds: Vec<techmap::GateId> = Vec::new();
            let mut patch = |design: &mut techmap::MappedDesign, ista: &mut sta::IncrementalSta| {
                seeds.clear();
                design.finish_incremental(&sizing, &mut seeds);
                ista.update(design.netlist(), &lib, design.topo_keys(), &seeds);
                (
                    ista.max_delay_ps(design.netlist()),
                    design.netlist().area_um2(&lib),
                )
            };
            assert!(mapper
                .sync_design(&mut ctx, &g, &db, 0, true, &mut design)
                .expect("mappable"));
            design.finish_full(&sizing);
            ista.build(design.netlist(), &lib, design.topo_keys());
            // A second sync readies the per-row cutoff (and journal).
            assert!(!mapper
                .sync_design(&mut ctx, &g, &db, NodeId::MAX, false, &mut design)
                .expect("mappable"));
            patch(&mut design, &mut ista);

            let n = g.num_nodes();
            db.begin_edit();
            let mut txn = Transaction::begin(&mut g, &mut inc);
            let ins: Vec<NodeId> = txn.aig().inputs().to_vec();
            let mut fresh = None;
            'pairs: for (i, &a) in ins.iter().enumerate() {
                for &b in &ins[i + 1..] {
                    for (ca, cb) in [(false, false), (true, false), (false, true), (true, true)] {
                        let l = txn.and(Lit::new(a, ca), Lit::new(b, cb));
                        if l.var() as usize >= n {
                            fresh = Some(l);
                            break 'pairs;
                        }
                    }
                }
            }
            let fresh = fresh.expect("some input pair is not ANDed yet");
            txn.retarget_output(0, fresh);
            txn.retarget_output(1, Lit::FALSE);
            db.sync_appends(txn.aig());
            let since = txn.min_touched();
            assert_eq!(since, 0, "seed {seed}: the move touches the constant node");
            let rebuilt = mapper
                .sync_design(&mut ctx, txn.aig(), &db, since, false, &mut design)
                .expect("mappable");
            assert!(!rebuilt, "seed {seed}: appended growth extends in place");
            let edited = patch(&mut design, &mut ista);
            let (fd, fa) = oracle(txn.aig());
            assert!(
                edited.0.to_bits() == fd.to_bits() && edited.1.to_bits() == fa.to_bits(),
                "seed {seed}: edited design diverged"
            );

            txn.rollback();
            db.rollback_edit();
            assert_eq!(g.num_nodes(), n);
            let rebuilt = if undo {
                !mapper.undo_sync(&mut ctx, &g, &db, &mut design)
            } else {
                mapper
                    .sync_design(&mut ctx, &g, &db, since, false, &mut design)
                    .expect("mappable")
            };
            assert!(
                !rebuilt,
                "seed {seed} (undo: {undo}): rolled-back append must not rebuild"
            );
            let (pd, pa) = patch(&mut design, &mut ista);
            let (fd, fa) = oracle(&g);
            assert!(
                pd.to_bits() == fd.to_bits() && pa.to_bits() == fa.to_bits(),
                "seed {seed} (undo: {undo}): restored design diverged: {pd}/{pa} vs {fd}/{fa}"
            );
        }
    }
}
