//! Differential suite for the incremental timing engine: the
//! persistent mapped design ([`techmap::MappedDesign`]), the
//! incremental sizing pass, and [`sta::IncrementalSta`] must price
//! every in-place edit **bit-identically** to the full
//! map → resize → STA oracle — across random in-place edit walks
//! (with rollbacks) on every `benchgen` design — and the SA loop
//! must produce byte-identical results with the engine on or off,
//! for 1 and 4 worker threads.

use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use cells::sky130ish;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use saopt::{optimize_seeds, CostEvaluator, EditScope, EvalContext, GroundTruthCost, SaOptions};
use techmap::{GateId, MapOptions, Mapper, NetDriver, NetId};
use transform::{InplaceMode, Recipe, ResynthCache, Transform};

mod common;
use common::random_aig_with;

/// Drives the exact engine protocol the SA loop uses — warm
/// `IncrementalAnalysis` + `CutDb`, speculative transactions carrying
/// local rewrites and raw substitutions, accept/reject with
/// rollbacks and evaluator re-syncs — asserting after every single
/// step that the incremental evaluator's metrics are bit-identical
/// to a full-pipeline oracle pricing the same graph.
fn drive_edit_walk(g0: &Aig, seed: u64, steps: usize) {
    let lib = sky130ish();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let cache = ResynthCache::new();
    let mut ctx = EvalContext::new();
    let mut gt = GroundTruthCost::new(&lib);
    let mut oracle = GroundTruthCost::new(&lib);
    let probe = Mapper::new(&lib, MapOptions::default());
    let mut rows_since: NodeId = 0;

    for step in 0..steps {
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        if rng.gen_bool(0.7) {
            // The SA loop's move: a windowed local rewrite.
            let start = rng.gen_range(0..txn.aig().num_nodes() as NodeId);
            let mode = if rng.gen() {
                InplaceMode::Standard
            } else {
                InplaceMode::ZeroCost
            };
            transform::rewrite_inplace_window(&mut txn, &mut db, &cache, mode, start, 64);
        } else {
            // Harsher cover churn: raw substitutions.
            for _ in 0..rng.gen_range(1..3) {
                let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                if ands.is_empty() {
                    break;
                }
                let node = ands[rng.gen_range(0..ands.len())];
                let with = Lit::new(rng.gen_range(0..node), rng.gen());
                txn.substitute(node, with);
                db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
            }
        }
        let move_min = txn.min_touched();
        let since = rows_since.min(move_min);
        if probe.map(txn.aig()).is_err() {
            // Raw test substitutions are not function-preserving and
            // can leave a *live* constant node no cell matches; both
            // pipelines reject such graphs identically (asserted by
            // the mapper suite). Roll the move back and keep walking.
            txn.rollback();
            db.rollback_edit();
            continue;
        }
        let m_inc = gt.evaluate_edit(txn.aig(), &EditScope::new(&db, since), &mut ctx);
        let m_full = oracle.evaluate(txn.aig());
        assert!(
            m_inc.delay.to_bits() == m_full.delay.to_bits(),
            "step {step}: delay diverged: {} vs {}",
            m_inc.delay,
            m_full.delay
        );
        assert!(
            m_inc.area.to_bits() == m_full.area.to_bits(),
            "step {step}: area diverged: {} vs {}",
            m_inc.area,
            m_full.area
        );
        if rng.gen_bool(0.5) {
            txn.commit();
            db.commit_edit();
        } else {
            txn.rollback();
            db.rollback_edit();
            gt.resync_edit(&g, &EditScope::new(&db, since), &mut ctx);
            // The re-synced state must price the restored graph
            // bit-identically too.
            let m_back = gt.evaluate_edit(&g, &EditScope::new(&db, NodeId::MAX), &mut ctx);
            let m_ref = oracle.evaluate(&g);
            assert!(
                m_back.delay.to_bits() == m_ref.delay.to_bits()
                    && m_back.area.to_bits() == m_ref.area.to_bits(),
                "step {step}: post-rollback resync diverged"
            );
        }
        rows_since = NodeId::MAX;
    }
}

/// Walks of in-place moves through the ground-truth evaluator where
/// most moves are rejected: refactor- and balance-flavour windows,
/// which append fresh replacement cones, so rejects exercise the
/// append rollback. After every `resync_edit` the reject must have
/// been *undone* from the journal — no DP row recomputed and the
/// mapper's DP state bitwise the pre-edit state — and the next
/// `evaluate_edit` must price the restored graph exactly like a fresh
/// full evaluation. Returns `(undone rejects, of which rolled back an
/// append)`.
fn drive_undo_walk(g0: &Aig, seed: u64, steps: usize) -> (usize, usize) {
    let lib = sky130ish();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let cache = ResynthCache::new();
    let mut ctx = EvalContext::new();
    let mut gt = GroundTruthCost::new(&lib);
    let mut oracle = GroundTruthCost::new(&lib);
    let same = |a: saopt::CostMetrics, b: saopt::CostMetrics| {
        a.delay.to_bits() == b.delay.to_bits() && a.area.to_bits() == b.area.to_bits()
    };
    // The first in-place call rebuilds; from the second on the
    // per-row cutoff (and with it the journal) is live.
    let _ = gt.evaluate_edit(&g, &EditScope::whole_graph(&db), &mut ctx);
    let _ = gt.evaluate_edit(&g, &EditScope::new(&db, NodeId::MAX), &mut ctx);
    let (mut undone, mut appends) = (0usize, 0usize);
    for step in 0..steps {
        let before = gt.map_context().dp_snapshot();
        let n_before = g.num_nodes();
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let start = rng.gen_range(0..n_before as NodeId);
        if rng.gen() {
            let mode = if rng.gen() {
                InplaceMode::Standard
            } else {
                InplaceMode::ZeroCost
            };
            transform::resynth_inplace_window(
                &mut txn, &mut db, &cache, mode, true, start, 128, None,
            );
        } else {
            transform::balance_inplace_window(&mut txn, &mut db, start, 64, None);
        }
        let since = txn.min_touched();
        let grew = txn.aig().num_nodes() > n_before;
        let m_inc = gt.evaluate_edit(txn.aig(), &EditScope::new(&db, since), &mut ctx);
        assert!(
            same(m_inc, oracle.evaluate(txn.aig())),
            "step {step}: edited graph priced differently"
        );
        if rng.gen_bool(0.2) {
            txn.commit();
            db.commit_edit();
            continue;
        }
        txn.rollback();
        db.rollback_edit();
        gt.resync_edit(&g, &EditScope::new(&db, since), &mut ctx);
        assert_eq!(
            gt.dp_recomputed_rows(),
            0,
            "step {step}: the reject recomputed DP rows instead of undoing"
        );
        assert!(
            gt.map_context().dp_snapshot() == before,
            "step {step}: undo left DP state differing from the pre-edit state"
        );
        let m_back = gt.evaluate_edit(&g, &EditScope::new(&db, NodeId::MAX), &mut ctx);
        assert!(
            same(m_back, oracle.evaluate(&g)),
            "step {step}: restored graph priced differently after the undo"
        );
        undone += 1;
        appends += usize::from(grew);
    }
    (undone, appends)
}

/// The undo path on every benchgen design.
#[test]
fn rejected_moves_undo_exactly_on_benchgen_designs() {
    let (mut undone, mut appends) = (0, 0);
    for (k, design) in benchgen::iwls_like_suite().iter().enumerate() {
        let (u, a) = drive_undo_walk(&design.aig, 0x0DD0 ^ k as u64, 8);
        undone += u;
        appends += a;
    }
    assert!(undone >= 20, "too few rejects exercised ({undone})");
    assert!(
        appends >= 3,
        "too few append rollbacks exercised ({appends})"
    );
}

/// The undo path on a ~2k-AND mixed design (the in-place benchmark
/// scale), where a reject's footprint is a small part of the graph.
#[test]
fn rejected_moves_undo_exactly_on_large_mix() {
    let design = benchgen::large_mix(2000);
    let (undone, appends) = drive_undo_walk(&design.aig, 0x2000, 16);
    assert!(undone >= 8, "too few rejects exercised ({undone})");
    assert!(
        appends >= 2,
        "too few append rollbacks exercised ({appends})"
    );
}

/// Random graphs: many shapes, dense edit mixes.
#[test]
fn edit_walks_match_oracle_on_random_graphs() {
    for seed in 0..4u64 {
        let g = random_aig_with(900 + seed, 8, 120, 4);
        drive_edit_walk(&g, 0xD1F ^ seed, 14);
    }
}

/// Every benchgen design (the paper's IWLS-like suite): realistic
/// mapped structures, fewer steps to bound runtime.
#[test]
fn edit_walks_match_oracle_on_benchgen_designs() {
    for design in benchgen::iwls_like_suite() {
        drive_edit_walk(&design.aig, 0xA11CE, 6);
    }
}

/// Netlist-level differential: random drive swaps on a tracked
/// mapped netlist; [`sta::IncrementalSta::update`] must keep every
/// arrival bit-identical to the full-recompute oracle.
#[test]
fn incremental_sta_matches_oracle_under_drive_swaps() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    for design in benchgen::iwls_like_suite() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut nl = mapper.map(&design.aig).expect("mappable");
        techmap::resize_greedy(&mut nl, &lib, 2);
        nl.enable_tracking(&lib);
        // Builder netlists are id-topological: ids are a valid order.
        let order: Vec<u64> = (0..nl.num_gates() as u64).collect();
        let mut sta = sta::IncrementalSta::new();
        sta.build(&nl, &lib, &order);
        let mut bufs = sta::StaBuffers::new();
        for _ in 0..20 {
            let gid = GateId(rng.gen_range(0..nl.num_gates() as u32));
            let variants = lib.drive_variants(nl.gate(gid).cell);
            let cell = variants[rng.gen_range(0..variants.len())];
            nl.set_gate_cell(gid, cell);
            // The dirty-net contract: the gate itself plus the
            // drivers of its input nets (their loads changed).
            let mut seeds = vec![gid];
            for &n in &nl.gate(gid).inputs {
                if let NetDriver::Gate(d) = *nl.driver(n) {
                    seeds.push(d);
                }
            }
            sta.update(&nl, &lib, &order, &seeds);
            let (delay, _) = sta::delay_and_area_into(&nl, &lib, &mut bufs);
            assert!(
                sta.max_delay_ps(&nl).to_bits() == delay.to_bits(),
                "{}: delay diverged after swap",
                design.name
            );
            let loads = nl.net_loads_ff(&lib);
            let mut arr = Vec::new();
            sta::arrivals_into(&nl, &lib, &loads, &mut arr);
            for (n, a) in arr.iter().enumerate() {
                assert!(
                    sta.arrival(NetId(n as u32)).to_bits() == a.to_bits(),
                    "{}: net {n} arrival diverged",
                    design.name
                );
            }
        }
    }
}

/// Full SA runs under the ground-truth evaluator: engine on vs off
/// (clone-based oracle) must be byte-identical, for 1 and 4 worker
/// threads (`optimize_seeds` parallel chains with shared per-worker
/// contexts).
#[test]
fn sa_ground_truth_engine_and_threads_byte_identical() {
    struct EnvGuard(Option<String>);
    impl Drop for EnvGuard {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var("AIG_THREADS", v),
                None => std::env::remove_var("AIG_THREADS"),
            }
        }
    }
    let _guard = EnvGuard(std::env::var("AIG_THREADS").ok());

    let g = random_aig_with(4242, 9, 130, 4);
    let lib = sky130ish();
    let actions = vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Balance]),
        Recipe(vec![Transform::Rewrite, Transform::Balance]),
    ];
    let opts = SaOptions {
        iterations: 8,
        ..SaOptions::default()
    };
    let seeds = [3u64, 14, 15];
    let run = |threads: &str, inplace: bool| {
        std::env::set_var("AIG_THREADS", threads);
        let results = if inplace {
            optimize_seeds(&g, || GroundTruthCost::new(&lib), &actions, &opts, &seeds)
        } else {
            // Engine off: thread a disabling context through serial
            // runs (optimize_seeds always uses default contexts).
            seeds
                .iter()
                .map(|&seed| {
                    let mut ctx = EvalContext::new();
                    ctx.set_inplace_transactions(false);
                    let mut eval = GroundTruthCost::new(&lib);
                    saopt::optimize_with(
                        &g,
                        &mut eval,
                        &actions,
                        &SaOptions { seed, ..opts },
                        &mut ctx,
                    )
                })
                .collect::<Vec<_>>()
        };
        results
            .into_iter()
            .map(|r| {
                (
                    aig::aiger::to_ascii(&r.best),
                    r.history,
                    r.evaluated
                        .iter()
                        .map(|m| (m.delay.to_bits(), m.area.to_bits()))
                        .collect::<Vec<_>>(),
                    r.accepted,
                )
            })
            .collect::<Vec<_>>()
    };
    let on_1 = run("1", true);
    let off_1 = run("1", false);
    let on_4 = run("4", true);
    let off_4 = run("4", false);
    assert_eq!(on_1, off_1, "engine on/off diverged (1 thread)");
    assert_eq!(on_1, on_4, "worker count changed engine-on results");
    assert_eq!(off_1, off_4, "worker count changed engine-off results");
}
