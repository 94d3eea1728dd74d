//! Speculative batched move evaluation within one SA chain.
//!
//! The serial loop in [`crate::sa`] prices exactly one candidate move
//! per iteration, so a chain's wall-clock is `iterations x
//! eval_cost` no matter how many cores the machine has —
//! parallelism used to exist only *across* chains
//! ([`crate::optimize_seeds`], [`crate::sweep`]). This module
//! parallelizes *within* one chain without changing a single output
//! bit, via a speculate → commit → replay protocol:
//!
//! 1. **Speculate.** A *scout* RNG (a clone of the chain's true RNG)
//!    pre-draws a wave of up to `batch` candidate moves. This is
//!    possible because the loop's RNG consumption per move is a pure
//!    function of the recipe draw (see `metropolis` in [`crate::sa`]:
//!    the acceptance sample is drawn unconditionally), never of the
//!    move's metrics. Each windowed move's [`ConeWindow`] is checked
//!    against the earlier in-wave windows: overlapping windows are
//!    still co-speculated — the commit loop re-scores everything
//!    after an accepted edit anyway, so overlap costs a replay, not
//!    correctness — but counted
//!    ([`SpecStats::overlapping_windows`]), since they are the moves
//!    most likely to come back as *conflicting* replays.
//! 2. **Score.** The wave is scored on worker slots ([`SpecSlot`]) in
//!    parallel (one OS thread per slot via [`aig::par::par_map_mut`],
//!    honoring `AIG_THREADS`). Each slot owns a replica of the chain's
//!    graph plus its own `IncrementalAnalysis`/`CutDb`/[`EvalContext`]
//!    and a forked evaluator ([`CostEvaluator::fork`]); windowed moves
//!    run through the same `Transaction` + windowed-pass machinery as
//!    the serial engine (`run_inplace_plan` in [`crate::sa`],
//!    recording their edit journal), whole-graph moves apply their
//!    recipe to the replica. Slots are
//!    pooled on the [`EvalContext`] across waves and runs
//!    ([`EvalContext::contexts_spawned`] counts pool misses).
//! 3. **Commit.** Results are consumed serially in iteration order:
//!    each move's recipe/window/acceptance draws are re-drawn from the
//!    *true* RNG (bit-asserted against the scout) and the Metropolis
//!    rule is applied to the speculated metrics — which are bitwise
//!    equal to what the serial loop would have computed, because
//!    evaluator state is pure with respect to the evaluated graph. An
//!    accepted windowed move is committed by replaying its recorded
//!    edit journal ([`aig::incremental::replay_ops`]: fresh-cone
//!    appends and substitutions alike) onto the master graph; no
//!    re-probing, no second evaluation.
//! 4. **Replay.** A committed edit makes the remaining speculations
//!    stale — metrics were priced against the pre-commit graph. They
//!    are *not* re-drawn: the moves themselves (recipe, window) are
//!    still exactly what the true RNG will produce, so the engine
//!    re-dispatches them against the committed state (worker replicas
//!    catch up by replaying the commit log's substitution journals)
//!    and resumes the commit loop. [`DirtyRegion::overlaps`] against
//!    the committed move's footprint classifies each replay as
//!    *conflicting* (footprints overlap) or merely *stale*
//!    ([`SpecStats`]). Any accept that changes the node count — a
//!    whole-graph move, an in-place move that appended a fresh
//!    replacement cone, or a compaction sweep — discards the rest of
//!    the wave outright: the scout's window draws were made against
//!    the old node count.
//!
//! Determinism contract: the commit loop re-derives every RNG draw,
//! every cost and every acceptance decision exactly as the serial
//! engine would, and speculated metrics are bitwise pure — so results
//! are byte-identical to the serial engine for any batch size, any
//! worker count and any `AIG_THREADS`, per seed (asserted by the
//! speculation determinism suites). The engine silently declines
//! (returns `None`) when the evaluator is unforkable or the
//! transaction engine is off; [`crate::optimize_with`] then runs the
//! serial oracle.

use crate::context::EvalContext;
use crate::cost::{CostEvaluator, CostMetrics, EditScope};
use crate::sa::{
    metropolis, plan_window, run_inplace_plan, should_compact, SaOptions, SaResult,
    INPLACE_CUT_SIZE, INPLACE_MAX_CUTS,
};
use aig::cut::CutDb;
use aig::incremental::{
    replay_ops, ConeWindow, DirtyRegion, EditOp, IncrementalAnalysis, Transaction,
};
use aig::{Aig, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use transform::{InplacePlan, Recipe, ResynthCache};

/// Configuration of the speculative engine
/// ([`SaOptions::speculation`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpeculationOptions {
    /// Candidate moves pre-drawn per speculation wave; `0` (the
    /// default) sizes waves to `2 x` [`aig::par::max_threads`].
    /// Results are independent of the batch size.
    pub batch: usize,
}

/// Counters of one speculative run ([`SaResult::spec`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Scout waves drawn.
    pub waves: usize,
    /// Scoring dispatches (>= `waves`: each replay re-dispatches).
    pub dispatches: usize,
    /// Moves scored speculatively, replays included.
    pub speculated: usize,
    /// Speculation results consumed by the commit loop (== the
    /// iterations that ran speculatively).
    pub committed: usize,
    /// Accepted moves that committed a real edit to the master graph.
    pub accepted_edits: usize,
    /// Re-scored moves whose footprint overlapped the committed
    /// move's [`DirtyRegion`].
    pub replayed_conflicting: usize,
    /// Re-scored moves disjoint from the committed move (stale
    /// metrics only).
    pub replayed_stale: usize,
    /// Speculations discarded outright (a whole-graph accept ended
    /// the wave).
    pub discarded: usize,
    /// Windowed moves co-speculated although an earlier in-wave
    /// move's [`ConeWindow`] overlapped theirs (the correlated
    /// speculations: if the earlier move commits, these come back as
    /// *conflicting* replays).
    pub overlapping_windows: usize,
    /// Worker slots newly built in this run (pool misses; see
    /// [`EvalContext::contexts_spawned`] for the cumulative count).
    pub contexts_spawned: usize,
}

/// One pooled worker slot: a replica of the chain's graph plus every
/// per-worker engine the serial loop keeps exactly once.
#[derive(Debug)]
pub(crate) struct SpecSlot {
    replica: Aig,
    inc: IncrementalAnalysis,
    db: CutDb,
    ctx: EvalContext,
    /// Commit-log length the replica is synced to; `usize::MAX` marks
    /// a slot whose content belongs to a previous run (full resync on
    /// first use).
    epoch: usize,
    /// Evaluator-state watermark of the slot's *forked* evaluator:
    /// every per-node quantity below it matches the replica.
    rows_since: NodeId,
    /// The forked evaluator's state may describe another graph or
    /// other ids than the replica (fresh fork, re-clone, whole-graph
    /// score) — the serial loop's `state_suspect`.
    state_suspect: bool,
    /// Replica churn a *delta-based* evaluator
    /// ([`CostEvaluator::wants_rollback_resync`]) has not absorbed
    /// yet: the footprints of commit-log replays since the
    /// evaluator's last resync. Merged into the next score's
    /// [`EditScope::delta`] region; cleared by the rollback resync
    /// and by every whole-graph resync point (`state_suspect`).
    pending: DirtyRegion,
    /// Scratch for the merged scope region (pending ∪ move
    /// footprint); a field so the allocation is reused across scores.
    scope_region: DirtyRegion,
}

impl SpecSlot {
    fn new(resynth: Arc<ResynthCache>) -> Self {
        SpecSlot {
            replica: Aig::new(),
            inc: IncrementalAnalysis::default(),
            db: CutDb::new(INPLACE_CUT_SIZE, INPLACE_MAX_CUTS),
            ctx: EvalContext::with_shared(resynth),
            epoch: usize::MAX,
            rows_since: NodeId::MAX,
            state_suspect: true,
            pending: DirtyRegion::default(),
            scope_region: DirtyRegion::default(),
        }
    }
}

/// One committed move, as the worker replicas need to replay it.
enum CommittedMove {
    /// A windowed in-place move: the recorded edit journal
    /// ([`replay_ops`]) reproduces it exactly — fresh-cone appends
    /// included — on any byte-identical replica.
    InPlace { ops: Vec<EditOp> },
    /// A whole-graph move (or a compaction sweep): replicas re-clone
    /// the master.
    WholeGraph,
}

/// One pre-drawn candidate move.
struct Planned {
    ridx: usize,
    inplace: Option<(InplacePlan, NodeId)>,
}

/// A scored speculation.
struct Scored {
    metrics: CostMetrics,
    /// Edit journal of a windowed move (empty = no-op move).
    ops: Vec<EditOp>,
    /// Write footprint of a windowed move.
    dirty: DirtyRegion,
    /// The candidate graph of a whole-graph move.
    candidate: Option<Aig>,
}

/// Runs the chain speculatively; `None` means the engine declines
/// (unforkable evaluator) and the caller must run the serial loop.
/// Shares [`crate::optimize_with`]'s panics.
pub(crate) fn try_optimize(
    aig: &Aig,
    evaluator: &mut dyn CostEvaluator,
    actions: &[Recipe],
    opts: &SaOptions,
    spec: SpeculationOptions,
    ctx: &mut EvalContext,
) -> Option<SaResult> {
    debug_assert!(ctx.inplace_transactions());
    assert!(!actions.is_empty(), "need at least one action");
    assert!(opts.iterations > 0, "iterations must be positive");

    let wave_cap = if spec.batch > 0 {
        spec.batch
    } else {
        2 * aig::par::max_threads()
    }
    .max(1);
    // Slots are CPU-bound, so the pool never oversubscribes physical
    // cores ([`aig::par::worker_threads`]); results are independent of
    // the slot count, only wall-clock changes.
    let nslots = wave_cap.min(aig::par::worker_threads()).max(1);

    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let initial = evaluator.evaluate_ctx(aig, ctx);
    assert!(
        initial.delay > 0.0 && initial.area > 0.0,
        "initial metrics must be positive for normalization, got {initial:?}"
    );

    // Forks hold shared borrows of `evaluator` from here on; the
    // master evaluator is never consulted again (commits reuse the
    // speculated metrics).
    let mut forks: Vec<Box<dyn CostEvaluator + Send + '_>> = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        forks.push(evaluator.fork()?);
    }

    let scalar = |m: &CostMetrics| {
        opts.weight_delay * m.delay / initial.delay + opts.weight_area * m.area / initial.area
    };
    let mut current = aig.clone();
    let mut current_cost = scalar(&initial);
    let mut best: Option<Aig> = None;
    let mut best_metrics = initial;
    let mut best_cost = current_cost;
    let mut temp = opts.initial_temp;
    let mut evaluated = Vec::with_capacity(opts.iterations + 1);
    evaluated.push(initial);
    let mut accepted = 0usize;
    let mut history = Vec::with_capacity(opts.iterations);

    // Master-side analysis (scout walks + commit substitutions); the
    // warm buffers live in the context like the serial engine's.
    let mut engine = ctx.take_engine();
    let (inc, db) = engine.get_or_insert_with(|| {
        (
            IncrementalAnalysis::default(),
            CutDb::new(INPLACE_CUT_SIZE, INPLACE_MAX_CUTS),
        )
    });
    inc.rebuild(&current);
    // The master cut database is kept warm alongside the analysis so
    // slot resyncs can clone it instead of re-enumerating cuts.
    db.build(&current);

    // Worker slots: pooled on the context, content resynced lazily.
    let mut slots = ctx.take_spec_slots();
    for s in &mut slots {
        s.epoch = usize::MAX;
        s.ctx.repoint_resynth(ctx.shared_resynth());
    }
    let mut newly_spawned = 0usize;
    while slots.len() < nslots {
        slots.push(SpecSlot::new(ctx.shared_resynth()));
        newly_spawned += 1;
    }

    let mut stats = SpecStats {
        contexts_spawned: newly_spawned,
        ..SpecStats::default()
    };
    let mut commit_log: Vec<CommittedMove> = Vec::new();
    let mut iters = 0usize;

    while iters < opts.iterations {
        // ---- 1. Scout: pre-draw a wave from a cloned RNG. ----
        let mut scout = rng.clone();
        let mut plan: Vec<Planned> = Vec::new();
        let mut windows: Vec<ConeWindow> = Vec::new();
        while plan.len() < wave_cap && iters + plan.len() < opts.iterations {
            let ridx = scout.gen_range(0..actions.len());
            let inplace = actions[ridx]
                .as_inplace()
                .map(|plan| (plan, scout.gen_range(0..current.num_nodes() as NodeId)));
            let _acceptance_sample: f64 = scout.gen();
            if let Some((plan, start)) = inplace {
                let win = ConeWindow::from_live_walk(&current, inc, start, plan_window(plan));
                if windows.iter().any(|w| w.overlaps(&win)) {
                    stats.overlapping_windows += 1;
                }
                windows.push(win);
            }
            plan.push(Planned { ridx, inplace });
        }
        stats.waves += 1;

        // ---- 2 + 3 + 4. Score, commit in order, replay on accept. ----
        let mut base = 0usize;
        'round: while base < plan.len() {
            let todo = &plan[base..];
            let mut scored = dispatch(
                todo,
                &mut slots[..nslots],
                &mut forks,
                &current,
                inc,
                db,
                &commit_log,
                actions,
            );
            stats.dispatches += 1;
            stats.speculated += todo.len();
            for k in 0..scored.len() {
                let j = base + k;
                // Re-draw from the true RNG, mirroring the serial
                // loop draw for draw.
                let ridx = rng.gen_range(0..actions.len());
                debug_assert_eq!(ridx, plan[j].ridx, "scout diverged on the recipe draw");
                if let Some((_, planned_start)) = plan[j].inplace {
                    let start = rng.gen_range(0..current.num_nodes() as NodeId);
                    debug_assert_eq!(start, planned_start, "scout diverged on the window draw");
                }
                let metrics = scored[k].metrics;
                let cost = scalar(&metrics);
                let accept = metropolis(cost - current_cost, temp, &mut rng);
                evaluated.push(metrics);
                let it = iters;
                iters += 1;
                stats.committed += 1;
                let mut committed_dirty: Option<DirtyRegion> = None;
                let mut ends_wave = false;
                if accept {
                    accepted += 1;
                    if plan[j].inplace.is_some() {
                        if !scored[k].ops.is_empty() {
                            let ops = std::mem::take(&mut scored[k].ops);
                            let nodes_before = current.num_nodes();
                            let mut txn = Transaction::begin(&mut current, inc);
                            replay_ops(&mut txn, db, &ops);
                            txn.commit();
                            if current.num_nodes() != nodes_before {
                                // The move appended fresh nodes: the
                                // scout's remaining window draws were
                                // made against the old node count and
                                // no longer match the true stream.
                                ends_wave = true;
                            }
                            commit_log.push(CommittedMove::InPlace { ops });
                            committed_dirty = Some(std::mem::take(&mut scored[k].dirty));
                            stats.accepted_edits += 1;
                        }
                        // Accepted no-op move: the graph is unchanged,
                        // so later speculations in this wave stay
                        // exact — the wave continues.
                    } else {
                        current = scored[k].candidate.take().expect("whole-graph move scored");
                        inc.rebuild(&current);
                        db.build(&current);
                        commit_log.push(CommittedMove::WholeGraph);
                        stats.accepted_edits += 1;
                        ends_wave = true;
                    }
                    current_cost = cost;
                    if cost < best_cost {
                        best_cost = cost;
                        best = Some(current.clone());
                        best_metrics = metrics;
                    }
                    // Deterministic compaction checkpoint, mirroring
                    // the serial loop bit for bit (after the best
                    // clone). Sweeping renumbers ids, so the wave
                    // ends and replicas resync by cloning.
                    if should_compact(it, &current) {
                        current = current.sweep();
                        inc.rebuild(&current);
                        db.build(&current);
                        commit_log.push(CommittedMove::WholeGraph);
                        ends_wave = true;
                    }
                }
                temp *= opts.decay;
                history.push(current_cost);

                if ends_wave {
                    // The node count changed: the scout's remaining
                    // window draws no longer match what the true RNG
                    // will produce. Discard them; the next wave
                    // re-draws from the (identical) true stream.
                    stats.discarded += plan.len() - (j + 1);
                    break 'round;
                }
                if let Some(dirty) = committed_dirty {
                    // Remaining speculations are stale: same moves,
                    // pre-commit metrics. Re-score them against the
                    // committed state and resume the commit loop.
                    for r in &scored[k + 1..] {
                        if r.dirty.overlaps(&dirty) {
                            stats.replayed_conflicting += 1;
                        } else {
                            stats.replayed_stale += 1;
                        }
                    }
                    base = j + 1;
                    continue 'round;
                }
            }
            break 'round;
        }
    }

    ctx.put_engine(engine);
    ctx.put_spec_slots(slots, newly_spawned);
    Some(SaResult {
        best: best.unwrap_or_else(|| aig.clone()),
        best_metrics,
        best_cost,
        evaluated,
        accepted,
        history,
        spec: Some(stats),
    })
}

/// Scores `todo` on the worker slots (move `j` on slot `j % w`) and
/// returns results in move order.
#[allow(clippy::too_many_arguments)]
fn dispatch<'e>(
    todo: &[Planned],
    slots: &mut [SpecSlot],
    forks: &mut [Box<dyn CostEvaluator + Send + 'e>],
    master: &Aig,
    master_inc: &IncrementalAnalysis,
    master_db: &CutDb,
    log: &[CommittedMove],
    actions: &[Recipe],
) -> Vec<Scored> {
    let w = slots.len().min(todo.len()).max(1);
    let mut workers: Vec<(&mut SpecSlot, &mut Box<dyn CostEvaluator + Send + 'e>)> =
        slots.iter_mut().zip(forks.iter_mut()).take(w).collect();
    let per_worker = aig::par::par_map_mut(&mut workers, |i, (slot, eval)| {
        let mut out: Vec<(usize, Scored)> = Vec::new();
        let mine = todo.iter().enumerate().filter(|(j, _)| j % w == i);
        for (j, planned) in mine {
            if out.is_empty() {
                sync_slot(slot, master, master_inc, master_db, log);
            }
            out.push((j, score_one(slot, eval.as_mut(), planned, actions)));
        }
        out
    });
    let mut results: Vec<Option<Scored>> = (0..todo.len()).map(|_| None).collect();
    for chunk in per_worker {
        for (j, s) in chunk {
            results[j] = Some(s);
        }
    }
    results
        .into_iter()
        .map(|s| s.expect("every move scored by exactly one slot"))
        .collect()
}

/// Brings a slot's replica up to the master state: replays the commit
/// log's substitution journals through a transaction (footprint-
/// bounded), or — after a whole-graph commit or across runs — clones
/// the master's warm graph/analysis/cut-database triple wholesale
/// (the [`CutDb`] clone takes a fresh instance id, so a stale
/// `seen_versions` snapshot in the slot's map context can never alias
/// the new database's version counters).
fn sync_slot(
    slot: &mut SpecSlot,
    master: &Aig,
    master_inc: &IncrementalAnalysis,
    master_db: &CutDb,
    log: &[CommittedMove],
) {
    let behind = if slot.epoch == usize::MAX {
        log
    } else {
        &log[slot.epoch..]
    };
    let incremental = slot.epoch != usize::MAX
        && behind
            .iter()
            .all(|m| matches!(m, CommittedMove::InPlace { .. }));
    if incremental {
        for entry in behind {
            let CommittedMove::InPlace { ops } = entry else {
                unreachable!()
            };
            let mut txn = Transaction::begin(&mut slot.replica, &mut slot.inc);
            replay_ops(&mut txn, &mut slot.db, ops);
            let min = txn.min_touched();
            // Delta-based evaluators need the replay's footprint in
            // their next scope region (the watermark alone is enough
            // only for watermark-based ones). Merge dedups, so the
            // accumulator stays bounded by the replica size.
            slot.pending.merge(txn.touched_region());
            txn.commit();
            slot.rows_since = slot.rows_since.min(min);
        }
    } else if !behind.is_empty() || slot.epoch == usize::MAX {
        slot.replica.clone_from(master);
        slot.inc.clone_from(master_inc);
        slot.db.clone_from(master_db);
        slot.state_suspect = true;
        slot.pending.clear(); // a suspect state already forces a rebuild
    }
    slot.epoch = log.len();
    debug_assert_eq!(slot.replica.num_nodes(), master.num_nodes());
}

/// Scores one move on a synced slot, mirroring the serial loop's
/// reject protocol exactly (score, roll back, resync the evaluator).
fn score_one(
    slot: &mut SpecSlot,
    eval: &mut (dyn CostEvaluator + Send),
    planned: &Planned,
    actions: &[Recipe],
) -> Scored {
    match planned.inplace {
        Some((plan, start)) => {
            slot.db.begin_edit();
            let mut txn = Transaction::begin(&mut slot.replica, &mut slot.inc);
            let mut ops = Vec::new();
            run_inplace_plan(
                plan,
                &mut txn,
                &mut slot.db,
                slot.ctx.resynth(),
                start,
                Some(&mut ops),
            );
            let move_min = txn.min_touched();
            let dirty = txn.touched_region().clone();
            // The scope region covers everything a delta-based
            // evaluator's state may lag the edited replica by: the
            // move's own footprint plus replays it has not absorbed.
            slot.scope_region.clear();
            slot.scope_region.merge(&slot.pending);
            slot.scope_region.merge(txn.touched_region());
            let since = slot.rows_since.min(move_min);
            let scope = if slot.state_suspect {
                EditScope::whole_graph(&slot.db)
            } else {
                EditScope::new(&slot.db, since)
            }
            .with_delta(&slot.scope_region, txn.analysis());
            let metrics = eval.evaluate_edit(txn.aig(), &scope, &mut slot.ctx);
            txn.rollback();
            slot.db.rollback_edit();
            if eval.wants_rollback_resync() {
                // Delta-based evaluators must track the replica
                // exactly; re-sync over the same footprint against
                // the restored analysis, which also absorbs the
                // pending replays.
                let scope =
                    EditScope::new(&slot.db, since).with_delta(&slot.scope_region, &slot.inc);
                eval.resync_edit(&slot.replica, &scope, &mut slot.ctx);
                slot.pending.clear();
            }
            // Watermark-based evaluators skip the rollback resync:
            // the serial loop re-syncs after every reject, paying a
            // second pass per move. A slot instead leaves the forked
            // evaluator mirroring the *edited* graph —
            // `evaluate_edit` synced it everywhere (rows below the
            // watermark were already clean, rows above were brought
            // up to date), so the rolled-back replica differs from
            // the evaluator state only inside this move's footprint
            // and `move_min` alone is the conservative watermark for
            // the next score. One evaluator pass per speculated move
            // instead of two.
            slot.rows_since = move_min;
            slot.state_suspect = false;
            Scored {
                metrics,
                ops,
                dirty,
                candidate: None,
            }
        }
        None => {
            let candidate = actions[planned.ridx].apply_with(&slot.replica, slot.ctx.resynth());
            let metrics = eval.evaluate_ctx(&candidate, &mut slot.ctx);
            slot.state_suspect = true;
            slot.pending.clear(); // a suspect state forces a rebuild
            Scored {
                metrics,
                ops: Vec::new(),
                dirty: DirtyRegion::default(),
                candidate: Some(candidate),
            }
        }
    }
}
