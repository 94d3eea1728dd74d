//! Running one rep (every flow on one instance) and checking it.

use crate::trace::{same_bits, Flow, Inspect, Probe, Span, Trace, Traced};
use crate::{derive, nproc, pin_threads, Grid, Setup, Workload, EQUIV_WORDS};
use aig::Aig;
use saopt::{
    optimize_with, sweep, CostEvaluator, CostMetrics, EvalContext, GroundTruthCost, MlCost,
    ProxyCost,
};
use saopt::{SaOptions, SaResult, SweepConfig, SweepPoint};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// FNV-1a, for fingerprints that must repeat across runs.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn metrics(&mut self, m: CostMetrics) {
        self.u64(m.delay.to_bits());
        self.u64(m.area.to_bits());
    }
}

/// One SA run's outcome, reduced to what the checks compare.
pub struct Point {
    pub best: Aig,
    pub metrics: CostMetrics,
    /// AIGER bytes of `best` plus, for chains, the `evaluated` vector
    /// and the accept count.
    pub fingerprint: u64,
    pub accepted: Option<usize>,
}

fn chain_point(r: SaResult) -> Point {
    let mut h = Fnv::new();
    h.bytes(&aig::aiger::to_binary(&r.best));
    for m in &r.evaluated {
        h.metrics(*m);
    }
    h.u64(r.accepted as u64);
    Point {
        metrics: r.best_metrics,
        fingerprint: h.0,
        accepted: Some(r.accepted),
        best: r.best,
    }
}

fn sweep_point(p: SweepPoint) -> Point {
    let mut h = Fnv::new();
    h.bytes(&aig::aiger::to_binary(&p.best));
    h.metrics(p.flow_metrics);
    Point {
        metrics: p.flow_metrics,
        fingerprint: h.0,
        accepted: None,
        best: p.best,
    }
}

/// What `optimize_with` or `sweep` returned.
enum Raw {
    Chain(Box<SaResult>),
    Sweep(Vec<SweepPoint>),
}

/// One flow's grid within one rep.
pub struct FlowRun {
    /// Wall time of the `optimize_with` / `sweep` call alone.
    pub wall_s: f64,
    pub iterations: usize,
    /// `None` when the run panicked.
    pub points: Option<Vec<Point>>,
}

/// One rep: one flow's grid on one instance (a *unit*), then
/// (untraced reps only) the ground-truth re-pricing of every best AIG.
pub struct Rep {
    pub inst: usize,
    pub flow: Flow,
    pub run: FlowRun,
    pub repriced: Vec<CostMetrics>,
    /// Wall time of the whole rep, re-pricing included.
    pub wall_s: f64,
}

impl Rep {
    /// Drops the best AIGs once the rep is checked, so memory does not
    /// grow with the number of reps.
    pub fn into_summary(self) -> Rep {
        Rep {
            run: FlowRun {
                points: None,
                ..self.run
            },
            ..self
        }
    }
}

/// Index of the unit (instance, flow) among all of a workload's units.
pub fn unit(inst: usize, flow: Flow) -> usize {
    inst * Flow::ALL.len() + flow as usize
}

pub struct Bench<'s> {
    pub w: &'static Workload,
    pub s: &'s Setup,
    pub seed: u64,
}

impl<'s> Bench<'s> {
    /// SA runs per flow and instance.
    pub fn grid_points(&self) -> usize {
        match self.w.grid {
            Grid::Chain { .. } => 1,
            Grid::Sweep { .. } => {
                let c = SweepConfig::default();
                c.weights.len() * c.decays.len()
            }
        }
    }

    /// SA iterations per flow and instance.
    pub fn iterations(&self) -> usize {
        match self.w.grid {
            Grid::Chain { iterations, .. } | Grid::Sweep { iterations } => {
                iterations * self.grid_points()
            }
        }
    }

    fn sa_seed(&self, inst: usize) -> u64 {
        derive(self.seed, 200 + inst as u64)
    }

    pub fn run_rep(&self, inst: usize, flow: Flow, trace: Option<&Trace>, rep: u64) -> Rep {
        let t = Instant::now();
        let run = self.run_flow(flow, inst, trace, rep * 1_000_000);
        let mut repriced = Vec::new();
        if trace.is_none() {
            let mut gt = GroundTruthCost::new(&self.s.lib);
            repriced = run
                .points
                .iter()
                .flatten()
                .map(|p| gt.evaluate(&p.best))
                .collect();
        }
        Rep {
            inst,
            flow,
            run,
            repriced,
            wall_s: t.elapsed().as_secs_f64(),
        }
    }

    fn run_flow(&self, flow: Flow, inst: usize, trace: Option<&Trace>, op_base: u64) -> FlowRun {
        let s = self.s;
        match flow {
            Flow::Baseline => {
                self.run_with(flow, inst, trace, op_base, || ProxyCost, || Probe::Off)
            }
            Flow::Gt => self.run_with(
                flow,
                inst,
                trace,
                op_base,
                || GroundTruthCost::new(&s.lib),
                || Probe::gt(&s.lib),
            ),
            Flow::Ml => self.run_with(
                flow,
                inst,
                trace,
                op_base,
                || MlCost::new(&s.delay_model, &s.area_model),
                || Probe::Ml {
                    delay: &s.delay_forest,
                    area: &s.area_forest,
                },
            ),
        }
    }

    fn run_with<E, F, P>(
        &self,
        flow: Flow,
        inst: usize,
        trace: Option<&Trace>,
        op_base: u64,
        make: F,
        probe: P,
    ) -> FlowRun
    where
        E: Inspect,
        F: Fn() -> E + Sync,
        P: Fn() -> Probe<'s> + Sync,
    {
        let s = self.s;
        let input = &s.inputs[inst];
        let seed = self.sa_seed(inst);
        pin_threads(match self.w.grid {
            Grid::Chain { .. } => 1,
            Grid::Sweep { .. } => nproc(),
        });
        // Times the `optimize_with` / `sweep` call alone: evaluator
        // construction and fingerprinting are not part of its wall time.
        let timed = |f: &mut dyn FnMut() -> Raw| {
            let t = Instant::now();
            let raw = f();
            (raw, t.elapsed().as_secs_f64())
        };
        let run = catch_unwind(AssertUnwindSafe(|| match (self.w.grid, trace) {
            (
                Grid::Chain {
                    iterations,
                    initial_temp,
                    decay,
                },
                _,
            ) => {
                let opts = SaOptions {
                    iterations,
                    initial_temp,
                    decay,
                    seed,
                    ..SaOptions::default()
                };
                let mut ctx = EvalContext::new();
                match trace {
                    None => {
                        let mut e = make();
                        timed(&mut || {
                            Raw::Chain(Box::new(optimize_with(
                                input, &mut e, &s.actions, &opts, &mut ctx,
                            )))
                        })
                    }
                    Some(tr) => {
                        let mut e = Traced::new(make(), flow, tr, input, probe());
                        timed(&mut || {
                            e.open_chain(op_base + 1);
                            let r = optimize_with(input, &mut e, &s.actions, &opts, &mut ctx);
                            e.close_chain();
                            Raw::Chain(Box::new(r))
                        })
                    }
                }
            }
            (Grid::Sweep { iterations }, None) => {
                let cfg = SweepConfig {
                    iterations,
                    seed,
                    ..SweepConfig::default()
                };
                timed(&mut || Raw::Sweep(sweep(input, &make, &s.actions, &cfg)))
            }
            (Grid::Sweep { iterations }, Some(tr)) => {
                let cfg = SweepConfig {
                    iterations,
                    seed,
                    ..SweepConfig::default()
                };
                let workers = AtomicU32::new(0);
                let id = tr.id();
                timed(&mut || {
                    let start = tr.now();
                    let make_traced = || {
                        // A worker id: the counter publishes no other data.
                        let worker = workers.fetch_add(1, Ordering::Relaxed);
                        let op = op_base + 1000 * u64::from(worker);
                        Traced::new(make(), flow, tr, input, probe()).for_sweep(worker, id, op)
                    };
                    let pts = sweep(input, make_traced, &s.actions, &cfg);
                    tr.record(Span {
                        id,
                        name: "saopt.sweep",
                        flow: Some(flow),
                        start,
                        end: tr.now(),
                        parent: 0,
                        op: op_base,
                        worker: 0,
                    });
                    Raw::Sweep(pts)
                })
            }
        }));
        let iterations = self.iterations();
        match run {
            Ok((raw, wall_s)) => FlowRun {
                wall_s,
                iterations,
                points: Some(match raw {
                    Raw::Chain(r) => vec![chain_point(*r)],
                    Raw::Sweep(pts) => pts.into_iter().map(sweep_point).collect(),
                }),
            },
            Err(_) => {
                eprintln!("{} flow panicked on instance {inst}", flow.tag());
                FlowRun {
                    wall_s: f64::NAN,
                    iterations,
                    points: None,
                }
            }
        }
    }
}

/// What a unit's first rep established; its later reps must match it
/// bit for bit.
pub struct Reference {
    pub fingerprints: Vec<u64>,
    /// Ground-truth metrics of every best AIG.
    pub repriced: Vec<CostMetrics>,
    /// Accept count of every chain (empty for sweeps).
    pub accepted: Vec<usize>,
}

/// Operations attempted and failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Checks an untraced rep. A unit's first rep establishes its
/// reference: every best AIG must be equivalent to the input (by
/// random simulation above 16 inputs) and the ground-truth flow's
/// best must re-price to exactly its reported metrics. Later reps must
/// reproduce the reference.
pub fn check_rep(b: &Bench<'_>, rep: &Rep, reference: &mut Option<Reference>, tally: &mut Tally) {
    let input = &b.s.inputs[rep.inst];
    let flow = rep.flow;
    let Some(points) = &rep.run.points else {
        (0..b.grid_points()).for_each(|_| tally.op(false));
        return;
    };
    for (i, p) in points.iter().enumerate() {
        let repriced = rep.repriced[i];
        let mut ok = flow != Flow::Gt || same_bits(repriced, p.metrics);
        match reference {
            None => {
                let eq = aig::sim::equiv_auto(input, &p.best, EQUIV_WORDS, derive(b.seed, 9));
                if !matches!(eq, Ok(true)) {
                    eprintln!("{} point {i}: best AIG not equivalent ({eq:?})", flow.tag());
                    ok = false;
                }
            }
            Some(r) => {
                ok &= r.fingerprints.get(i) == Some(&p.fingerprint)
                    && r.repriced.get(i).is_some_and(|m| same_bits(*m, repriced));
            }
        }
        if !ok {
            eprintln!(
                "{} instance {} point {i}: check failed",
                flow.tag(),
                rep.inst
            );
        }
        tally.op(ok);
    }
    if reference.is_none() {
        *reference = Some(Reference {
            fingerprints: points.iter().map(|p| p.fingerprint).collect(),
            repriced: rep.repriced.clone(),
            accepted: points.iter().filter_map(|p| p.accepted).collect(),
        });
    }
}

/// Checks a traced rep: its results must equal the untraced reference
/// (tracing must not perturb the search), and every probe must have
/// matched its evaluator.
pub fn check_traced(
    b: &Bench<'_>,
    rep: &Rep,
    trace: &Trace,
    reference: &Reference,
    tally: &mut Tally,
) {
    let flow = rep.flow;
    let Some(points) = &rep.run.points else {
        (0..b.grid_points()).for_each(|_| tally.op(false));
        return;
    };
    let perturbed = points
        .iter()
        .enumerate()
        .filter(|(i, p)| reference.fingerprints.get(*i) != Some(&p.fingerprint))
        .count();
    if perturbed > 0 {
        eprintln!(
            "{}: {perturbed} traced results differ from untraced",
            flow.tag()
        );
    }
    let mismatches: u64 = trace
        .counters()
        .iter()
        .filter(|c| c.flow == Some(flow))
        .map(|c| c.probe_mismatches)
        .sum();
    let bad = (perturbed + mismatches as usize).min(points.len());
    for i in 0..points.len() {
        tally.op(i >= bad);
    }
}
