//! End-to-end benchmark of the three simulated-annealing flows:
//! baseline (`ProxyCost`), ground truth (`GroundTruthCost`) and ML
//! (`MlCost`), driven through `saopt::optimize_with` and `saopt::sweep`.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5_ex11 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One run sets up the workload several times (design, degrade, corpus
//! labelling, model training, forest flattening), then runs *reps*
//! until `--seconds` are spent. A rep is one flow's grid of SA runs on
//! one of the workload's instances (a *unit*), plus the ground-truth
//! re-pricing of every best AIG. Reps of one unit repeat the same
//! deterministic work: the first is checked in full, every later one
//! must reproduce it bit for bit, and the fastest measures throughput
//! (see `report::rate`). `--trace 1` alternates untraced and traced
//! reps and reports per-layer figures instead (see `trace.rs`).
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Each SA chain (or sweep point) of each rep is one operation.

mod report;
mod run;
mod trace;

use aig::Aig;
use benchgen::Design;
use cells::Library;
use experiments::table3::{train_models, Corpus};
use gbt::{Forest, GbtModel, GbtParams};
use run::{Bench, Fnv, Rep, Tally};
use std::time::Instant;
use trace::{Flow, Span, Trace};
use transform::Recipe;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Labelled variants per suite design in the training corpus.
const CORPUS_SAMPLES: usize = 30;
/// Seed of the training corpus and of model training.
const CORPUS_SEED: u64 = 2024;
/// Boosting rounds of each model (early stopping may end sooner).
const GBT_ROUNDS: usize = 120;
/// Random-simulation words (64 patterns each) of the equivalence
/// check, for designs with more than 16 inputs.
pub const EQUIV_WORDS: usize = 64;

/// How a workload runs each flow on one instance.
#[derive(Clone, Copy)]
pub enum Grid {
    /// One serial `optimize_with` chain per flow (`AIG_THREADS=1`).
    Chain {
        iterations: usize,
        initial_temp: f64,
        decay: f64,
    },
    /// The Fig. 5 grid through `saopt::sweep` (`AIG_THREADS=nproc`).
    Sweep { iterations: usize },
}

pub struct Workload {
    name: &'static str,
    design: fn() -> Design,
    degrade: bool,
    /// Restrict the actions to the recipes with an in-place plan.
    inplace_only: bool,
    grid: Grid,
    /// Inputs per run, each with its own degrade and SA seeds. The
    /// figures sum or average over them, so one seed's draw of inputs
    /// and moves does not set the result. Many short units rather than
    /// a few long ones keep the rotation short (see `main`).
    instances: usize,
}

/// The large-tier construction (`benchgen::large_10k`'s tiles) cut
/// to about 2k ANDs.
fn large_2k() -> Design {
    benchgen::large_mix(2_000)
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "inplace_large2k",
        design: large_2k,
        degrade: false,
        inplace_only: true,
        // A cold start: the chain rejects every move that raises the
        // cost from its first iteration on.
        grid: Grid::Chain {
            iterations: 50,
            initial_temp: 1e-5,
            decay: 0.95,
        },
        instances: 16,
    },
    Workload {
        name: "fig5_ex11",
        design: benchgen::ex11,
        degrade: true,
        inplace_only: false,
        grid: Grid::Sweep { iterations: 5 },
        instances: 4,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Derives an independent seed stream from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn pin_threads(n: usize) {
    // Set only between phases, while no other thread runs.
    std::env::set_var("AIG_THREADS", n.to_string());
}

/// Names of the set-up phases, in order, as per-layer metric names.
pub const PHASES: [&str; 5] = [
    "benchgen.design_s",
    "experiments.degrade_s",
    "experiments.corpus_s",
    "gbt.train_s",
    "gbt.flatten_s",
];

/// Everything made before the first SA iteration.
pub struct Setup {
    lib: Library,
    /// One input per instance.
    inputs: Vec<Aig>,
    actions: Vec<Recipe>,
    delay_model: GbtModel,
    area_model: GbtModel,
    delay_forest: Forest,
    area_forest: Forest,
    phase_s: [f64; 5],
    total_s: f64,
}

fn build_setup(w: &Workload, seed: u64) -> Setup {
    pin_threads(nproc());
    let t = Instant::now();
    let mut lap = Instant::now();
    let mut phase_s = [0.0; 5];
    let mut mark = |i: usize| {
        phase_s[i] = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let design = (w.design)();
    mark(0);
    let inputs: Vec<Aig> = (0..w.instances)
        .map(|i| {
            if w.degrade {
                experiments::datagen::degrade(&design.aig, derive(seed, 100 + i as u64))
            } else {
                design.aig.clone()
            }
        })
        .collect();
    mark(1);
    // One fixed corpus and model for every workload seed: the trained
    // model is the program's, not an input the seed should vary.
    let corpus = Corpus::generate(&experiments::Config {
        samples: CORPUS_SAMPLES,
        seed: CORPUS_SEED,
        ..experiments::Config::smoke()
    });
    mark(2);
    let params = GbtParams {
        num_rounds: GBT_ROUNDS,
        seed: CORPUS_SEED,
        ..GbtParams::default()
    };
    let (delay_model, area_model) = train_models(&corpus, &params);
    mark(3);
    let delay_forest = Forest::flatten(&delay_model);
    let area_forest = Forest::flatten(&area_model);
    mark(4);
    let actions: Vec<Recipe> = transform::recipes()
        .into_iter()
        .filter(|r| !w.inplace_only || r.as_inplace().is_some())
        .collect();
    Setup {
        lib: cells::sky130ish(),
        inputs,
        actions,
        delay_model,
        area_model,
        delay_forest,
        area_forest,
        phase_s,
        total_s: t.elapsed().as_secs_f64(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "workload {} seed {} nproc {} (AIG_THREADS: set-up {}, runs {})",
        w.name,
        args.seed,
        nproc(),
        nproc(),
        match w.grid {
            Grid::Chain { .. } => 1,
            Grid::Sweep { .. } => nproc(),
        }
    );
    // Each set-up is dropped before the next is built, so peak memory
    // holds one.
    let mut setup: Option<Setup> = None;
    let mut phases = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let s = build_setup(w, args.seed);
        phases.push(s.phase_s);
        setup_s.push(s.total_s);
        setup = Some(s);
    }
    eprintln!("set-up {setup_s:?} s");
    let b = Bench {
        w,
        s: setup.as_ref().expect("at least one set-up"),
        seed: args.seed,
    };

    // Reps rotate over the units (instance, flow) until `--seconds`
    // are spent; the first rep of each unit is its reference. One rep
    // runs one unit, so every unit gets one rep per cycle whatever its
    // flow costs, and a short cycle spreads each unit's reps over the
    // whole run. With `--trace 1` each untraced rep is followed by a
    // traced rep of the same unit.
    let units: Vec<(usize, Flow)> = (0..w.instances)
        .flat_map(|i| Flow::ALL.map(|f| (i, f)))
        .collect();
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut refs: Vec<Option<run::Reference>> = units.iter().map(|_| None).collect();
    let mut last_s = vec![0.0; units.len()];
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Trace)> = Vec::new();
    let mut rep_no = 0u64;
    for n in 0.. {
        let u = n % units.len();
        if n >= units.len() && epoch.elapsed().as_secs_f64() + last_s[u] > args.seconds {
            break;
        }
        let (inst, flow) = units[u];
        let t = Instant::now();
        let rep = b.run_rep(inst, flow, None, rep_no);
        run::check_rep(&b, &rep, &mut refs[u], &mut tally);
        eprintln!(
            "rep {} (instance {inst}, {}): {:.3} s, {} {:.3} s",
            reps.len() + 1,
            flow.tag(),
            rep.wall_s,
            match w.grid {
                Grid::Chain { .. } => "chain",
                Grid::Sweep { .. } => "sweep",
            },
            rep.run.wall_s,
        );
        reps.push(rep.into_summary());
        rep_no += 1;
        if args.trace {
            let tr = Trace::new(epoch);
            let rep = b.run_rep(inst, flow, Some(&tr), rep_no);
            if let Some(r) = &refs[u] {
                run::check_traced(&b, &rep, &tr, r, &mut tally);
            }
            traced.push((rep.into_summary(), tr));
            rep_no += 1;
        }
        last_s[u] = t.elapsed().as_secs_f64();
    }

    let metrics = if args.trace {
        let spans: Vec<Span> = traced.iter().flat_map(|(_, t)| t.spans()).collect();
        trace::print_self_times(&spans);
        report::print_coverage(&spans, &traced);
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
        match trace::write_tsv(&spans, &out) {
            Ok(()) => eprintln!("spans written to {}", out.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", out.display()),
        }
        report::per_layer(&b, &phases, &traced, &reps, &refs)
    } else {
        report::end_to_end(&b, &setup_s, &reps, &refs)
    };

    // Identical for two runs with one seed: the references' results.
    let mut h = Fnv::new();
    for r in refs.iter().flatten() {
        r.fingerprints.iter().for_each(|&x| h.u64(x));
        r.repriced.iter().for_each(|&m| h.metrics(m));
    }
    eprintln!("digest {:016x}", h.0);
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<36} {v:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && refs.iter().all(Option::is_some),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
