//! Determinism guarantees: every pipeline stage is a pure function of
//! its inputs and seeds. Reproducibility is load-bearing for the
//! experiments (paper-vs-measured comparisons) and for the parallel
//! labeling path, which must agree with sequential evaluation.

use aig_timing::prelude::*;
use experiments::datagen::{generate_variants, labeled_set, Target};

fn fingerprint(g: &Aig) -> (usize, usize, u32) {
    (
        g.num_ands(),
        g.num_outputs(),
        aig::analysis::levels(g).max_level,
    )
}

#[test]
fn suite_generation_is_deterministic() {
    let a = iwls_like_suite();
    let b = iwls_like_suite();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(fingerprint(&x.aig), fingerprint(&y.aig), "{}", x.name);
        assert_eq!(
            aig::aiger::to_ascii(&x.aig),
            aig::aiger::to_ascii(&y.aig),
            "{}: bit-identical AIGER expected",
            x.name
        );
    }
}

#[test]
fn transforms_are_deterministic() {
    let d = benchgen::ex68();
    for t in Transform::ALL {
        let a = transform::apply(&d.aig, t);
        let b = transform::apply(&d.aig, t);
        assert_eq!(
            aig::aiger::to_ascii(&a),
            aig::aiger::to_ascii(&b),
            "{t} must be deterministic"
        );
    }
}

#[test]
fn variant_walks_replay_exactly() {
    let d = benchgen::ex00();
    let a = generate_variants(&d.aig, 10, 123);
    let b = generate_variants(&d.aig, 10, 123);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(aig::aiger::to_ascii(x), aig::aiger::to_ascii(y));
    }
    // A different seed must diverge somewhere.
    let c = generate_variants(&d.aig, 10, 124);
    assert!(
        a.iter()
            .zip(&c)
            .any(|(x, y)| aig::aiger::to_ascii(x) != aig::aiger::to_ascii(y)),
        "different seeds should explore differently"
    );
}

#[test]
fn training_pipeline_reproduces_bitwise() {
    let lib = sky130ish();
    let d = benchgen::ex68();
    let mk = || {
        let set = labeled_set(&d, 30, 5, &lib);
        let model = gbt::train(
            &set.to_dataset(Target::Delay),
            &GbtParams {
                num_rounds: 30,
                seed: 9,
                ..GbtParams::default()
            },
        );
        let probe = features::extract(&d.aig);
        model.predict_f64(probe.as_slice())
    };
    assert_eq!(mk(), mk());
}

#[test]
fn sa_runs_replay_with_seed() {
    let d = benchgen::ex68();
    let actions = recipes();
    let opts = SaOptions {
        iterations: 8,
        seed: 77,
        ..SaOptions::default()
    };
    let a = optimize(&d.aig, &mut ProxyCost, &actions, &opts);
    let b = optimize(&d.aig, &mut ProxyCost, &actions, &opts);
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.history, b.history);
    assert_eq!(aig::aiger::to_ascii(&a.best), aig::aiger::to_ascii(&b.best));
}

#[test]
fn mapping_and_sizing_are_deterministic() {
    let lib = sky130ish();
    let d = benchgen::ex00();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let run = || {
        let mut nl = mapper.map(&d.aig).expect("ok");
        techmap::resize_greedy(&mut nl, &lib, 2);
        sta::delay_and_area(&nl, &lib)
    };
    assert_eq!(run(), run());
}
