//! The reported metrics: end-to-end figures of the untraced reps and
//! per-layer figures of the traced ones (README.md maps each layer
//! figure to the end-to-end figure it should move).

use crate::run::{unit, Bench, Reference, Rep};
use crate::trace::{self_times, Counters, Flow, Span, Trace};
use crate::{nproc, Grid, PHASES};
use std::collections::BTreeMap;

/// Metric name, value, unit, in output order.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Quantile `q` (0..=1) by nearest rank, except that the median of an
/// even-sized sample averages its middle pair; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if q == 0.5 && s.len().is_multiple_of(2) {
        return 0.5 * (s[s.len() / 2 - 1] + s[s.len() / 2]);
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// One flow's work per second over the instances: their iterations
/// over the sum of each unit's fastest wall time.
///
/// Every rep of a unit repeats the same deterministic work, so its
/// fastest rep is the program's cost and the slower ones add the
/// shared host's interference. On the reference VM that interference
/// slowed every unit of a rotation alike for seconds at a time, by up
/// to a third; a short rotation gives each unit reps in the fast
/// phases too.
fn rate(b: &Bench<'_>, walls: impl Iterator<Item = (usize, f64)>) -> f64 {
    let per_inst = fastest(walls);
    let iterations = b.iterations();
    let total: f64 = per_inst.values().sum();
    if total > 0.0 {
        (iterations * per_inst.len()) as f64 / total
    } else {
        0.0
    }
}

/// The fastest sample of each key.
fn fastest<K: Ord>(samples: impl Iterator<Item = (K, f64)>) -> BTreeMap<K, f64> {
    let mut by: BTreeMap<K, f64> = BTreeMap::new();
    for (key, v) in samples {
        let e = by.entry(key).or_insert(f64::INFINITY);
        *e = e.min(v);
    }
    by
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|st| {
            st.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn end_to_end(
    b: &Bench<'_>,
    setup_s: &[f64],
    reps: &[Rep],
    refs: &[Option<Reference>],
) -> Metrics {
    let mut m: Metrics = vec![("setup_s".into(), median(setup_s), "s")];
    for &flow in &Flow::ALL {
        let walls = reps
            .iter()
            .filter(|r| r.flow == flow)
            .map(|r| (r.inst, r.run.wall_s));
        m.push((format!("iters_per_s.{}", flow.tag()), rate(b, walls), "1/s"));
    }
    // One pass over every unit: the sum of each unit's fastest rep.
    let rep_walls = fastest(reps.iter().map(|r| (unit(r.inst, r.flow), r.wall_s)));
    m.push(("sweep_s".into(), rep_walls.values().sum(), "s"));
    for &flow in &Flow::ALL {
        // Best delay and best area over each instance's points,
        // averaged over the instances.
        let bests: Vec<(f64, f64)> = flow_refs(refs, flow)
            .filter(|r| !r.repriced.is_empty())
            .map(|r| {
                let pts = &r.repriced;
                (
                    pts.iter().map(|c| c.delay).fold(f64::INFINITY, f64::min),
                    pts.iter().map(|c| c.area).fold(f64::INFINITY, f64::min),
                )
            })
            .collect();
        let n = bests.len().max(1) as f64;
        let delay = bests.iter().map(|b| b.0).sum::<f64>() / n;
        let area = bests.iter().map(|b| b.1).sum::<f64>() / n;
        m.push((format!("qor_delay_ps.{}", flow.tag()), delay, "ps"));
        m.push((format!("qor_area_um2.{}", flow.tag()), area, "um2"));
    }
    m.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    m
}

/// The references of one flow's units.
fn flow_refs(refs: &[Option<Reference>], flow: Flow) -> impl Iterator<Item = &Reference> {
    let n = refs.len() / Flow::ALL.len();
    (0..n).filter_map(move |inst| refs[unit(inst, flow)].as_ref())
}

pub fn is_probe(name: &str) -> bool {
    matches!(
        name,
        "techmap.map" | "techmap.size" | "sta.full" | "features.extract" | "gbt.predict"
    )
}

fn is_chain(s: &Span) -> bool {
    s.name == "saopt.optimize_with" || s.name == "saopt.chain"
}

/// Per-layer figures. Times come from every traced rep; counts from
/// the first traced rep of each unit (one *cycle*), so they repeat
/// exactly for a seed whatever the machine's speed.
pub fn per_layer(
    b: &Bench<'_>,
    phases: &[[f64; 5]],
    traced: &[(Rep, Trace)],
    untraced: &[Rep],
    refs: &[Option<Reference>],
) -> Metrics {
    let mut m: Metrics = Vec::new();
    for (i, name) in PHASES.iter().enumerate() {
        let v: Vec<f64> = phases.iter().map(|p| p[i]).collect();
        m.push((name.to_string(), median(&v), "s"));
    }
    let spans: Vec<Span> = traced.iter().flat_map(|(_, t)| t.spans()).collect();
    let mut seen = std::collections::BTreeSet::new();
    let cycle: Vec<&(Rep, Trace)> = traced
        .iter()
        .filter(|(r, _)| seen.insert(unit(r.inst, r.flow)))
        .collect();
    let cycle_spans: Vec<Span> = cycle.iter().flat_map(|(_, t)| t.spans()).collect();
    let counters: Vec<Counters> = cycle.iter().flat_map(|(_, t)| t.counters()).collect();
    let selfs = self_times(&spans);
    let sweeps = matches!(b.w.grid, Grid::Sweep { .. });
    let ms = |ns: f64| ns / 1e6;
    let mean_ms = |name: &str, flow: Option<Flow>| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && (flow.is_none() || s.flow == flow))
            .map(|s| s.dur() as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            ms(d.iter().sum::<f64>() / d.len() as f64)
        }
    };
    let count = |name: &str, flow: Flow| {
        cycle_spans
            .iter()
            .filter(|s| s.name == name && s.flow == Some(flow))
            .count() as f64
    };
    for &flow in &Flow::ALL {
        let tag = flow.tag();
        let fl = Some(flow);
        let iterations: f64 = traced
            .iter()
            .filter(|(r, _)| r.flow == flow)
            .map(|(r, _)| r.run.iterations as f64)
            .sum();
        let move_ns: f64 = spans
            .iter()
            .filter(|s| s.flow == fl && is_chain(s))
            .map(|s| selfs[&s.id] as f64)
            .sum();
        m.push((
            format!("saopt.move_ms.{tag}"),
            ms(move_ns) / iterations.max(1.0),
            "ms",
        ));
        for kind in ["full", "edit", "resync"] {
            m.push((
                format!("cost.{kind}_ms.{tag}"),
                mean_ms(&format!("cost.{kind}"), fl),
                "ms",
            ));
        }
        let calls = ["full", "edit", "resync"].map(|kind| count(&format!("cost.{kind}"), flow));
        for (kind, n) in ["full", "edit", "resync"].iter().zip(calls) {
            m.push((format!("cost.{kind}_calls.{tag}"), n, "count"));
        }
        // Chains report their accept count. Sweep points do not, so
        // there the ratio covers the in-place moves, where a reject is
        // the only move followed by a resync call.
        let accept = if sweeps {
            if calls[1] > 0.0 {
                1.0 - calls[2] / calls[1]
            } else {
                0.0
            }
        } else {
            let accepted: usize = flow_refs(refs, flow).flat_map(|r| r.accepted.iter()).sum();
            let chains = flow_refs(refs, flow).count();
            accepted as f64 / (chains * b.iterations()).max(1) as f64
        };
        m.push((format!("saopt.accept_ratio.{tag}"), accept, "ratio"));
        let lat = iteration_latencies(&spans, flow);
        m.push((
            format!("saopt.iter_ms_p50.{tag}"),
            quantile(&lat, 0.5),
            "ms",
        ));
        m.push((
            format!("saopt.iter_ms_p90.{tag}"),
            quantile(&lat, 0.9),
            "ms",
        ));
        let fc: Vec<&Counters> = counters.iter().filter(|c| c.flow == fl).collect();
        let nodes = fc.iter().map(|c| c.arena_nodes_max).max().unwrap_or(0);
        m.push((format!("aig.arena_nodes_max.{tag}"), nodes as f64, "count"));
        // Chains own their cache; a sweep's chains share one, whose
        // latest reading covers them all.
        let snaps = fc.iter().flat_map(|c| c.resynth.iter().copied());
        let (hits, misses) = if sweeps {
            snaps.max().unwrap_or((0, 0))
        } else {
            snaps.fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1))
        };
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        m.push((
            format!("transform.resynth_hit_ratio.{tag}"),
            hit_ratio,
            "ratio",
        ));
        // Tracing overhead: traced over untraced throughput, with the
        // probes' own time taken out of the traced wall time.
        let plain = rate(
            b,
            untraced
                .iter()
                .filter(|r| r.flow == flow)
                .map(|r| (r.inst, r.run.wall_s)),
        );
        let with_trace = rate(
            b,
            traced.iter().filter(|(r, _)| r.flow == flow).map(|(r, t)| {
                let probe_ns: u64 = t
                    .spans()
                    .iter()
                    .filter(|s| s.flow == fl && is_probe(s.name))
                    .map(Span::dur)
                    .sum();
                (r.inst, r.run.wall_s - probe_ns as f64 / 1e9)
            }),
        );
        let overhead = with_trace / plain.max(f64::MIN_POSITIVE);
        m.push((format!("trace.iters_per_s_ratio.{tag}"), overhead, "ratio"));
    }
    let gt: Vec<&Counters> = counters
        .iter()
        .filter(|c| c.flow == Some(Flow::Gt))
        .collect();
    let rows_edit: u64 = gt.iter().map(|c| c.dp_rows_edit).sum();
    let rows_resync: u64 = gt.iter().map(|c| c.dp_rows_resync).sum();
    let per_call = |rows: u64, calls: f64| rows as f64 / calls.max(1.0);
    let edits = count("cost.edit", Flow::Gt);
    let resyncs = count("cost.resync", Flow::Gt);
    m.push((
        "techmap.dp_rows_per_edit".into(),
        per_call(rows_edit, edits),
        "rows",
    ));
    m.push((
        "techmap.dp_rows_per_resync".into(),
        per_call(rows_resync, resyncs),
        "rows",
    ));
    m.push(("techmap.map_ms".into(), mean_ms("techmap.map", None), "ms"));
    m.push((
        "techmap.size_ms".into(),
        mean_ms("techmap.size", None),
        "ms",
    ));
    m.push(("sta.full_ms".into(), mean_ms("sta.full", None), "ms"));
    m.push((
        "features.extract_ms".into(),
        mean_ms("features.extract", None),
        "ms",
    ));
    // One `gbt.predict` span times the delay and the area model.
    m.push((
        "gbt.predict_us".into(),
        mean_ms("gbt.predict", None) * 1e3 / 2.0,
        "us",
    ));
    let probes: u64 = counters.iter().map(|c| c.probes).sum();
    m.push(("probe.checked".into(), probes as f64, "count"));
    let (busy, share) = worker_balance(&spans, traced);
    m.push(("saopt.worker_busy_ratio".into(), busy, "ratio"));
    m.push(("saopt.slowest_worker_share".into(), share, "ratio"));
    let pool: usize = counters.iter().map(|c| c.pool_misses).sum();
    let spawned: usize = counters.iter().map(|c| c.contexts_spawned).sum();
    m.push(("techmap.pool_misses".into(), pool as f64, "count"));
    m.push(("saopt.contexts_spawned".into(), spawned as f64, "count"));
    m
}

/// Per-iteration latency of a flow: the gaps between the starts of
/// successive pricing calls within each chain, in ms.
fn iteration_latencies(spans: &[Span], flow: Flow) -> Vec<f64> {
    let mut by_chain: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let pricing =
        |s: &&Span| s.flow == Some(flow) && (s.name == "cost.full" || s.name == "cost.edit");
    for s in spans.iter().filter(pricing) {
        by_chain.entry(s.parent).or_default().push(s.start);
    }
    let mut out = Vec::new();
    for starts in by_chain.values_mut() {
        starts.sort_unstable();
        out.extend(starts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6));
    }
    out
}

/// Worker balance over the traced flow runs: the share of worker
/// capacity spent inside chains, and the median over runs of the
/// busiest worker's share of the run's chain time (1 for a single
/// worker, 1/n for n perfectly balanced ones).
fn worker_balance(spans: &[Span], traced: &[(Rep, Trace)]) -> (f64, f64) {
    let sweeps: Vec<&Span> = spans.iter().filter(|s| s.name == "saopt.sweep").collect();
    if sweeps.is_empty() {
        // Serial chains: one worker per flow run.
        let capacity: f64 = traced.iter().map(|(r, _)| r.run.wall_s).sum();
        let busy: f64 = spans
            .iter()
            .filter(|s| s.name == "saopt.optimize_with")
            .map(|s| s.dur() as f64 / 1e9)
            .sum();
        return (busy / capacity.max(1e-12), 1.0);
    }
    let (mut busy, mut capacity) = (0.0, 0.0);
    let mut shares = Vec::new();
    for sw in sweeps {
        let mut per_worker: BTreeMap<u32, f64> = BTreeMap::new();
        for c in spans
            .iter()
            .filter(|s| s.parent == sw.id && s.name == "saopt.chain")
        {
            *per_worker.entry(c.worker).or_default() += c.dur() as f64 / 1e9;
        }
        let sum: f64 = per_worker.values().sum();
        busy += sum;
        capacity += nproc() as f64 * sw.dur() as f64 / 1e9;
        if sum > 0.0 {
            shares.push(per_worker.values().copied().fold(0.0, f64::max) / sum);
        }
    }
    (busy / capacity.max(1e-12), median(&shares))
}

/// Prints how much of each flow's chain wall time the spans account
/// for: the move (chain self time), the cost calls and the probes.
pub fn print_coverage(spans: &[Span], traced: &[(Rep, Trace)]) {
    let selfs = self_times(spans);
    for flow in Flow::ALL {
        let fl = Some(flow);
        let own = |pred: &dyn Fn(&Span) -> bool| -> f64 {
            spans
                .iter()
                .filter(|s| s.flow == fl && pred(s))
                .map(|s| selfs[&s.id] as f64 / 1e6)
                .fold(0.0, |a, b| a + b)
        };
        let mv = own(&is_chain);
        let cost = own(&|s| s.name.starts_with("cost."));
        let probe = own(&|s| is_probe(s.name));
        let wall: f64 = traced
            .iter()
            .filter(|(r, _)| r.flow == flow)
            .map(|(r, _)| r.run.wall_s * 1e3)
            .sum();
        let covered = mv + cost + probe;
        eprintln!(
            "coverage {:<8}: move {mv:.1} + cost {cost:.1} + probes {probe:.1} = {covered:.1} ms \
             of {wall:.1} ms in optimize_with/sweep ({:.1}%)",
            flow.tag(),
            100.0 * covered / wall.max(1e-9)
        );
    }
}
