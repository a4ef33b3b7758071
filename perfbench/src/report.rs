//! Turning a run's iterations into the printed metrics and verdict.

use serde_json::{json, Value};

use crate::defs::{note, UNMEASURED_LAYERS};
use crate::spec::{self, Metric};
use crate::speed;
use crate::RunResult;

/// Median of `xs` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between closest ranks
/// (position `q * (n - 1)` in sorted order); NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = q * (v.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The verdict and the metrics of one run, in catalogue order.
#[derive(Debug, Clone)]
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(Metric, f64)>,
}

fn value_of(r: &RunResult, name: &str) -> f64 {
    let sim = &r.iterations[0].sim;
    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    match name {
        "rounds_per_s" => {
            let rates: Vec<f64> = r
                .iterations
                .iter()
                .flat_map(|it| {
                    it.reps
                        .iter()
                        .filter(|rep| !rep.traced)
                        .map(|rep| it.sim.rounds as f64 / rep.adjusted_secs())
                })
                .collect();
            median(&rates)
        }
        "setup_s" => median(
            &r.iterations
                .iter()
                .flat_map(|it| it.setup_s.iter().map(|&s| speed::adjust(s, it.setup_reference_s)))
                .collect::<Vec<_>>(),
        ),
        "peak_rss_mb" => r.peak_rss_mb.unwrap_or(f64::NAN),
        "session_p50_s" => quantile(&sim.session_secs, 0.50),
        "session_p99_s" => quantile(&sim.session_secs, 0.99),
        "transmit_p50_s" => quantile(&sim.transmit_secs, 0.50),
        "transmit_p75_s" => quantile(&sim.transmit_secs, 0.75),
        "qos_met_share" => share(sim.qos_met, sim.qos_checked),
        "delivered_share" => {
            let (attempted, failed) = totals(r);
            1.0 - share(failed, attempted)
        }
        name => panic!("no rule for end-to-end metric {name}"),
    }
}

fn totals(r: &RunResult) -> (u64, u64) {
    r.iterations.iter().fold((0, 0), |(a, f), it| (a + it.attempted, f + it.failures.len() as u64))
}

fn layer_value(r: &RunResult, name: &str) -> f64 {
    let walls = |traced: bool| {
        let ms: Vec<f64> = r
            .iterations
            .iter()
            .flat_map(|it| {
                it.reps
                    .iter()
                    .filter(|rep| rep.traced == traced)
                    .map(|rep| rep.adjusted_secs() * 1e3)
            })
            .collect();
        if ms.is_empty() {
            -1.0
        } else {
            median(&ms)
        }
    };
    match name {
        "bench.traced_wall_ms" => walls(true),
        "bench.untraced_wall_ms" => walls(false),
        name => {
            let vals: Vec<f64> = r
                .iterations
                .iter()
                .filter(|it| it.reps.first().is_some_and(|rep| rep.traced))
                .filter_map(|it| it.layers.get(name).copied())
                .collect();
            if vals.is_empty() {
                -1.0
            } else {
                median(&vals)
            }
        }
    }
}

/// Summarise a run: end-to-end metrics untraced, per-layer metrics traced.
pub fn summarise(r: &RunResult) -> Summary {
    let (mut attempted, mut failed) = totals(r);
    let mut failures: Vec<String> =
        r.iterations.iter().flat_map(|it| it.failures.iter().cloned()).collect();
    let mut metrics = Vec::new();
    for m in spec::metrics(r.args.trace) {
        let v = if r.args.trace { layer_value(r, &m.name) } else { value_of(r, &m.name) };
        attempted += 1;
        if !v.is_finite() {
            failed += 1;
            failures.push(format!("metric {} could not be measured", m.name));
        }
        metrics.push((m, v));
    }
    Summary { correct: failed == 0, attempted, failed, failures, metrics }
}

/// `v` as printed: non-finite values (already counted as failures) print
/// as -1.
fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(s: &Summary) -> String {
    let metrics = s
        .metrics
        .iter()
        .map(|(m, v)| (m.name.clone(), json!({ "value": num(*v), "unit": m.unit.as_str() })));
    json!({
        "correct": s.correct,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": Value::object(metrics),
    })
    .to_string()
}

/// The host's CPU count, whatever CPUs this process is pinned to.
fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The host and build context, as one JSON object.
pub fn context_json(r: &RunResult) -> String {
    let a = &r.args;
    json!({
        "workload": a.workload.name(),
        "seed": a.seed,
        "trace": a.trace,
        "host_cores": host_cores(),
        "cores_used": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "profile_threads": crate::PROFILE_THREADS,
        "rustc": env!("PERFBENCH_RUSTC"),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "drain_mode": "Batched",
        "iterations": r.iterations.len(),
        "unmeasured_layers": UNMEASURED_LAYERS.to_vec(),
    })
    .to_string()
}

/// Human-readable lines printed before the result line.
pub fn text_lines(r: &RunResult, s: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    for (i, it) in r.iterations.iter().enumerate() {
        out.push(format!(
            "iteration {i} setups={} setup_s median={:.6} min={:.6} max={:.6} \
             reference_us={:.1} adjusted median={:.6}",
            it.setup_s.len(),
            median(&it.setup_s),
            quantile(&it.setup_s, 0.0),
            quantile(&it.setup_s, 1.0),
            it.setup_reference_s * 1e6,
            speed::adjust(median(&it.setup_s), it.setup_reference_s)
        ));
        for rep in &it.reps {
            out.push(format!(
                "iteration {i} rep traced={} secs={:.6} rounds={} rounds_per_s={:.3} \
                 reference_us={:.1} adjusted secs={:.6} rounds_per_s={:.3}",
                rep.traced,
                rep.secs,
                it.sim.rounds,
                it.sim.rounds as f64 / rep.secs,
                rep.reference_s * 1e6,
                rep.adjusted_secs(),
                it.sim.rounds as f64 / rep.adjusted_secs()
            ));
        }
    }
    for (m, v) in &s.metrics {
        let (name, unit, note) = (&m.name, &m.unit, note(&m.name));
        if r.args.trace {
            out.push(format!("layer {name:<26} {:>18} {unit:<6} moves {note}", num(*v)));
        } else {
            out.push(format!("metric {name:<16} {:>22} {unit:<6} {note}", num(*v)));
        }
    }
    if r.args.trace {
        out.push(format!("{:<34} {:>6} {:>12} {:>12}", "span", "calls", "total_ms", "self_ms"));
        for (name, t) in &r.spans {
            out.push(format!(
                "span {:<29} {:>6} {:>12.3} {:>12.3}",
                name, t.calls, t.total_ms, t.self_ms
            ));
        }
    }
    for f in s.failures.iter().take(20) {
        out.push(format!("FAILED {f}"));
    }
    if s.failures.len() > 20 {
        out.push(format!("FAILED ... and {} more", s.failures.len() - 20));
    }
    out.push(format!("verdict {}", if s.correct { "correct" } else { "INCORRECT" }));
    out
}
