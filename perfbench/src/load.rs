//! The load workloads: `sweep-10k` and `queue-1k`, each one `run_load` of
//! the seeded multi-session generator against an analytic `model_db`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use visapp::{model_db, run_load, LoadGenOpts, LoadReport, QosProfile};

use crate::speed;
use crate::trace::Tracer;
use crate::{add_obs_layers, finish_layers, Iteration, Rep, SimOutcome, Size, Workload};

/// Host time each iteration spends on set-ups. One load set-up takes
/// about a millisecond, so its median is taken over the thousand or so
/// that fit in this budget.
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The generator options for a load workload.
pub fn opts(w: Workload, size: Size, seed: u64) -> LoadGenOpts {
    let opts = match (w, size) {
        (Workload::Sweep10k, Size::Full) => adapt_bench::load::bench_opts(10_000),
        (Workload::Sweep10k, Size::Tiny) => adapt_bench::load::bench_opts(200),
        (Workload::Queue1k, Size::Full) => LoadGenOpts::new(1_000),
        (Workload::Queue1k, Size::Tiny) => LoadGenOpts::new(40),
        (Workload::Fig7, _) => panic!("fig7 is not a load workload"),
    };
    opts.with_seed(seed)
}

/// The hard constraint of a session's QoS profile, as
/// `QosProfile::preferences` states it: `(per-image transmit bound,
/// per-round response bound)`. The throughput profile has none.
fn hard_bound(p: QosProfile) -> (Option<f64>, Option<f64>) {
    match p {
        QosProfile::Quality => (Some(2.0), None),
        QosProfile::Interactive => (None, Some(0.5)),
        QosProfile::Throughput => (None, None),
    }
}

/// The most sessions live at once, from arrival and finish times. A
/// session finishing at `t` is not live alongside one arriving at `t`.
pub fn sessions_live_peak(report: &LoadReport) -> u64 {
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(report.sessions.len() * 2);
    for s in &report.sessions {
        edges.push((s.arrival_us, 1));
        edges.push((s.finished_us.unwrap_or(u64::MAX), -1));
    }
    edges.sort_unstable();
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, d) in edges {
        live += d;
        peak = peak.max(live);
    }
    peak as u64
}

/// Simulated outcome of a load run. A session's transmit time is its mean
/// image time: session time less think time, per image; its QoS is met if
/// its profile's hard constraint holds on its mean image and round times
/// (always, for the unconstrained throughput profile).
pub fn sim_outcome(report: &LoadReport) -> SimOutcome {
    let mut sim = SimOutcome { rounds: report.requests_total, ..SimOutcome::default() };
    for s in &report.sessions {
        let Some(done) = s.finished_us else { continue };
        let secs = (done - s.arrival_us) as f64 / 1e6;
        let thinks = s.images.saturating_sub(1) as f64;
        let busy = secs - thinks * s.think_time_us as f64 / 1e6;
        let per_image = busy / s.images.max(1) as f64;
        sim.session_secs.push(secs);
        sim.transmit_secs.push(per_image);
        let (transmit, response) = hard_bound(s.profile);
        let per_round = busy / s.rounds.max(1) as f64;
        let met =
            transmit.is_none_or(|b| per_image <= b) && response.is_none_or(|b| per_round <= b);
        sim.qos_met += u64::from(met);
        sim.qos_checked += 1;
    }
    sim
}

/// Delivery and bookkeeping checks of one load run, recorded into `it`.
pub fn check_report(it: &mut Iteration, opts: &LoadGenOpts, report: &LoadReport) {
    it.attempted += opts.sessions as u64;
    for s in &report.sessions {
        if s.finished_us.is_none() || s.images != opts.n_images as u64 {
            let unfinished = if s.finished_us.is_none() { ", never finished" } else { "" };
            it.failures.push(format!(
                "session {}: {} of {} images delivered{unfinished}",
                s.session, s.images, opts.n_images
            ));
        }
    }
    let obs = &report.obs;
    let folded = obs.lookup("load.requests_total").map(|id| obs.counter_value(id));
    it.check(folded == Some(report.requests_total), || {
        format!("load watcher folded {folded:?} rounds, sessions report {}", report.requests_total)
    });
}

/// Set-ups for [`SETUP_BUDGET`], then one `run_load`.
pub fn iteration(w: Workload, size: Size, seed: u64, tr: &Tracer) -> Iteration {
    let mut it = Iteration::default();
    let opts = opts(w, size, seed);
    let (mut store_ms, mut db_ms) = (Vec::new(), Vec::new());
    let mut db = None;
    let start = Instant::now();
    let sampler = speed::Sampler::start();
    while db.is_none() || start.elapsed() < SETUP_BUDGET {
        // `run_load` generates its own copy of this store; the benchmark
        // times an identical one, since that one is private to the run.
        let (_, store_s) =
            tr.span("visapp::Scenario::build_store", || opts.scenario().build_store());
        let (built, db_s) = tr.span("visapp::load::model_db", || model_db(&opts));
        it.setup_s.push(store_s + db_s);
        store_ms.push(store_s * 1e3);
        db_ms.push(db_s * 1e3);
        db = Some(Arc::new(built));
    }
    it.setup_reference_s = sampler.finish();
    let db = db.expect("at least one set-up");
    let traced = tr.start_rep();
    let ((report, secs), reference_s) =
        speed::sampled(|| tr.span("visapp::load::run_load", || run_load(&opts, &db)));
    tr.end_rep();
    it.reps.push(Rep { traced, secs, reference_s });
    tr.span("bench::checks", || check_report(&mut it, &opts, &report));
    it.sim = sim_outcome(&report);
    let l = &mut it.layers;
    l.insert("wavelet.build_ms", crate::report::median(&store_ms));
    l.insert("profiler.ms", crate::report::median(&db_ms));
    l.insert("profiler.points", db.len() as f64);
    l.insert("perfdb.bytes", db.approx_bytes() as f64);
    l.insert("simnet.events", report.events_handled as f64);
    l.insert("simnet.peak_queue", report.peak_queue_depth as f64);
    l.insert("load.sessions_live_peak", sessions_live_peak(&report) as f64);
    add_obs_layers(&report.obs, l);
    finish_layers(l, report.requests_total, report.switches_total, secs);
    it
}
