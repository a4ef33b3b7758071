//! The `fig7` workload: the paper's three run-time adaptation experiments
//! (Figure 7a, 7b and 7c/d), adaptive client only. Each experiment starts
//! from a cold image store, profiles its performance database in the
//! sandboxed testbed (set-up), then runs the adaptive client through a
//! scripted resource drop (measured phase).
//!
//! The experiment definitions — profiling grids, preferences, calibrated
//! thresholds, resource schedules — follow `adapt-bench`'s `figs::adaptation`
//! and the `figures` binary; the static baseline runs are left out.

use std::collections::BTreeSet;
use std::sync::Arc;

use adapt_core::{
    Configuration, Constraint, Objective, PerfDb, PredictMode, Preference, PreferenceList,
    ResourceVector,
};
use adapt_dst::oracle::{self, DecisionContext};
use compress::Method;
use sandbox::{LimitSchedule, Limits};
use simnet::SimTime;
use visapp::{
    build_db, client_cpu_key, client_net_key, run_adaptive, ImageStore, RunOutcome, RunStats,
    Scenario, PROFILE_INPUT,
};

use crate::speed;
use crate::trace::Tracer;
use crate::{add_obs_layers, finish_layers, Iteration, Rep, SimOutcome, Size, PROFILE_THREADS};

/// Which of the three experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 7a: bandwidth drops; minimize transmit time; should switch LZW -> Bzip.
    BandwidthDrop,
    /// 7b: CPU drops under a transmit deadline; should lower the resolution.
    CpuDeadline,
    /// 7c/d: CPU drops under a response bound; should shrink the fovea `dR`.
    CpuResponse,
}

/// One experiment: its scenario and the resource drop it scripts.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub kind: Kind,
    pub sc: Scenario,
    /// 7a: the fixed CPU share. 7b, 7c/d: the fixed bandwidth (bytes/s).
    pub fixed: f64,
    /// The resource that drops (7a: bandwidth; 7b, 7c/d: CPU share).
    pub hi: f64,
    pub lo: f64,
    pub drop_at: SimTime,
}

/// The three experiments at `size`, their stores seeded from `seed`.
pub fn experiments(size: Size, seed: u64) -> [Experiment; 3] {
    match size {
        // The `figures` binary's settings: 15 images of 512x512, 4 levels,
        // the paper's 500 -> 50 KB/s and 90% -> 40% drops at t = 3 s.
        Size::Full => {
            let sc =
                Scenario { n_images: 15, img_size: 512, levels: 4, seed, ..Scenario::default() };
            let at = SimTime::from_secs(3);
            [
                Experiment {
                    kind: Kind::BandwidthDrop,
                    sc: sc.clone(),
                    fixed: 1.0,
                    hi: 500_000.0,
                    lo: 50_000.0,
                    drop_at: at,
                },
                Experiment {
                    kind: Kind::CpuDeadline,
                    sc: sc.clone(),
                    fixed: 500_000.0,
                    hi: 0.9,
                    lo: 0.4,
                    drop_at: at,
                },
                Experiment {
                    kind: Kind::CpuResponse,
                    sc,
                    fixed: 500_000.0,
                    hi: 0.9,
                    lo: 0.4,
                    drop_at: at,
                },
            ]
        }
        // `figs::adaptation`'s unit-test miniatures: 64x64 images, 3 levels,
        // monitoring time constants scaled down.
        Size::Tiny => {
            let sc = |n_images| Scenario {
                n_images,
                img_size: 64,
                levels: 3,
                seed,
                monitor_window_us: 400_000,
                trigger_gap_us: 150_000,
                ..Scenario::default()
            };
            [
                Experiment {
                    kind: Kind::BandwidthDrop,
                    sc: sc(40),
                    fixed: 0.05,
                    hi: 60_000.0,
                    lo: 2_000.0,
                    drop_at: SimTime::from_secs(2),
                },
                Experiment {
                    kind: Kind::CpuDeadline,
                    sc: sc(60),
                    fixed: 100_000.0,
                    hi: 1.0,
                    lo: 0.05,
                    drop_at: SimTime::from_ms(300),
                },
                Experiment {
                    kind: Kind::CpuResponse,
                    sc: sc(40),
                    fixed: 100_000.0,
                    hi: 1.0,
                    lo: 0.1,
                    drop_at: SimTime::from_ms(500),
                },
            ]
        }
    }
}

fn predict(db: &PerfDb, config: &Configuration, cpu: f64, net: f64, metric: &str) -> f64 {
    let mut r = ResourceVector::default();
    r.set(client_cpu_key(), cpu);
    r.set(client_net_key(), net);
    db.predict(config, PROFILE_INPUT, &r, PredictMode::Interpolate)
        .and_then(|q| q.get(metric))
        .unwrap_or_else(|| panic!("the profiled database has no {metric} for {config}"))
}

/// The experiment's preferences and the threshold its hard constraint uses
/// (calibrated from the database as `figs::adaptation` does: midway
/// between the preferred setting's prediction before and after the drop).
fn preferences(e: &Experiment, db: &PerfDb) -> (PreferenceList, f64) {
    let level = e.sc.levels as i64;
    let lzw = Method::Lzw.code();
    match e.kind {
        Kind::BandwidthDrop => {
            let prefs = PreferenceList::single(Preference::new(
                vec![Constraint::at_least("resolution", level as f64)],
                Objective::minimize("transmit_time"),
            ));
            (prefs, level as f64)
        }
        Kind::CpuDeadline => {
            let dr = (e.sc.img_size / 2) as i64;
            let cfg = Configuration::new(&[("dR", dr), ("c", lzw), ("l", level)]);
            let t_hi = predict(db, &cfg, e.hi, e.fixed, "transmit_time");
            let t_lo = predict(db, &cfg, e.lo, e.fixed, "transmit_time");
            let deadline = (t_hi + t_lo) / 2.0;
            let prefs = PreferenceList::single(Preference::new(
                vec![Constraint::at_most("transmit_time", deadline)],
                Objective::maximize("resolution"),
            ))
            .then(Preference::new(vec![], Objective::minimize("transmit_time")));
            (prefs, deadline)
        }
        Kind::CpuResponse => {
            let drs = e.sc.dr_values();
            let cfg = [drs[1], drs[2]]
                .iter()
                .map(|&dr| Configuration::new(&[("dR", dr), ("c", lzw), ("l", level)]))
                .min_by(|a, b| {
                    let ta = predict(db, a, e.hi, e.fixed, "transmit_time");
                    let tb = predict(db, b, e.hi, e.fixed, "transmit_time");
                    ta.total_cmp(&tb)
                })
                .expect("two candidate fovea sizes");
            let r_hi = predict(db, &cfg, e.hi, e.fixed, "response_time");
            let r_lo = predict(db, &cfg, e.lo, e.fixed, "response_time");
            let bound = (r_hi + r_lo) / 2.0;
            let prefs = PreferenceList::single(Preference::new(
                vec![
                    Constraint::at_most("response_time", bound),
                    Constraint::at_least("resolution", level as f64),
                ],
                Objective::minimize("transmit_time"),
            ))
            .then(Preference::new(
                vec![Constraint::at_least("resolution", level as f64)],
                Objective::minimize("response_time"),
            ));
            (prefs, bound)
        }
    }
}

fn limits(e: &Experiment, value: f64) -> Limits {
    match e.kind {
        Kind::BandwidthDrop => Limits::cpu(e.fixed).with_net(value),
        Kind::CpuDeadline | Kind::CpuResponse => Limits::cpu(value).with_net(e.fixed),
    }
}

/// `(met, checked)` for the experiment's hard constraint: per image for
/// 7a (finest resolution) and 7b (deadline), per round for 7c/d (bound).
pub fn qos_met(e: &Experiment, stats: &RunStats, threshold: f64) -> (u64, u64) {
    let count = |it: &mut dyn Iterator<Item = bool>| {
        it.fold((0, 0), |(met, n), ok| (met + u64::from(ok), n + 1))
    };
    match e.kind {
        Kind::BandwidthDrop => count(&mut stats.images.iter().map(|img| {
            stats
                .rounds
                .iter()
                .filter(|r| r.image_id == img.image_id)
                .all(|r| r.level as f64 >= threshold)
        })),
        Kind::CpuDeadline => {
            count(&mut stats.images.iter().map(|i| i.transmit_secs() <= threshold))
        }
        Kind::CpuResponse => {
            count(&mut stats.rounds.iter().map(|r| r.response_secs() <= threshold))
        }
    }
}

/// The adaptation the paper reports: 7a changes compression to Bzip, 7b
/// lowers the resolution level, 7c/d shrinks `dR` — each starting from the
/// preferred setting and changing at or after the resource drop.
pub fn shape_holds(e: &Experiment, stats: &RunStats) -> Result<(), String> {
    let history = &stats.config_history;
    let (Some((_, first)), Some((_, last))) = (history.first(), history.last()) else {
        return Err("empty configuration history".into());
    };
    let lzw_to_bzip: fn(i64, i64) -> bool =
        |a, b| a == Method::Lzw.code() && b == Method::Bzip.code();
    let lowered: fn(i64, i64) -> bool = |a, b| b < a;
    let (param, changed) = match e.kind {
        Kind::BandwidthDrop => ("c", lzw_to_bzip),
        Kind::CpuDeadline => ("l", lowered),
        Kind::CpuResponse => ("dR", lowered),
    };
    let value = |c: &Configuration| c.get(param).unwrap_or(i64::MIN);
    let v0 = value(first);
    if !changed(v0, value(last)) {
        return Err(format!("{param} went {v0} -> {}, not the paper's adaptation", value(last)));
    }
    match history.iter().find(|(_, c)| changed(v0, value(c))) {
        Some((t, _)) if *t >= e.drop_at => Ok(()),
        Some((t, _)) => {
            Err(format!("{param} changed at {t:?}, before the drop at {:?}", e.drop_at))
        }
        None => Err(format!("{param} never changed")),
    }
}

/// Checks of one experiment's adaptive run, recorded into `it`.
pub fn check_run(
    it: &mut Iteration,
    e: &Experiment,
    stats: &RunStats,
    bus: &obs::Obs,
    ctx: &DecisionContext,
) {
    let label = e.kind;
    let delivered = stats.images.len().min(e.sc.n_images);
    it.attempted += e.sc.n_images as u64;
    for _ in delivered..e.sc.n_images {
        it.failures.push(format!("{label:?}: image not delivered"));
    }
    it.check(stats.finished_at.is_some(), || format!("{label:?}: run never finished"));
    let dropped = bus.events_dropped();
    let violations = oracle::check_all(bus, ctx);
    it.check(dropped == 0 && violations.is_empty(), || {
        let v: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        format!("{label:?}: oracles: {dropped} bus events dropped; violations {v:?}")
    });
    let shape = shape_holds(e, stats);
    it.check(shape.is_ok(), || format!("{label:?}: {}", shape.unwrap_err()));
}

/// An experiment after set-up: its profiled database and preferences.
struct Prepared {
    db: PerfDb,
    prefs: PreferenceList,
    threshold: f64,
    ctx: DecisionContext,
}

/// Profile one experiment's database on a cold store.
fn set_up(e: &Experiment, it: &mut Iteration, tr: &Tracer) -> Prepared {
    let sc = &e.sc;
    let (store, store_s) = tr.span("visapp::Scenario::build_store", || sc.build_store());
    let ((db, prefs, threshold), db_s) = tr.span("visapp::build_db", || {
        let db = match e.kind {
            Kind::BandwidthDrop => {
                let bw = [e.lo / 2.0, e.lo, (e.lo * e.hi).sqrt(), e.hi, e.hi * 2.0];
                build_db(sc, &store, &[e.fixed], &bw, PROFILE_THREADS)
            }
            _ => {
                let cpu = [e.lo / 2.0, e.lo, (e.lo + e.hi) / 2.0, e.hi, 1.0];
                build_db(sc, &store, &cpu, &[e.fixed], PROFILE_THREADS)
            }
        };
        let (prefs, threshold) = preferences(e, &db);
        (db, prefs, threshold)
    });
    it.setup_s[0] += store_s + db_s;
    *it.layers.entry("wavelet.build_ms").or_default() += store_s * 1e3;
    *it.layers.entry("profiler.ms").or_default() += db_s * 1e3;
    *it.layers.entry("profiler.points").or_default() += db.len() as f64;
    let bytes = it.layers.entry("perfdb.bytes").or_default();
    *bytes = bytes.max(db.approx_bytes() as f64);
    let ctx = DecisionContext {
        valid_configs: db.configs(PROFILE_INPUT).iter().map(|c| c.key()).collect::<BTreeSet<_>>(),
        preference_depth: prefs.prefs.len() as u64,
    };
    Prepared { db, prefs, threshold, ctx }
}

/// Run one experiment's adaptive client from a cold store; returns the
/// run, the store and the run's host time.
fn run_once(e: &Experiment, p: &Prepared, tr: &Tracer) -> (RunOutcome, Arc<ImageStore>, f64) {
    let (store, _) = tr.span("visapp::Scenario::build_store", || e.sc.build_store());
    let schedule = LimitSchedule::new().at(e.drop_at, limits(e, e.lo));
    let (out, secs) = tr.span("visapp::run_adaptive", || {
        let start = limits(e, e.hi);
        run_adaptive(&e.sc, &store, p.db.clone(), p.prefs.clone(), start, Some(schedule))
    });
    (out, store, secs)
}

/// The simulated outcome of one experiment's run.
fn sim_of(e: &Experiment, p: &Prepared, stats: &RunStats) -> SimOutcome {
    let (qos_met, qos_checked) = qos_met(e, stats, p.threshold);
    SimOutcome {
        session_secs: vec![stats.finished_at.map_or(f64::NAN, |t| t.as_secs_f64())],
        transmit_secs: stats.images.iter().map(|i| i.transmit_secs()).collect(),
        qos_met,
        qos_checked,
        rounds: stats.rounds.len() as u64,
    }
}

/// Repetitions of the measured phase per iteration: profiling is the
/// costly set-up, so each iteration measures the adaptive runs more than
/// once and reports their median. Two keep a run near 45 s, so that the
/// whole benchmark fits its time budget, and the second checks the first.
const REPS: usize = 2;

/// Set up the three experiments, then run their adaptive clients `REPS`
/// times, each time from a cold store. The first repetition is checked
/// and gives the per-layer values; the others must repeat it exactly.
pub fn iteration(size: Size, seed: u64, tr: &Tracer) -> Iteration {
    let mut it = Iteration { setup_s: vec![0.0], ..Iteration::default() };
    let exps = experiments(size, seed);
    let (prepared, setup_reference_s) =
        speed::sampled(|| exps.iter().map(|e| set_up(e, &mut it, tr)).collect::<Vec<_>>());
    it.setup_reference_s = setup_reference_s;
    let mut switches = 0u64;
    for rep in 0..REPS {
        let traced = tr.start_rep();
        let sampler = speed::Sampler::start();
        let (mut secs, mut sim) = (0.0, SimOutcome::default());
        for (e, p) in exps.iter().zip(&prepared) {
            let (out, store, run_s) = run_once(e, p, tr);
            secs += run_s;
            sim.merge(&sim_of(e, p, &out.stats));
            if rep == 0 {
                switches += out.stats.switch_count() as u64;
                *it.layers.entry("store.misses").or_default() += store.cache_len() as f64;
                add_obs_layers(&out.obs, &mut it.layers);
                tr.span("bench::checks", || check_run(&mut it, e, &out.stats, &out.obs, &p.ctx));
            }
        }
        tr.end_rep();
        it.reps.push(Rep { traced, secs, reference_s: sampler.finish() });
        if rep == 0 {
            it.sim = sim;
        } else {
            let first = it.sim.clone();
            it.check_repeat(&first, &sim);
        }
    }
    // Each experiment is one session in a simulation of its own.
    it.layers.insert("load.sessions_live_peak", 1.0);
    finish_layers(&mut it.layers, it.sim.rounds, switches, it.reps[0].secs);
    it
}
