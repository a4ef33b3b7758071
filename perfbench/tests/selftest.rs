//! Self-test of the benchmark: every workload at a tiny size prints every
//! metric `BENCHMARK.json` lists, with its unit; crafted bad outcomes are
//! reported as failures.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use adapt_core::Configuration;
use compress::Method;
use perfbench::spec::{self, get};
use perfbench::{
    defs, fig7, load, report, run, Iteration, Rep, RunArgs, RunResult, Size, Workload,
};
use serde_json::Value;
use simnet::SimTime;
use visapp::RunStats;

fn tiny(workload: Workload, trace: bool) -> RunResult {
    run(RunArgs { workload, seed: 7, seconds: 0.0, trace, size: Size::Tiny })
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = tiny(workload, trace);
            let summary = report::summarise(&result);
            let name = workload.name();
            assert!(summary.correct, "{name}: {:?}", summary.failures);
            let line = spec::parse(&report::json_line(&summary)).expect("the result is JSON");
            assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
            assert!(spec::parse(&report::context_json(&result)).is_ok());
            let metrics = get(&line, "metrics").expect("metrics printed");
            let Value::Object(printed) = metrics else { panic!("{name}: metrics {metrics}") };
            let catalogue = spec::metrics(trace);
            assert_eq!(printed.len(), catalogue.len());
            for m in catalogue {
                let entry = get(metrics, &m.name)
                    .unwrap_or_else(|| panic!("{name}: {} not printed", m.name));
                assert_eq!(get(entry, "unit"), Some(&Value::String(m.unit.clone())));
                let Some(Value::Number(v)) = get(entry, "value") else {
                    panic!("{name}: {} has no value", m.name);
                };
                assert!(*v != -1.0 || trace, "{name}: {} unmeasured", m.name);
                assert!(!defs::note(&m.name).is_empty(), "{} has no note", m.name);
            }
        }
    }
}

#[test]
fn an_undelivered_session_fails_the_run() {
    let opts = load::opts(Workload::Queue1k, Size::Tiny, 3);
    let db = std::sync::Arc::new(visapp::model_db(&opts));
    let mut report = visapp::run_load(&opts, &db);
    let mut clean = Iteration::default();
    load::check_report(&mut clean, &opts, &report);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);

    report.sessions[0].finished_us = None;
    report.sessions[1].images -= 1;
    let mut it = Iteration {
        setup_s: vec![0.001],
        setup_reference_s: perfbench::speed::REFERENCE_S,
        reps: vec![Rep { traced: false, secs: 1.0, reference_s: perfbench::speed::REFERENCE_S }],
        ..Iteration::default()
    };
    load::check_report(&mut it, &opts, &report);
    it.sim = load::sim_outcome(&report);
    assert_eq!(it.failures.len(), 2, "{:?}", it.failures);

    let args = RunArgs {
        workload: Workload::Queue1k,
        seed: 3,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
    };
    let result =
        RunResult { args, iterations: vec![it], peak_rss_mb: Some(1.0), spans: Default::default() };
    let summary = report::summarise(&result);
    assert!(!summary.correct);
    assert_eq!(summary.failed, 2, "{:?}", summary.failures);
    let delivered = summary.metrics.iter().find(|(m, _)| m.name == "delivered_share").unwrap().1;
    assert!(delivered < 1.0);
    let line = spec::parse(&report::json_line(&summary)).unwrap();
    assert_eq!(get(&line, "correct"), Some(&Value::Bool(false)));
    assert_eq!(get(&line, "failed"), Some(&Value::Number(2.0)));
}

#[test]
fn a_changed_repeat_is_a_failure() {
    let mut it = Iteration::default();
    let first = perfbench::SimOutcome { rounds: 5, ..Default::default() };
    it.check_repeat(&first, &first.clone());
    assert!(it.failures.is_empty());
    it.check_repeat(&first, &perfbench::SimOutcome { rounds: 6, ..Default::default() });
    assert_eq!((it.attempted, it.failures.len()), (2, 1));
}

#[test]
fn fig7_checks_reject_a_missing_image_and_a_wrong_adaptation() {
    let [a, ..] = fig7::experiments(Size::Tiny, 7);
    let cfg = |c: Method| Configuration::new(&[("dR", 16), ("c", c.code()), ("l", 3)]);
    let history = |switch_at: SimTime| {
        vec![(SimTime::ZERO, cfg(Method::Lzw)), (switch_at, cfg(Method::Bzip))]
    };
    let stats = |history| RunStats { config_history: history, ..RunStats::default() };
    assert!(fig7::shape_holds(&a, &stats(history(a.drop_at + 1))).is_ok());
    // Switched before the bandwidth dropped, or never switched.
    assert!(fig7::shape_holds(&a, &stats(history(SimTime::from_us(1)))).is_err());
    assert!(fig7::shape_holds(&a, &stats(vec![(SimTime::ZERO, cfg(Method::Lzw))])).is_err());

    // A run that delivered none of its images fails once per image, plus
    // the unfinished run.
    let ctx = adapt_dst::oracle::DecisionContext {
        valid_configs: Default::default(),
        preference_depth: 1,
    };
    let mut it = Iteration::default();
    fig7::check_run(&mut it, &a, &stats(history(a.drop_at + 1)), &obs::Obs::new(), &ctx);
    assert_eq!(it.failures.len(), a.sc.n_images + 1, "{:?}", it.failures);
}
