//! Behavioural pins for parked monitor ticks.
//!
//! A session whose monitor tick provably cannot change anything parks the
//! tick and catches up exactly at its next event. These tests pin values
//! taken from the always-ticking implementation; parking must reproduce
//! every one of them bit for bit.

use std::sync::Arc;

use adapt_bench::figs::adaptation::{fig7a, fig7b, fig7cd, ExperimentResult};
use adapt_bench::load::bench_opts;
use obs::{EventFilter, Obs, Source};
use simnet::{DrainMode, Fnv64, SimTime};
use visapp::load::{model_db, run_load, LoadGenOpts, LoadReport};
use visapp::Scenario;

/// Sessions in the small queueing run (2 servers, default arrivals).
const QUEUE_SESSIONS: usize = 60;
/// Sessions in the small sweep row (`bench_opts`: 25 sessions per server).
const SWEEP_SESSIONS: usize = 200;

/// Outcome digests of the always-ticking implementation.
const QUEUE_DIGEST: u64 = 0x6a4e_e87d_1216_51ba;
const SWEEP_DIGEST: u64 = 0x1f0d_539a_2e94_ee90;
/// Monitor ticks the always-ticking implementation ran on the queueing run.
const QUEUE_TICKS: u64 = 33_920;

/// FNV-1a over (t, kind, config) of every `decide`/`switch`/`defer` bus
/// event, then the bits of the final estimate handed to
/// `record_adapt_summary`, for 7a, 7b and 7c/d.
const FIG7_STREAMS: [(usize, u64); 3] =
    [(15, 0xb97f_8875_7448_0b38), (8, 0xc8e5_e0b5_46e1_fb2a), (5, 0xe183_4ab0_cfe9_ac51)];

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.lookup(name).map_or(0, |id| obs.counter_value(id))
}

fn queue_run(mode: DrainMode) -> LoadReport {
    let opts = LoadGenOpts::new(QUEUE_SESSIONS).with_drain_mode(mode);
    let db = Arc::new(model_db(&opts));
    run_load(&opts, &db)
}

fn sweep_run(mode: DrainMode) -> LoadReport {
    let db = Arc::new(model_db(&bench_opts(1)));
    run_load(&bench_opts(SWEEP_SESSIONS).with_drain_mode(mode), &db)
}

#[test]
fn queueing_run_digest_is_pinned() {
    let report = queue_run(DrainMode::Batched);
    assert_eq!(report.digest(), QUEUE_DIGEST, "queueing digest {:#x}", report.digest());
}

#[test]
fn sweep_row_digest_is_pinned() {
    let report = sweep_run(DrainMode::Batched);
    assert_eq!(report.digest(), SWEEP_DIGEST, "sweep digest {:#x}", report.digest());
}

#[test]
fn sharded_run_digest_is_pinned() {
    let report = sweep_run(DrainMode::Sharded { threads: 2, shards: 0 });
    assert_eq!(report.digest(), SWEEP_DIGEST, "sharded digest {:#x}", report.digest());
}

#[test]
fn evaluated_plus_parked_ticks_equal_the_ticking_total() {
    let report = queue_run(DrainMode::Batched);
    let ticks = counter(&report.obs, "monitor.ticks");
    let parked = counter(&report.obs, "monitor.ticks_parked");
    assert_eq!(ticks + parked, QUEUE_TICKS, "evaluated {ticks} + parked {parked}");
}

fn exp_scenario(n_images: usize) -> Scenario {
    Scenario {
        n_images,
        img_size: 64,
        levels: 3,
        seed: 2000,
        monitor_window_us: 400_000,
        trigger_gap_us: 150_000,
        ..Scenario::default()
    }
}

/// Digest of one experiment's decision stream and final estimate, plus
/// the number of stream events it covers.
fn stream_digest(res: &ExperimentResult) -> (usize, u64) {
    let obs = &res.adaptive_obs;
    assert_eq!(obs.events_dropped(), 0, "the bus must retain the whole stream");
    let filter = EventFilter::any().source(Source::Scheduler).source(Source::Steering);
    let mut h = Fnv64::new();
    let mut mix = |bytes: &[u8]| h.write_bytes(bytes);
    let mut n = 0;
    for ev in obs.events_filtered(&filter) {
        if !matches!(ev.kind, "decide" | "switch" | "defer") {
            continue;
        }
        n += 1;
        mix(&ev.at_us.to_le_bytes());
        mix(ev.kind.as_bytes());
        for (key, value) in &ev.fields {
            if matches!(*key, "config" | "old" | "new" | "until_us") {
                mix(key.as_bytes());
                mix(format!("{value:?}").as_bytes());
            }
        }
    }
    let estimate = res.adaptive.final_estimate.as_ref().expect("adaptive run records an estimate");
    for (key, value) in estimate.iter() {
        mix(key.to_string().as_bytes());
        mix(&value.to_bits().to_le_bytes());
    }
    (n, h.finish())
}

#[test]
fn fig7_decision_streams_are_pinned() {
    let sc = exp_scenario(40);
    let store = sc.build_store();
    let a = fig7a(&sc, &store, 0.05, 60_000.0, 2_000.0, SimTime::from_secs(2), 2);
    let sc_b = exp_scenario(60);
    let store_b = sc_b.build_store();
    let b = fig7b(&sc_b, &store_b, 100_000.0, 1.0, 0.05, SimTime::from_ms(300), 2);
    let cd = fig7cd(&sc, &store, 100_000.0, 1.0, 0.1, SimTime::from_ms(500), 2);
    let got = [stream_digest(&a), stream_digest(&b), stream_digest(&cd)];
    assert_eq!(got, FIG7_STREAMS, "fig7 streams {got:#x?}");
}
