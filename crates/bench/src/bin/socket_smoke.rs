//! CI socket smoke: one adaptive bandwidth-collapse session run twice —
//! pure simnet, then with every message round-tripped through a real
//! loopback TCP socket (and UDS where available) — asserting the two
//! runs make *exactly* the same adaptive decisions.
//!
//! The kernel owns virtual time, so the only way the wired run can
//! diverge is codec or framing infidelity in the `adapt-transport`
//! socket backend; decision-sequence equality is therefore a bit-level
//! correctness check for the real-socket path. The listener binds port 0
//! (OS-assigned); a UDS bind failure downgrades that backend to a
//! skip, never a failure.
//!
//! `SIMNET_THREADS` flows into the kernel's sharded-drain resolution
//! exactly as in the tier-1 tests; CI runs this binary under both `=1`
//! and `=4` and requires the printed decision digests to match.
//!
//! Exit status: 0 with the FNV digest of the decision sequence on
//! stdout, 1 on divergence.

use adapt_core::{Constraint, Objective, Preference, PreferenceList};
use sandbox::{LimitSchedule, Limits};
use simnet::{Fnv64, SimTime};
use visapp::{
    build_db, decision_sequence, run_adaptive, run_adaptive_wired, socket_mirror_hook,
    MirrorBackend, Scenario,
};

fn scenario() -> Scenario {
    Scenario {
        n_images: 30,
        img_size: 64,
        levels: 3,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    }
}

fn prefs() -> PreferenceList {
    PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ))
}

fn fnv64(lines: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for line in lines {
        h.write_bytes(line.as_bytes());
        h.write_bytes(b"\n");
    }
    h.finish()
}

fn main() {
    let sc = scenario();
    let store = sc.build_store();
    let start = Limits::cpu(0.05).with_net(60_000.0);
    let schedule =
        LimitSchedule::new().at(SimTime::from_secs(2), Limits::cpu(0.05).with_net(2_000.0));

    let db = build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 2);
    let stock = run_adaptive(&sc, &store, db, prefs(), start, Some(schedule.clone()));
    let reference = decision_sequence(&stock.stats);

    let mut failed = false;
    for backend in [MirrorBackend::Tcp, MirrorBackend::Uds] {
        let (hook, handle) = match socket_mirror_hook(backend) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("socket_smoke: {} skipped ({e})", backend.name());
                continue;
            }
        };
        let db = build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 2);
        let wired =
            run_adaptive_wired(&sc, &store, db, prefs(), start, Some(schedule.clone()), hook);
        let report = handle.finish();
        let wired_seq = decision_sequence(&wired.stats);
        if wired_seq != reference || wired.end != stock.end {
            failed = true;
            eprintln!(
                "socket_smoke: {} DIVERGED from simnet\n  simnet: {:?}\n  wired:  {:?}",
                backend.name(),
                reference,
                wired_seq
            );
            continue;
        }
        eprintln!(
            "socket_smoke: {} ok — {} decisions, {} messages, {} wire bytes, end {:.2}s",
            report.backend,
            wired_seq.len(),
            report.messages,
            report.wire_bytes,
            wired.end.as_secs_f64(),
        );
    }
    if failed {
        std::process::exit(1);
    }
    assert!(reference.len() >= 2, "the scenario must exercise runtime adaptation");
    println!("{:016x}", fnv64(&reference));
}
