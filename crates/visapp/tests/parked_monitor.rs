//! Parked monitor ticks against the always-ticking monitor.
//!
//! Under `DrainMode::Explore` with the identity plan the schedule is the
//! batched one, but the client never parks its monitor: that run is the
//! reference. A relay between client and server holds every reply until
//! the client has parked, then delivers it exactly on a grid tick `T`,
//! enqueued just before, exactly at, or just after `T - P` — the three
//! ways the reply can order against the tick the kernel would have
//! enqueued at `T - P`. Every client-visible outcome must match the
//! reference bit for bit, and so must the number of ticks.

use std::sync::Arc;

use adapt_core::{
    AdaptiveRuntime, Objective, Preference, PreferenceList, ResourceScheduler, ResourceVector,
    MONITOR_PERIOD_US as P,
};
use obs::Obs;
use sandbox::{Limits, LimitsHandle, SandboxStats, Sandboxed};
use simnet::{Actor, ActorId, Ctx, DrainMode, ExplorePlan, Message, Sim, SimTime};
use visapp::load::{model_db, LoadGenOpts};
use visapp::{
    client_cpu_key, client_net_key, viz_spec, AdaptSetup, Client, ClientOpts, Server, StatsHandle,
    UserModel, VizConfig, PROFILE_INPUT,
};

const RELEASE: u64 = 1;
/// The monitor window: the client parks 21 ticks after its readings last
/// changed.
const WINDOW_US: u64 = 200_000;

/// Forwards requests to the server and holds each reply until the grid
/// tick at least `hold_us` after it arrived, sending it at `T - P +
/// offset` over a link that delivers it at exactly `T`.
struct Relay {
    client: ActorId,
    server: ActorId,
    offset: i64,
    hold_us: u64,
    held: Vec<Message>,
}

impl Actor for Relay {
    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        if from == self.server {
            let now = ctx.now().as_us();
            // The client starts at 0, so its ticks fall on multiples of P.
            let t = (now + self.hold_us).div_ceil(P) * P;
            let send_at = (t - P) as i64 + self.offset;
            self.held.push(msg);
            ctx.set_timer(send_at as u64 - now, RELEASE);
        } else {
            ctx.send_now(self.server, msg);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        let msg = self.held.remove(0);
        ctx.send_now(self.client, msg);
    }
}

struct Outcome {
    stats: String,
    ticks: u64,
    parked: u64,
}

/// One client behind the relay. `crash` crashes the client's host at the
/// first instant and restarts it at the second.
fn run(mode: DrainMode, offset: i64, crash: Option<(u64, u64)>) -> Outcome {
    let opts = LoadGenOpts::new(1).with_n_images(2);
    let sc = opts.scenario();
    let store = sc.build_store();
    let db = Arc::new(model_db(&opts));
    let prefs =
        PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")));
    let scheduler = ResourceScheduler::new_shared(db, prefs, PROFILE_INPUT);
    let start = ResourceVector::new(&[(client_cpu_key(), 1.0), (client_net_key(), 1e6)]);
    let obs = Obs::new();
    let mut runtime =
        AdaptiveRuntime::try_configure(viz_spec(&sc), scheduler, WINDOW_US, &start).unwrap();
    runtime.set_obs(&obs);
    let initial = VizConfig::from_configuration(runtime.current());

    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let hc = sim.add_host("client", 1.0, 1 << 30);
    let hr = sim.add_host("relay", 1.0, 1 << 30);
    let hs = sim.add_host("server", 1.0, 1 << 30);
    // Toward the client, a reply of any size takes 1 us plus latency; the
    // other direction does not depend on the offset.
    let latency = (P as i64 - offset - 1) as u64;
    sim.set_link_directed(hr, hc, 1e12, latency);
    sim.set_link_directed(hc, hr, 1e12, 100);
    sim.set_link(hr, hs, 12_500_000.0, 100);
    let (client_id, relay_id, server_id) = (ActorId(0), ActorId(1), ActorId(2));
    let sandbox_stats = SandboxStats::new(WINDOW_US);
    let adapt = AdaptSetup {
        runtime,
        sandbox_stats: sandbox_stats.clone(),
        cpu_key: client_cpu_key(),
        net_key: client_net_key(),
        period_us: P,
    };
    let stats = StatsHandle::new();
    let copts = ClientOpts::new(relay_id)
        .with_n_images(sc.n_images)
        .with_initial(initial)
        .with_user(UserModel::center(sc.img_size, sc.img_size))
        .with_geometry(store.cover_radius(), store.dims(), store.levels());
    let client = Client::new(copts, stats.clone(), Some(adapt));
    let limits = LimitsHandle::new(Limits::unconstrained());
    assert_eq!(sim.spawn(hc, Box::new(Sandboxed::new(client, limits, sandbox_stats))), client_id);
    let relay =
        Relay { client: client_id, server: server_id, offset, hold_us: 400_000, held: vec![] };
    assert_eq!(sim.spawn(hr, Box::new(relay)), relay_id);
    assert_eq!(sim.spawn(hs, Box::new(Server::new(store))), server_id);
    if let Some((down, up)) = crash {
        sim.at(SimTime::from_us(down), move |s| s.crash_host(hc));
        sim.at(SimTime::from_us(up), move |s| s.restart_host(hc));
    }
    sim.run_until_idle();
    let count = |name: &str| obs.lookup(name).map_or(0, |id| obs.counter_value(id));
    Outcome {
        stats: format!("{:?}", stats.take()),
        ticks: count("monitor.ticks"),
        parked: count("monitor.ticks_parked"),
    }
}

fn reference(offset: i64, crash: Option<(u64, u64)>) -> Outcome {
    run(DrainMode::Explore(ExplorePlan::new(0)), offset, crash)
}

#[test]
fn a_reply_on_a_parked_tick_orders_like_the_real_timer() {
    for offset in [-1i64, 0, 1] {
        let want = reference(offset, None);
        assert_eq!(want.parked, 0, "exploration never parks");
        for mode in [DrainMode::Batched, DrainMode::Heap] {
            let got = run(mode, offset, None);
            assert!(got.parked > got.ticks, "{mode:?} offset {offset}: parked {}", got.parked);
            assert_eq!(got.ticks + got.parked, want.ticks, "{mode:?} offset {offset}");
            assert_eq!(got.stats, want.stats, "{mode:?} offset {offset}");
        }
    }
}

#[test]
fn the_reply_order_is_observable() {
    // Whether the tick at T sees the reply's bandwidth sample changes the
    // final estimate, so the pins above would catch a misordered tick.
    assert_ne!(reference(-1, None).stats, reference(1, None).stats);
}

#[test]
fn a_crash_while_parked_ends_the_ticks_at_the_crash() {
    // The first reply is held until about 0.45 s; the client parks well
    // before. Crash on a grid instant and off it, restart later.
    for crash in [(300_000, 350_000), (300_005, 420_000), (310_000, 310_000 + P)] {
        let want = reference(0, Some(crash));
        let got = run(DrainMode::Batched, 0, Some(crash));
        assert!(got.parked > 0, "crash {crash:?}: never parked");
        assert_eq!(got.ticks + got.parked, want.ticks, "crash {crash:?}");
        assert_eq!(got.stats, want.stats, "crash {crash:?}");
    }
}
