//! Scale-out load generation: N concurrent adaptive client sessions
//! against a pool of servers, on one deterministic simulation.
//!
//! This is the harness behind `load_bench` and the CI load-regression
//! test. It exists to answer the scaling questions the single-client
//! scenarios cannot: how the event kernel behaves when hundreds of
//! monitors tick on the same 10 ms grid (the batched drain path in
//! [`simnet::kernel`]), and how memory grows when every session carries
//! its own [`adapt_core::AdaptiveRuntime`] but all of them share one interned
//! [`PerfDb`] behind an [`Arc`] (via
//! [`adapt_core::ResourceScheduler::new_shared`]).
//!
//! Determinism: everything — arrival times, think times, per-session QoS
//! profiles — derives from [`LoadGenOpts::seed`] through the workspace's
//! seeded RNG, and the simulation itself consults no wall clock. Two runs
//! with the same options produce byte-identical [`LoadReport::digest`]s.
//!
//! Aggregate observability rides the shared [`Obs`] bus:
//!
//! - `load.sessions_active` (gauge) — arrived minus finished sessions,
//!   sampled by the watcher actor each period;
//! - `load.requests_total` (counter) — request/reply rounds completed
//!   across all sessions;
//! - `runtime.tick` (histogram) — per-tick adaptation-loop latency,
//!   aggregated across every session's runtime;
//! - [`Source::Load`] events `session_start` / `session_done`.

use std::sync::Arc;

use adapt_core::{
    Constraint, Objective, PerfDb, Preference, PreferenceList, Profiler, QosReport, ResourceGrid,
    ResourceVector, MONITOR_PERIOD_US,
};
use obs::{Event, MetricId, Obs, Source};
use sandbox::Limits;
use simnet::{Actor, Ctx, DrainMode, Fnv64, Sim, SimTime, SplitMix64};

use crate::scenario::{
    client_cpu_key, client_net_key, viz_spec, AdaptiveSession, Scenario, PROFILE_INPUT,
};
use crate::stats::StatsHandle;

/// How session start times are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every session arrives at t = 0 (worst case for the event kernel:
    /// all monitors share one timer grid).
    Simultaneous,
    /// Fixed inter-arrival gap: session `i` arrives at `i * gap_us`.
    Uniform { gap_us: u64 },
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean, drawn from the generator's seeded RNG.
    Poisson { mean_gap_us: u64 },
}

impl ArrivalProcess {
    /// The arrival time (us) of each of `n` sessions, in session order.
    fn times(self, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0u64;
        for i in 0..n {
            match self {
                ArrivalProcess::Simultaneous => out.push(0),
                ArrivalProcess::Uniform { gap_us } => out.push(i as u64 * gap_us),
                ArrivalProcess::Poisson { mean_gap_us } => {
                    // Inverse-CDF exponential; u is kept away from 1.0 so
                    // ln never sees 0.
                    let u = rng.next_f64();
                    let gap = (-(1.0 - u).ln() * mean_gap_us as f64) as u64;
                    t = t.saturating_add(gap);
                    out.push(t);
                }
            }
        }
        out
    }
}

/// Per-session QoS preference profile — the "different users want
/// different things" axis of the load mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosProfile {
    /// Maximize resolution subject to a transmit-time bound; fall back to
    /// minimizing transmit time (the paper's Figure 6 user).
    Quality,
    /// Keep rounds snappy: maximize resolution under a response-time
    /// bound, falling back to minimizing response time.
    Interactive,
    /// Bulk download: minimize transmit time outright.
    Throughput,
}

impl QosProfile {
    /// Stable lowercase name for reports and events.
    pub fn name(self) -> &'static str {
        match self {
            QosProfile::Quality => "quality",
            QosProfile::Interactive => "interactive",
            QosProfile::Throughput => "throughput",
        }
    }

    /// The preference list handed to this session's scheduler.
    pub fn preferences(self) -> PreferenceList {
        match self {
            QosProfile::Quality => PreferenceList::single(Preference::new(
                vec![Constraint::at_most("transmit_time", 2.0)],
                Objective::maximize("resolution"),
            ))
            .then(Preference::new(vec![], Objective::minimize("transmit_time"))),
            QosProfile::Interactive => PreferenceList::single(Preference::new(
                vec![Constraint::at_most("response_time", 0.5)],
                Objective::maximize("resolution"),
            ))
            .then(Preference::new(vec![], Objective::minimize("response_time"))),
            QosProfile::Throughput => PreferenceList::single(Preference::new(
                vec![],
                Objective::minimize("transmit_time"),
            )),
        }
    }
}

/// Load-generator options. Build with [`LoadGenOpts::new`] and the
/// consuming `with_*` methods.
#[derive(Debug, Clone)]
pub struct LoadGenOpts {
    /// Number of concurrent client sessions.
    pub sessions: usize,
    /// Number of server actors; sessions are assigned round-robin.
    pub servers: usize,
    /// Master seed: arrivals, think times, and profile assignment all
    /// derive from it.
    pub seed: u64,
    pub arrival: ArrivalProcess,
    /// Per-session think time is drawn uniformly from this range (us).
    pub think_time_us: (u64, u64),
    /// QoS profiles cycled over sessions (session `i` gets `i % len`).
    pub profiles: Vec<QosProfile>,
    /// Images per session.
    pub n_images: usize,
    pub img_size: usize,
    pub levels: usize,
    /// Per-client link to its server.
    pub link_bps: f64,
    pub link_latency_us: u64,
    /// Monitoring-agent window and trigger gap (scaled down from the
    /// interactive scenarios: load sessions are short).
    pub monitor_window_us: u64,
    pub trigger_gap_us: u64,
    /// Event-queue drain strategy under test.
    pub drain_mode: DrainMode,
}

impl Default for LoadGenOpts {
    fn default() -> Self {
        LoadGenOpts {
            sessions: 10,
            servers: 2,
            seed: 7,
            arrival: ArrivalProcess::Poisson { mean_gap_us: 20_000 },
            think_time_us: (10_000, 50_000),
            profiles: vec![QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput],
            n_images: 2,
            img_size: 64,
            levels: 3,
            link_bps: 12_500_000.0,
            link_latency_us: 100,
            monitor_window_us: 200_000,
            trigger_gap_us: 100_000,
            drain_mode: DrainMode::default(),
        }
    }
}

impl LoadGenOpts {
    pub fn new(sessions: usize) -> Self {
        LoadGenOpts { sessions, ..LoadGenOpts::default() }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_servers(mut self, servers: usize) -> Self {
        self.servers = servers.max(1);
        self
    }

    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    pub fn with_think_time(mut self, lo_us: u64, hi_us: u64) -> Self {
        self.think_time_us = (lo_us, hi_us.max(lo_us));
        self
    }

    pub fn with_drain_mode(mut self, mode: DrainMode) -> Self {
        self.drain_mode = mode;
        self
    }

    pub fn with_n_images(mut self, n: usize) -> Self {
        self.n_images = n;
        self
    }

    /// The single-client [`Scenario`] equivalent of these options: the
    /// source of the tunability spec, image store, and `dR`/`l` domains,
    /// so load sessions and the interactive scenarios share one control
    /// space and one performance-database schema.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            n_images: self.n_images,
            img_size: self.img_size,
            levels: self.levels,
            seed: self.seed,
            link_bps: self.link_bps,
            link_latency_us: self.link_latency_us,
            monitor_window_us: self.monitor_window_us,
            trigger_gap_us: self.trigger_gap_us,
            ..Scenario::default()
        }
    }
}

/// Build a performance database for these options from the analytic cost
/// model (no profiling simulations). Deterministic and fast enough to
/// build once per bench sweep even at `sessions = 1000`; every session
/// then shares the same database through an [`Arc`].
pub fn model_db(opts: &LoadGenOpts) -> PerfDb {
    let sc = opts.scenario();
    let spec = viz_spec(&sc);
    let cpu = client_cpu_key();
    let net = client_net_key();
    let grid = ResourceGrid::new()
        .with_axis(cpu.clone(), &[0.25, 0.5, 1.0])
        .with_axis(net.clone(), &[opts.link_bps / 10.0, opts.link_bps / 3.0, opts.link_bps]);
    let cover = (opts.img_size / 2) as f64;
    let img_bytes = (opts.img_size * opts.img_size) as f64;
    let latency_s = opts.link_latency_us as f64 / 1e6;
    let runner = move |config: &adapt_core::Configuration, res: &ResourceVector, _input: &str| {
        let l = config.expect("l") as f64;
        let dr = config.expect("dR") as f64;
        let bzip = config.expect("c") == compress::Method::Bzip.code();
        let share = res.get(&cpu).unwrap_or(1.0).max(0.01);
        let bw = res.get(&net).unwrap_or(1.0).max(1.0);
        // Coarser levels carry ~4x less data each; bzip trades bytes for
        // CPU — the same shape as `costs`, not a calibrated copy.
        let level_scale = 0.25f64.powf((sc.levels as f64 - l).max(0.0));
        let bytes = img_bytes * level_scale * if bzip { 0.55 } else { 0.9 };
        let cpu_s = (0.004 + if bzip { 0.030 } else { 0.004 }) * level_scale * img_bytes
            / 4096.0
            / share
            / 1000.0;
        let rounds = (cover / dr).ceil().max(1.0);
        let transmit = bytes / bw + cpu_s + rounds * latency_s;
        QosReport::new(&[
            ("transmit_time", transmit),
            ("response_time", transmit / rounds),
            ("resolution", l),
        ])
    };
    Profiler::new(spec.configurations(), grid, vec![PROFILE_INPUT.into()]).run_parallel(&runner, 1)
}

/// What one session did, reduced to its deterministic observables.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    pub session: usize,
    pub profile: QosProfile,
    pub arrival_us: u64,
    pub think_time_us: u64,
    /// Simulation time the session delivered its last image; `None` if
    /// the run ended first (cannot happen without faults).
    pub finished_us: Option<u64>,
    pub rounds: u64,
    pub images: u64,
    pub switches: u64,
    pub wire_bytes: u64,
}

/// Aggregate outcome of one load-generator run.
#[derive(Debug)]
pub struct LoadReport {
    pub sessions: Vec<SessionSummary>,
    /// Simulation end time.
    pub end: SimTime,
    /// Events the kernel processed.
    pub events_handled: u64,
    /// High-water mark of the pending-event queue. Under a sharded drain
    /// this is the sum of per-shard peaks (inflated by shard count).
    pub peak_queue_depth: usize,
    /// Deepest any single shard's queue got (equals `peak_queue_depth`
    /// for sequential drains) — the shard-count-independent saturation
    /// diagnostic.
    pub peak_shard_queue_depth: usize,
    pub requests_total: u64,
    pub images_total: u64,
    pub switches_total: u64,
    /// The run's observability sink (`load.*`, `visapp.*`, `runtime.tick`).
    pub obs: Obs,
}

impl LoadReport {
    /// FNV-1a hash over the run's behaviour: per-session
    /// rounds/images/switches/bytes/finish times and the simulation end
    /// time. Two same-seed runs must agree on this digest exactly.
    /// Wall-clock measurements are excluded, and so is every kernel cost
    /// figure (`events_handled`, `peak_queue_depth`,
    /// `peak_shard_queue_depth`): they describe how the kernel got there,
    /// which the benchmark reports and gates on its own, not what the
    /// sessions did.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for s in &self.sessions {
            for v in [
                s.session as u64,
                s.arrival_us,
                s.think_time_us,
                s.finished_us.unwrap_or(u64::MAX),
                s.rounds,
                s.images,
                s.switches,
                s.wire_bytes,
            ] {
                h.write_u64(v);
            }
        }
        h.write_u64(self.end.as_us());
        h.finish()
    }
}

/// Periodic sampler: folds the per-session stats into the aggregate
/// `load.*` metrics and emits `session_done` events. Re-arms its timer
/// only while sessions are still running, so the simulation drains.
///
/// A sample reads only the sessions that are live at it: those that have
/// arrived and were not yet seen finished. Arrivals are non-decreasing in
/// session index, so a cursor admits them in order; a session seen
/// finished leaves the live list with its round count folded into
/// `retired_rounds` (a finished client records no further rounds). Per
/// sample the cost is O(live), not O(sessions).
struct LoadWatcher {
    handles: Vec<StatsHandle>,
    arrivals: Vec<u64>,
    obs: Obs,
    sessions_active: MetricId,
    requests_total: MetricId,
    /// Sessions `0..arrived` have arrived.
    arrived: usize,
    /// Arrived, unfinished session indices, in index order.
    live: Vec<usize>,
    /// Rounds of the sessions that have left `live`.
    retired_rounds: u64,
    reported_rounds: u64,
    /// Session handles read so far: the watcher's cost, which the tests
    /// pin to the live count at each sample.
    reads: u64,
}

impl LoadWatcher {
    fn new(
        handles: Vec<StatsHandle>,
        arrivals: Vec<u64>,
        obs: &Obs,
        sessions_active: MetricId,
        requests_total: MetricId,
    ) -> Self {
        LoadWatcher {
            handles,
            arrivals,
            obs: obs.clone(),
            sessions_active,
            requests_total,
            arrived: 0,
            live: Vec::new(),
            retired_rounds: 0,
            reported_rounds: 0,
            reads: 0,
        }
    }

    fn sample(&mut self, now: SimTime) {
        let newly = self.arrivals[self.arrived..].partition_point(|&t| t <= now.as_us());
        self.live.extend(self.arrived..self.arrived + newly);
        self.arrived += newly;
        let mut live_rounds = 0u64;
        self.live.retain(|&i| {
            self.reads += 1;
            // Only observations strictly before the sample time count: the
            // shared-memory stats are written by other actors, and events
            // at exactly `now` race with this timer in the sequential
            // `(time, seq)` order. The strict filter makes each sample a
            // pure function of simulated time, so a sharded run (where the
            // watcher samples after whole worker epochs) folds the exact
            // same series.
            let (done_at, n_rounds) = self.handles[i].with(|s| {
                let done = s.finished_at.filter(|&t| t < now);
                (done, s.rounds.partition_point(|r| r.finished < now) as u64)
            });
            let Some(t) = done_at else {
                live_rounds += n_rounds;
                return true;
            };
            self.retired_rounds += n_rounds;
            self.obs.publish(
                Event::new(t.as_us(), Source::Load, "session_done")
                    .with("session", i)
                    .with("rounds", n_rounds),
            );
            false
        });
        let rounds = self.retired_rounds + live_rounds;
        self.obs.set(self.sessions_active, self.live.len() as f64);
        self.obs.inc(self.requests_total, rounds - self.reported_rounds);
        self.reported_rounds = rounds;
    }

    fn all_done(&self) -> bool {
        self.arrived == self.handles.len() && self.live.is_empty()
    }
}

impl Actor for LoadWatcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(MONITOR_PERIOD_US, 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        self.sample(ctx.now());
        if !self.all_done() {
            ctx.set_timer(MONITOR_PERIOD_US, 0);
        }
    }
}

/// Run the load generator: `opts.sessions` adaptive clients, one shared
/// performance database, one simulation. Returns the aggregate report;
/// the per-run `Obs` rides inside it.
///
/// The database is taken by `Arc` and **shared** into every session's
/// scheduler ([`adapt_core::ResourceScheduler::new_shared`]) — memory for the
/// performance data is O(1) in the session count, which
/// `bench/load_bench` demonstrates against the O(N) per-session-clone
/// alternative.
pub fn run_load(opts: &LoadGenOpts, db: &Arc<PerfDb>) -> LoadReport {
    simulate(opts, db).0
}

/// [`run_load`], also returning every session's finished stats handle.
fn simulate(opts: &LoadGenOpts, db: &Arc<PerfDb>) -> (LoadReport, Vec<StatsHandle>) {
    assert!(opts.sessions > 0, "need at least one session");
    assert!(!opts.profiles.is_empty(), "need at least one QoS profile");
    let sc = opts.scenario();
    sc.validate().expect("invalid load scenario");
    let store = sc.build_store();
    let obs = Obs::new();
    // Pre-register the aggregate metrics so ids exist even if the run is
    // over before the first watcher sample.
    let sessions_active = obs.gauge("load.sessions_active");
    let requests_total = obs.counter("load.requests_total");

    let mut rng = SplitMix64::new(opts.seed);
    let arrivals = opts.arrival.times(opts.sessions, &mut rng);
    let (lo, hi) = opts.think_time_us;
    let think: Vec<u64> = (0..opts.sessions).map(|_| rng.range(lo, hi)).collect();
    let profiles: Vec<QosProfile> =
        (0..opts.sessions).map(|i| opts.profiles[i % opts.profiles.len()]).collect();

    let mut sim = Sim::new();
    sim.set_drain_mode(opts.drain_mode);
    sim.attach_obs(&obs);

    let server_hosts: Vec<_> = (0..opts.servers.max(1))
        .map(|j| sim.add_host(&format!("server{j}"), 1.0, 1 << 30))
        .collect();
    let server_ids: Vec<_> = server_hosts
        .iter()
        .map(|&h| sim.spawn(h, Box::new(crate::server::Server::new(store.clone()).with_obs(&obs))))
        .collect();

    let sc = Arc::new(sc);
    let mut handles = Vec::with_capacity(opts.sessions);
    for i in 0..opts.sessions {
        let hc = sim.add_host(&format!("client{i}"), 1.0, 1 << 30);
        let hs = server_hosts[i % server_hosts.len()];
        sim.set_link(hc, hs, opts.link_bps, opts.link_latency_us);
        let handle = StatsHandle::new();
        handle.attach_obs(&obs);
        handles.push(handle.clone());

        // Session state is built lazily at its arrival time, inside the
        // simulation: the runtime's initial scheduler decision happens
        // "on admission", exactly like a real session joining the pool.
        let (sc, store, db, obs) = (sc.clone(), store.clone(), db.clone(), obs.clone());
        let prefs = profiles[i].preferences();
        let server = server_ids[i % server_ids.len()];
        let think_us = think[i];
        // Pinned to the client host so a sharded run builds the session on
        // the shard that owns it.
        sim.at_on(hc, SimTime::from_us(arrivals[i]), move |s| {
            let client = AdaptiveSession {
                server,
                db,
                prefs,
                limits: Limits::unconstrained(),
                think_time_us: Some(think_us),
                stats: handle,
                obs: &obs,
                control: None,
            }
            .build(&sc, &store);
            s.spawn(hc, Box::new(client));
            obs.publish(
                Event::new(s.now().as_us(), Source::Load, "session_start").with("session", i),
            );
        });
    }

    let watcher_host = sim.add_host("loadgen", 1.0, 1 << 30);
    // The watcher only reads shared memory; marking its host as an
    // observer lets a sharded run give it a shard of its own, sampled
    // after the worker shards each epoch.
    sim.mark_observer(watcher_host);
    sim.spawn(
        watcher_host,
        Box::new(LoadWatcher::new(
            handles.clone(),
            arrivals.clone(),
            &obs,
            sessions_active,
            requests_total,
        )),
    );

    sim.run_until_idle();

    let mut sessions = Vec::with_capacity(opts.sessions);
    let (mut requests, mut images, mut switches) = (0u64, 0u64, 0u64);
    for (i, h) in handles.iter().enumerate() {
        let summary = h.with(|stats| SessionSummary {
            session: i,
            profile: profiles[i],
            arrival_us: arrivals[i],
            think_time_us: think[i],
            finished_us: stats.finished_at.map(|t| t.as_us()),
            rounds: stats.rounds.len() as u64,
            images: stats.images.len() as u64,
            switches: stats.switch_count() as u64,
            wire_bytes: stats.total_wire_bytes(),
        });
        requests += summary.rounds;
        images += summary.images;
        switches += summary.switches;
        sessions.push(summary);
    }
    let report = LoadReport {
        sessions,
        end: sim.now(),
        events_handled: sim.events_handled(),
        peak_queue_depth: sim.peak_queue_depth(),
        peak_shard_queue_depth: sim.peak_shard_queue_depth(),
        requests_total: requests,
        images_total: images,
        switches_total: switches,
        obs,
    };
    (report, handles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sessions: usize) -> LoadGenOpts {
        LoadGenOpts::new(sessions).with_n_images(1).with_think_time(5_000, 20_000)
    }

    #[test]
    fn every_session_finishes() {
        let opts = tiny(6);
        let db = Arc::new(model_db(&opts));
        let report = run_load(&opts, &db);
        assert_eq!(report.sessions.len(), 6);
        for s in &report.sessions {
            assert!(s.finished_us.is_some(), "session {} never finished", s.session);
            assert_eq!(s.images, 1);
            assert!(s.rounds >= 1);
        }
        assert_eq!(report.images_total, 6);
        assert!(report.events_handled > 0);
        assert!(report.peak_queue_depth >= 2);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let opts = tiny(5);
        let db = Arc::new(model_db(&opts));
        let a = run_load(&opts, &db);
        let b = run_load(&opts, &db);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.end, b.end);
        assert_eq!(a.events_handled, b.events_handled);
    }

    #[test]
    fn seed_changes_the_run() {
        let opts = tiny(5);
        let db = Arc::new(model_db(&opts));
        let a = run_load(&opts, &db);
        let b = run_load(&opts.clone().with_seed(opts.seed + 1), &db);
        assert_ne!(a.digest(), b.digest(), "seed must reach arrivals/think times");
    }

    #[test]
    fn heap_and_batched_drain_agree() {
        let opts = tiny(4);
        let db = Arc::new(model_db(&opts));
        let batched = run_load(&opts.clone().with_drain_mode(DrainMode::Batched), &db);
        let heap = run_load(&opts.clone().with_drain_mode(DrainMode::Heap), &db);
        assert_eq!(batched.digest(), heap.digest(), "drain mode must not change semantics");
        assert_eq!(batched.events_handled, heap.events_handled);
    }

    #[test]
    fn sharded_matches_batched_across_thread_counts() {
        let opts = tiny(8);
        let db = Arc::new(model_db(&opts));
        let batched = run_load(&opts.clone().with_drain_mode(DrainMode::Batched), &db);
        for threads in [1usize, 2, 4, 8] {
            let sharded = run_load(
                &opts.clone().with_drain_mode(DrainMode::Sharded { threads, shards: 0 }),
                &db,
            );
            assert_eq!(
                batched.digest(),
                sharded.digest(),
                "sharded drain diverged at threads={threads}"
            );
            assert_eq!(batched.end, sharded.end, "threads={threads}");
            assert_eq!(batched.events_handled, sharded.events_handled, "threads={threads}");
        }
    }

    #[test]
    fn aggregate_metrics_flow_to_obs() {
        let opts = tiny(3);
        let db = Arc::new(model_db(&opts));
        let report = run_load(&opts, &db);
        let obs = &report.obs;
        let requests = obs.counter_value(obs.lookup("load.requests_total").unwrap());
        assert_eq!(requests, report.requests_total, "watcher must fold all rounds");
        // All sessions finished, so the last sample read zero active.
        assert_eq!(obs.gauge_value(obs.lookup("load.sessions_active").unwrap()), 0.0);
        let ticks = obs.histogram_stats(obs.lookup("runtime.tick").unwrap());
        assert!(ticks.count > 0, "per-session adapt latencies must aggregate");
        let starts = report
            .obs
            .events_filtered(&obs::EventFilter::any().source(Source::Load).kind("session_start"));
        let dones = report
            .obs
            .events_filtered(&obs::EventFilter::any().source(Source::Load).kind("session_done"));
        assert_eq!(starts.len(), 3);
        assert_eq!(dones.len(), 3);
    }

    /// The fold the live-list watcher replaced: every sample reads every
    /// session and every arrival time.
    struct FullScan {
        seen_done: Vec<bool>,
        reported_rounds: u64,
    }

    /// One sample's output: the `load.requests_total` delta, the
    /// `load.sessions_active` value and the `session_done` events as
    /// `(t, session, rounds)`.
    type SampleOut = (u64, f64, Vec<(u64, u64, u64)>);

    impl FullScan {
        fn sample(&mut self, handles: &[StatsHandle], arrivals: &[u64], now: SimTime) -> SampleOut {
            let (mut finished, mut rounds, mut done) = (0usize, 0u64, Vec::new());
            for (i, h) in handles.iter().enumerate() {
                let (done_at, n) = h.with(|s| {
                    let done = s.finished_at.filter(|&t| t < now);
                    (done, s.rounds.partition_point(|r| r.finished < now) as u64)
                });
                rounds += n;
                if let Some(t) = done_at {
                    finished += 1;
                    if !self.seen_done[i] {
                        self.seen_done[i] = true;
                        done.push((t.as_us(), i as u64, n));
                    }
                }
            }
            let arrived = arrivals.iter().filter(|&&t| t <= now.as_us()).count();
            let delta = rounds - self.reported_rounds;
            self.reported_rounds = rounds;
            (delta, (arrived - finished) as f64, done)
        }
    }

    fn done_events(obs: &Obs) -> Vec<(u64, u64, u64)> {
        obs.events_filtered(&obs::EventFilter::any().source(Source::Load).kind("session_done"))
            .iter()
            .map(|e| (e.at_us, e.u64_field("session").unwrap(), e.u64_field("rounds").unwrap()))
            .collect()
    }

    const ARRIVALS: [ArrivalProcess; 3] = [
        ArrivalProcess::Poisson { mean_gap_us: 20_000 },
        ArrivalProcess::Uniform { gap_us: 15_000 },
        ArrivalProcess::Simultaneous,
    ];

    /// A finished run, with a fresh watcher driven over its handles at
    /// every period until it reports all done. Every sample is checked
    /// against the full-scan fold. Returns the run, the watcher and the
    /// number of samples taken.
    fn replay(arrival: ArrivalProcess) -> (LoadReport, LoadWatcher, u64) {
        let opts = tiny(12).with_arrival(arrival);
        let db = Arc::new(model_db(&opts));
        let (report, handles) = simulate(&opts, &db);
        let arrivals: Vec<u64> = report.sessions.iter().map(|s| s.arrival_us).collect();
        let obs = Obs::new();
        let active = obs.gauge("load.sessions_active");
        let total = obs.counter("load.requests_total");
        let mut watcher = LoadWatcher::new(handles.clone(), arrivals.clone(), &obs, active, total);
        let mut reference = FullScan { seen_done: vec![false; handles.len()], reported_rounds: 0 };
        let mut samples = 0u64;
        while !watcher.all_done() {
            samples += 1;
            let now = SimTime::from_us(samples * MONITOR_PERIOD_US);
            let (total_before, done_before) = (obs.counter_value(total), done_events(&obs).len());
            watcher.sample(now);
            let got = (
                obs.counter_value(total) - total_before,
                obs.gauge_value(active),
                done_events(&obs)[done_before..].to_vec(),
            );
            assert_eq!(got, reference.sample(&handles, &arrivals, now), "{arrival:?} at {now:?}");
        }
        assert!(reference.seen_done.iter().all(|&d| d), "{arrival:?}: watcher stopped early");
        // The replay folds exactly what the watcher inside the run folded.
        assert_eq!(done_events(&obs), done_events(&report.obs), "{arrival:?}");
        assert_eq!(obs.counter_value(total), report.requests_total, "{arrival:?}");
        (report, watcher, samples)
    }

    #[test]
    fn watcher_matches_full_scan_fold_at_every_sample() {
        for arrival in ARRIVALS {
            let (report, _, samples) = replay(arrival);
            assert!(samples > 1, "{arrival:?}");
            assert_eq!(done_events(&report.obs).len(), report.sessions.len(), "{arrival:?}");
        }
    }

    #[test]
    fn watcher_reads_each_session_only_while_live() {
        for arrival in ARRIVALS {
            let (report, watcher, samples) = replay(arrival);
            let period = MONITOR_PERIOD_US;
            // Session reads: every sample from its arrival through the first
            // sample after its finish.
            let expected: u64 = report
                .sessions
                .iter()
                .map(|s| {
                    let first = s.arrival_us.div_ceil(period).max(1);
                    let last = s.finished_us.unwrap() / period + 1;
                    last - first + 1
                })
                .sum();
            // A full scan reads every session at every sample.
            let full_scan = report.sessions.len() as u64 * samples;
            assert!(expected < full_scan, "{arrival:?}: the run cannot tell the two apart");
            assert_eq!(watcher.reads, expected, "{arrival:?}");
        }
    }

    #[test]
    fn watcher_counts_only_observations_strictly_before_the_sample() {
        // A round and a finish landing exactly on a sample time are seen
        // by the next sample, not by that one.
        let period = MONITOR_PERIOD_US;
        let at = SimTime::from_us(2 * period);
        let h = StatsHandle::new();
        h.record_round(crate::stats::RoundRecord {
            image_id: 0,
            round: 0,
            wire_round: 0,
            started: SimTime::from_us(period / 2),
            finished: at,
            wire_bytes: 1,
            raw_bytes: 1,
            level: 0,
            dr: 1,
        });
        h.record_finished(at);
        let obs = Obs::new();
        let active = obs.gauge("load.sessions_active");
        let total = obs.counter("load.requests_total");
        let mut watcher = LoadWatcher::new(vec![h], vec![0], &obs, active, total);
        watcher.sample(at);
        assert_eq!((obs.counter_value(total), obs.gauge_value(active)), (0, 1.0));
        assert!(done_events(&obs).is_empty() && !watcher.all_done());
        watcher.sample(SimTime::from_us(3 * period));
        assert_eq!((obs.counter_value(total), obs.gauge_value(active)), (1, 0.0));
        assert_eq!(done_events(&obs), vec![(at.as_us(), 0, 1)]);
        assert!(watcher.all_done());
        assert_eq!(watcher.reads, 2);
    }

    #[test]
    fn load_bus_events_match_across_drain_modes() {
        let opts = tiny(8);
        let db = Arc::new(model_db(&opts));
        let load_events = |mode: DrainMode| {
            let report = run_load(&opts.clone().with_drain_mode(mode), &db);
            let mut events: Vec<Event> = report
                .obs
                .events_filtered(&obs::EventFilter::any().source(Source::Load))
                .iter()
                .map(|e| (**e).clone())
                .collect();
            // Worker shards publish `session_start` concurrently, so only
            // the watcher's `session_done` sequence has a fixed bus order
            // under a sharded drain; compare the rest as a multiset.
            let done = done_events(&report.obs);
            events.sort_by_key(|e| (e.at_us, e.kind, e.u64_field("session")));
            (done, events)
        };
        let batched = load_events(DrainMode::Batched);
        assert_eq!(batched.0.len(), 8);
        for threads in [1usize, 2] {
            let sharded = load_events(DrainMode::Sharded { threads, shards: 0 });
            assert_eq!(batched, sharded, "threads={threads}");
        }
    }

    #[test]
    fn sessions_share_one_perfdb_allocation() {
        let opts = tiny(4);
        let db = Arc::new(model_db(&opts));
        let before = Arc::strong_count(&db);
        let _ = run_load(&opts, &db);
        // Every per-session scheduler clone was dropped with the sim.
        assert_eq!(Arc::strong_count(&db), before);
        assert!(db.approx_bytes() > 0);
    }

    #[test]
    fn arrival_processes_are_ordered_and_deterministic() {
        let mut r1 = SplitMix64::new(3);
        let mut r2 = SplitMix64::new(3);
        let a = ArrivalProcess::Poisson { mean_gap_us: 10_000 }.times(20, &mut r1);
        let b = ArrivalProcess::Poisson { mean_gap_us: 10_000 }.times(20, &mut r2);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
        let u = ArrivalProcess::Uniform { gap_us: 500 }.times(3, &mut r1);
        assert_eq!(u, vec![0, 500, 1000]);
        assert!(ArrivalProcess::Simultaneous.times(3, &mut r1).iter().all(|&t| t == 0));
    }
}
