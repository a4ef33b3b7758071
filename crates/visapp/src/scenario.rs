//! Scenario assembly: complete simulated deployments of the active
//! visualization application, static or adaptive, plus the profiling
//! runner that populates the performance database.
//!
//! This is the experiment harness layer: Figures 4-7 are all produced by
//! composing [`run_static`], [`run_adaptive`], and [`build_db`] with
//! different parameters and resource schedules.
//!
//! Every adaptive client — here, in the load generator and in the
//! arbiter's storm — is built by [`AdaptiveSession::build`]: the caller
//! names the server, database, preferences, starting limits, think time
//! and sinks, and the [`Scenario`] supplies the rest (DESIGN.md, "Session
//! assembly"). Every `run_*` entry point here is one call to a single
//! private run path over one two-host testbed.

use std::sync::Arc;

use adapt_core::{
    AdaptiveRuntime, Configuration, ControlParam, ControlSpace, ExecutionEnv, PerfDb,
    PreferenceList, Profiler, QosMetricDef, QosReport, ResourceGrid, ResourceKey,
    ResourceScheduler, ResourceVector, TaskGraph, TaskSpec, TransitionAction, TransitionSpec,
    TunableSpec,
};
use compress::Method;
use obs::{Command, CommandRouter, ConfigRegistry, Obs};
use sandbox::{LimitSchedule, Limits, LimitsHandle, SandboxStats, Sandboxed};
use simnet::{ActorId, DrainMode, FaultPlan, HostId, LinkMode, Sim, SimTime};

use crate::client::{AdaptSetup, Client, ClientOpts, VizConfig};
use crate::resilience::{BreakerOpts, RetryPolicy};
use crate::server::Server;
use crate::stats::{RunStats, StatsHandle};
use crate::store::ImageStore;
use crate::user_model::UserModel;

/// A background competing process on the client host: kernel-scheduled
/// (not sandboxed), so it genuinely contends with the client for CPU —
/// the paper's "competition for resources affecting their dynamic
/// availability". The monitoring agent must *infer* the reduced share
/// from its own progress, with no ground-truth signal.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// When the process starts (absolute simulation time, us).
    pub start_us: u64,
    /// Proportional-share weight relative to the client's 1.0.
    pub weight: f64,
    /// How long it runs (us).
    pub duration_us: u64,
}

/// The competing process: CPU-bound slices until its deadline.
struct LoadActor {
    until: SimTime,
}

impl simnet::Actor for LoadActor {
    fn on_start(&mut self, ctx: &mut simnet::Ctx<'_>) {
        ctx.compute(100_000.0);
        ctx.continue_with(0);
    }
    fn on_continue(&mut self, _tag: u64, ctx: &mut simnet::Ctx<'_>) {
        if ctx.now() < self.until {
            ctx.compute(100_000.0);
            ctx.continue_with(0);
        }
    }
}

fn install_loads(sim: &mut Sim, host: simnet::HostId, loads: &[LoadSpec]) {
    for spec in loads {
        let LoadSpec { start_us, weight, duration_us } = *spec;
        sim.at(SimTime::from_us(start_us), move |s| {
            let until = s.now() + duration_us;
            let id = s.spawn(host, Box::new(LoadActor { until }));
            s.set_weight(id, weight);
        });
    }
}

/// A deployment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub n_images: usize,
    pub img_size: usize,
    pub levels: usize,
    pub seed: u64,
    /// Physical link bandwidth (bytes/second) and latency.
    pub link_bps: f64,
    pub link_latency_us: u64,
    /// Host speeds relative to the reference machine (PII-450).
    pub client_speed: f64,
    pub server_speed: f64,
    /// Optional outbound bandwidth cap on the *server's* sandbox (used in
    /// Figure 4b, where the server is limited to 1 MBps).
    pub server_net_cap: Option<f64>,
    /// Really decompress/reconstruct in the client and assert exactness.
    pub verify: bool,
    /// Monitoring-agent history window (paper: sliding window over 10 ms
    /// samples). Scale down together with workload size in small tests.
    pub monitor_window_us: u64,
    /// Minimum gap between monitor triggers.
    pub trigger_gap_us: u64,
    /// Background competing processes on the client host.
    pub competing_load: Vec<LoadSpec>,
    /// Message-loss probability injected on both link directions, with a
    /// deterministic seed (failure injection).
    pub link_loss: Option<(f64, u64)>,
    /// Client request-retransmission timeout (required for lossy links).
    pub request_timeout_us: Option<u64>,
    /// Retransmission backoff/jitter schedule.
    pub retry: RetryPolicy,
    /// Client-side circuit breaker (`None` = retry forever).
    pub breaker: Option<BreakerOpts>,
    /// Full fault-injection plan (loss, jitter, down windows, partitions,
    /// host crashes) installed on top of `link_loss`. Host references use
    /// [`CLIENT_HOST`] / [`SERVER_HOST`].
    pub fault_plan: Option<FaultPlan>,
    /// How concurrent messages share the client-server link.
    pub link_mode: LinkMode,
    /// Kernel event-queue drain strategy. The default
    /// ([`DrainMode::Batched`]) is what every experiment uses; the
    /// simulation-test explorer (`adapt-dst`) sets
    /// [`DrainMode::Explore`] to perturb the schedule per trial.
    pub drain_mode: DrainMode,
    /// Scheduled control-plane commands, each dispatched through the run's
    /// [`CommandRouter`] at its simulation time on behalf of the named
    /// operator. Empty (the default) leaves every run byte-identical to a
    /// run with no control plane at all.
    pub commands: Vec<CommandAt>,
}

/// One scheduled control-plane command: `(at_us, who, command)`.
pub type CommandAt = (u64, String, Command);

/// The client host in every scenario-assembled simulation (added first).
pub const CLIENT_HOST: HostId = HostId(0);
/// The server host in every scenario-assembled simulation (added second).
pub const SERVER_HOST: HostId = HostId(1);

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            n_images: 10,
            img_size: 256,
            levels: 4,
            seed: 42,
            // 100 Mbps Ethernet, 100us one-way.
            link_bps: 12_500_000.0,
            link_latency_us: 100,
            client_speed: 1.0,
            server_speed: 1.0,
            server_net_cap: None,
            verify: false,
            monitor_window_us: 2_000_000,
            trigger_gap_us: 500_000,
            competing_load: Vec::new(),
            link_loss: None,
            request_timeout_us: None,
            retry: RetryPolicy::default(),
            breaker: None,
            fault_plan: None,
            link_mode: LinkMode::Fifo,
            drain_mode: DrainMode::Batched,
            commands: Vec::new(),
        }
    }
}

impl Scenario {
    /// A small, fast configuration for unit tests.
    pub fn small() -> Self {
        Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() }
    }

    /// Check the parameters are mutually consistent before running: a
    /// malformed scenario reports [`adapt_core::Error::InvalidScenario`]
    /// instead of failing obscurely mid-simulation.
    pub fn validate(&self) -> adapt_core::Result<()> {
        let fail = |why: String| Err(adapt_core::Error::InvalidScenario(why));
        if self.n_images == 0 {
            return fail("n_images must be at least 1".into());
        }
        if self.levels == 0 {
            return fail("levels must be at least 1".into());
        }
        if self.img_size < (1 << self.levels) {
            return fail(format!(
                "img_size {} cannot carry a {}-level pyramid",
                self.img_size, self.levels
            ));
        }
        // NaN must fail too, so compare through `partial_cmp` rather than
        // a negated `>`.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.link_bps) {
            return fail(format!("link_bps {} must be positive", self.link_bps));
        }
        if !positive(self.client_speed) || !positive(self.server_speed) {
            return fail("host speeds must be positive".into());
        }
        if let Some(cap) = self.server_net_cap {
            if !positive(cap) {
                return fail(format!("server_net_cap {cap} must be positive"));
            }
        }
        if let Some((p, _)) = self.link_loss {
            if !(0.0..=1.0).contains(&p) {
                return fail(format!("link loss probability {p} out of [0, 1]"));
            }
            if p > 0.0 && self.request_timeout_us.is_none() {
                return fail("lossy links need a request timeout to retransmit".into());
            }
        }
        Ok(())
    }

    pub fn build_store(&self) -> Arc<ImageStore> {
        Arc::new(ImageStore::generate(self.n_images, self.img_size, self.levels, self.seed))
    }

    /// Sensible `dR` domain for this image size: quarter, half, and full
    /// cover radius.
    pub fn dr_values(&self) -> Vec<i64> {
        let cover = (self.img_size / 2) as i64;
        vec![cover / 4, cover / 2, cover]
    }

    /// Resolution-level domain: the two finest levels (the paper's
    /// "level 3 and level 4").
    pub fn level_values(&self) -> (i64, i64) {
        ((self.levels - 1) as i64, self.levels as i64)
    }
}

/// The client-side resource keys used across all experiments.
pub fn client_cpu_key() -> ResourceKey {
    ResourceKey::cpu("client")
}

pub fn client_net_key() -> ResourceKey {
    ResourceKey::net("client")
}

/// Memory axis (an extension beyond the paper's CPU/network experiments;
/// the sandbox models paging slowdown above the limit).
pub fn client_mem_key() -> ResourceKey {
    ResourceKey::mem("client")
}

/// Build the tunability specification for a scenario (the programmatic
/// twin of `adapt_core::dsl::ACTIVE_VIZ_SPEC`, with domains matched to the
/// scenario's geometry).
pub fn viz_spec(sc: &Scenario) -> TunableSpec {
    let (l_lo, l_hi) = sc.level_values();
    let mut tasks = TaskGraph::default();
    tasks.add_task(
        TaskSpec::new("module1")
            .with_params(&["l", "dR", "c"])
            .with_resources(&[client_cpu_key(), client_net_key()])
            .with_metrics(&["transmit_time", "response_time", "resolution"]),
    );
    let spec = TunableSpec {
        control: ControlSpace::new(vec![
            ControlParam::set("dR", &sc.dr_values()),
            ControlParam::enumeration(
                "c",
                &[("lzw", Method::Lzw.code()), ("bzip", Method::Bzip.code())],
            ),
            ControlParam::range("l", l_lo, l_hi, 1),
        ]),
        env: ExecutionEnv::default()
            .with_host("client")
            .with_host("server")
            .with_link("client", "server"),
        metrics: vec![
            QosMetricDef::lower("transmit_time", "s"),
            QosMetricDef::lower("response_time", "s"),
            QosMetricDef::higher("resolution", "level"),
        ],
        tasks,
        transitions: vec![TransitionSpec::on(
            &["c"],
            vec![TransitionAction::NotifyHost { host: "server".into(), param: "c".into() }],
        )],
    };
    spec.validate().expect("generated spec must be valid");
    spec
}

/// What a run produced.
pub struct RunOutcome {
    pub stats: RunStats,
    pub end: SimTime,
    /// The run's observability sink: every kernel trace event, adaptation
    /// event, and `visapp.*` metric, queryable after the fact.
    pub obs: Obs,
    /// The run's control plane: the router (and its registry of live
    /// knobs) that [`Scenario::commands`] dispatched through. Still live
    /// after the run — `ListConfig` shows the final knob state.
    pub control: CommandRouter,
}

/// Debug hook: `VISAPP_EVENT_LIMIT=<n>` installs a runaway-loop backstop
/// (its panic prints the newest kernel events on the run's bus).
fn apply_debug_env(sim: &mut Sim) {
    if let Ok(v) = std::env::var("VISAPP_EVENT_LIMIT") {
        if let Ok(n) = v.parse::<u64>() {
            sim.set_event_limit(Some(n));
        }
    }
}

/// The scenario's client options against `server_id` (builder form).
fn client_opts(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    server_id: ActorId,
    config: VizConfig,
) -> ClientOpts {
    ClientOpts::new(server_id)
        .with_n_images(sc.n_images)
        .with_initial(config)
        .with_user(UserModel::center(sc.img_size, sc.img_size))
        .with_geometry(store.cover_radius(), store.dims(), store.levels())
        .with_request_timeout(sc.request_timeout_us)
        .with_retry(sc.retry)
        .with_breaker(sc.breaker)
}

/// One adaptive visapp session's inputs besides its [`Scenario`]. The
/// scenario supplies the rest: the tunability spec ([`viz_spec`]), the
/// monitor window and trigger gap, the link capacity that bounds the
/// starting bandwidth estimate, and the client options.
pub struct AdaptiveSession<'a> {
    /// The server (or whatever relays to it) the client talks to.
    pub server: ActorId,
    /// The performance database the scheduler prices against, shared.
    pub db: Arc<PerfDb>,
    pub prefs: PreferenceList,
    /// The sandbox's starting limits. The scheduler's first decision
    /// assumes them granted: CPU share `cpu_share` (default 1.0), bandwidth
    /// `net_recv_bps` capped by the link (default the link).
    pub limits: Limits,
    /// User think time between images (`None` moves on at once).
    pub think_time_us: Option<u64>,
    pub stats: StatsHandle,
    pub obs: &'a Obs,
    /// Where the runtime's and the client's live knobs register, if the
    /// run has a control plane.
    pub control: Option<&'a CommandRouter>,
}

impl AdaptiveSession<'_> {
    /// Configure the runtime for the starting resources and wrap the
    /// adaptive client in its sandbox. The sandbox's stats are the
    /// monitor's observation source.
    pub fn build(self, sc: &Scenario, store: &Arc<ImageStore>) -> Sandboxed<Client> {
        let scheduler = ResourceScheduler::new_shared(self.db, self.prefs, PROFILE_INPUT);
        let mut start = ResourceVector::default();
        start.set(client_cpu_key(), self.limits.cpu_share.unwrap_or(1.0));
        start.set(
            client_net_key(),
            self.limits.net_recv_bps.unwrap_or(sc.link_bps).min(sc.link_bps),
        );
        let mut runtime =
            AdaptiveRuntime::try_configure(viz_spec(sc), scheduler, sc.monitor_window_us, &start)
                .unwrap_or_else(|e| panic!("initial configuration failed: {e}"));
        runtime.set_obs(self.obs);
        runtime.monitor.min_trigger_gap_us = sc.trigger_gap_us;
        if let Some(control) = self.control {
            runtime.register_knobs(control.registry());
        }
        let initial = VizConfig::from_configuration(runtime.current());
        let opts = client_opts(sc, store, self.server, initial).with_think_time(self.think_time_us);
        let sandbox_stats = SandboxStats::new(sc.monitor_window_us);
        let adapt = AdaptSetup::new(runtime, sandbox_stats.clone());
        let client = Client::new(opts, self.stats, Some(adapt));
        if let Some(control) = self.control {
            client.register_control("client", control);
        }
        Sandboxed::new(client, LimitsHandle::new(self.limits), sandbox_stats)
    }
}

/// Install the scenario's scheduled control commands: each dispatches
/// through `router` at its simulation time. Rejections still publish
/// `config_reject` audit events, so a bad schedule is visible post-run.
fn install_commands(sim: &mut Sim, router: &CommandRouter, commands: &[CommandAt]) {
    for (at_us, who, cmd) in commands.iter().cloned() {
        let router = router.clone();
        sim.at(SimTime::from_us(at_us), move |_| {
            let _ = router.dispatch(at_us, &who, cmd);
        });
    }
}

/// The two-host testbed: client and server hosts, the link between them
/// with its mode, loss and fault plan, and the server (inside a
/// bandwidth-capped sandbox when [`Scenario::server_net_cap`] is set).
/// Returns the simulation, the client host and the server.
fn testbed(sc: &Scenario, store: &Arc<ImageStore>, obs: Option<&Obs>) -> (Sim, HostId, ActorId) {
    sc.validate().expect("invalid scenario");
    let mut sim = Sim::new();
    sim.set_drain_mode(sc.drain_mode);
    if let Some(obs) = obs {
        sim.attach_obs(obs);
    }
    let hc = sim.add_host("client", sc.client_speed, 1 << 30);
    let hs = sim.add_host("server", sc.server_speed, 1 << 30);
    sim.set_link(hc, hs, sc.link_bps, sc.link_latency_us);
    sim.set_link_mode(hc, hs, sc.link_mode);
    sim.set_link_mode(hs, hc, sc.link_mode);
    if let Some((p, seed)) = sc.link_loss {
        sim.set_link_loss(hc, hs, p, seed);
        sim.set_link_loss(hs, hc, p, seed.wrapping_add(1));
    }
    if let Some(plan) = &sc.fault_plan {
        plan.install(&mut sim);
    }
    let server = Server::new(store.clone());
    let server = match obs {
        Some(obs) => server.with_obs(obs),
        None => server,
    };
    let server_id = match sc.server_net_cap {
        Some(cap) => {
            let slim = LimitsHandle::new(Limits { net_send_bps: Some(cap), ..Limits::default() });
            sim.spawn(hs, Box::new(Sandboxed::new(server, slim, SandboxStats::default())))
        }
        None => sim.spawn(hs, Box::new(server)),
    };
    (sim, hc, server_id)
}

/// What runs on the client host of a [`run`].
enum Session {
    /// A fixed configuration.
    Static(VizConfig),
    /// The adaptive client, scheduling against `db` under `prefs`.
    Adaptive { db: Arc<PerfDb>, prefs: PreferenceList },
}

/// Assemble the testbed, run `session` on it and collect the outcome.
/// `schedule` varies the client's limits over time; `horizon` stops the
/// run even when events remain; `wire` is interposed on every message.
fn run(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    session: Session,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
    horizon: Option<SimTime>,
    wire: Option<simnet::WireHook>,
) -> RunOutcome {
    let obs = Obs::new();
    let stats = StatsHandle::new();
    stats.attach_obs(&obs);
    let (mut sim, hc, server) = testbed(sc, store, Some(&obs));
    sim.set_wire_hook(wire);
    let control = CommandRouter::new(ConfigRegistry::new()).with_obs(&obs);
    let client = match session {
        Session::Static(config) => {
            let opts = client_opts(sc, store, server, config)
                .with_verify_store(sc.verify.then(|| store.clone()));
            let client = Client::new(opts, stats.clone(), None);
            client.register_control("client", &control);
            let limits = LimitsHandle::new(initial_limits);
            Sandboxed::new(client, limits, SandboxStats::new(sc.monitor_window_us))
        }
        Session::Adaptive { db, prefs } => {
            assert!(!sc.verify, "verification requires a fixed configuration");
            AdaptiveSession {
                server,
                db,
                prefs,
                limits: initial_limits,
                think_time_us: None,
                stats: stats.clone(),
                obs: &obs,
                control: Some(&control),
            }
            .build(sc, store)
        }
    };
    let limits = client.limits();
    sim.spawn(hc, Box::new(client));
    install_loads(&mut sim, hc, &sc.competing_load);
    install_commands(&mut sim, &control, &sc.commands);
    apply_debug_env(&mut sim);
    if let Some(sched) = schedule {
        sched.install(&mut sim, &limits);
    }
    match horizon {
        Some(h) => sim.run_until(h),
        None => sim.run_until_idle(),
    }
    RunOutcome { stats: stats.take(), end: sim.now(), obs, control }
}

/// Run a fixed (non-adaptive) configuration. `schedule` varies the
/// client's virtual-execution-environment limits over time.
pub fn run_static(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    config: VizConfig,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
) -> RunOutcome {
    run(sc, store, Session::Static(config), initial_limits, schedule, None, None)
}

/// Like [`run_static`] but stops the simulation at `horizon` even when
/// events remain. Chaos runs need this: against a peer that crashed and
/// never restarts, the client's breaker probes re-arm forever, so the
/// event queue never drains on its own.
pub fn run_static_until(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    config: VizConfig,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
    horizon: SimTime,
) -> RunOutcome {
    run(sc, store, Session::Static(config), initial_limits, schedule, Some(horizon), None)
}

/// Run the adaptive application: performance database + preferences drive
/// run-time reconfiguration while `schedule` varies resources.
pub fn run_adaptive(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    db: PerfDb,
    prefs: PreferenceList,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
) -> RunOutcome {
    run_adaptive_shared(sc, store, Arc::new(db), prefs, initial_limits, schedule)
}

/// Like [`run_adaptive`] but over a shared database snapshot: no record
/// clone, the scheduler prices against exactly the `Arc` handed in. The
/// refine epoch loop (`crate::drift`) uses this so each epoch runs
/// against the engine's current (possibly hot-swapped) database.
pub fn run_adaptive_shared(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    db: Arc<PerfDb>,
    prefs: PreferenceList,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
) -> RunOutcome {
    run(sc, store, Session::Adaptive { db, prefs }, initial_limits, schedule, None, None)
}

/// Like [`run_adaptive`], but with a [`simnet::WireHook`] interposed on
/// every transmitted message. A hook that returns its input verbatim
/// reproduces [`run_adaptive`] exactly; the socket-mirror harness
/// (`crate::socket`) uses this to detour each message through a real
/// loopback connection and prove the decision sequence is unchanged.
pub fn run_adaptive_wired(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    db: PerfDb,
    prefs: PreferenceList,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
    wire: simnet::WireHook,
) -> RunOutcome {
    let session = Session::Adaptive { db: Arc::new(db), prefs };
    run(sc, store, session, initial_limits, schedule, None, Some(wire))
}

/// Like [`run_adaptive`] but stops the simulation at `horizon` even when
/// events remain. The simulation-test explorer needs this for crash
/// trials: against a peer that never restarts, breaker probes re-arm
/// forever and the queue never drains on its own.
pub fn run_adaptive_until(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    db: PerfDb,
    prefs: PreferenceList,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
    horizon: SimTime,
) -> RunOutcome {
    let session = Session::Adaptive { db: Arc::new(db), prefs };
    run(sc, store, session, initial_limits, schedule, Some(horizon), None)
}

/// Run several independent clients concurrently against one server, each
/// inside its own virtual execution environment — the competing-
/// applications setting that motivates admission control and policing
/// (§6.2). Returns one stats record per client, in input order.
pub fn run_competing(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    clients: &[(VizConfig, Limits)],
) -> Vec<RunStats> {
    let (mut sim, hc, server_id) = testbed(sc, store, None);
    let mut handles = Vec::new();
    for (config, limits) in clients {
        let stats_handle = StatsHandle::new();
        let opts = client_opts(sc, store, server_id, *config)
            .with_verify_store(sc.verify.then(|| store.clone()));
        let client = Client::new(opts, stats_handle.clone(), None);
        sim.spawn(
            hc,
            Box::new(Sandboxed::new(
                client,
                LimitsHandle::new(*limits),
                SandboxStats::new(sc.monitor_window_us),
            )),
        );
        handles.push(stats_handle);
    }
    apply_debug_env(&mut sim);
    sim.run_until_idle();
    handles.iter().map(|h| h.take()).collect()
}

/// Workload key used in the performance database.
pub const PROFILE_INPUT: &str = "plasma";

/// Profile one `(configuration, resource point)` — used by the framework's
/// profiling driver. Runs a short download inside the testbed and reports
/// the paper's three QoS metrics.
pub fn profile_point(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    config: &Configuration,
    resources: &ResourceVector,
) -> QosReport {
    let viz = VizConfig::from_configuration(config);
    let mut limits = Limits::unconstrained();
    if let Some(share) = resources.get(&client_cpu_key()) {
        limits.cpu_share = Some(share.clamp(0.01, 1.0));
    }
    if let Some(bps) = resources.get(&client_net_key()) {
        limits.net_recv_bps = Some(bps.max(1.0));
        limits.net_send_bps = Some(bps.max(1.0));
    }
    if let Some(mem) = resources.get(&client_mem_key()) {
        limits.mem_bytes = Some(mem.max(1.0) as u64);
    }
    let outcome = run_static(sc, store, viz, limits, None);
    QosReport::new(&[
        ("transmit_time", outcome.stats.avg_transmit_secs()),
        ("response_time", outcome.stats.avg_response_secs()),
        ("resolution", viz.level as f64),
    ])
}

/// Like [`build_db`] but with sensitivity-driven refinement: wherever
/// adjacent samples differ by more than `threshold` (relative), midpoints
/// are added, concentrating samples around cliffs and crossovers. This is
/// the "sensitivity analysis tool that can automatically drive the
/// collection of performance data in the most relevant regions" the
/// paper's prototype lacked (§7.1).
pub fn build_db_refined(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    cpu_shares: &[f64],
    bandwidths: &[f64],
    threshold: f64,
    threads: usize,
) -> PerfDb {
    let prof_sc = Scenario { n_images: 2.min(sc.n_images), verify: false, ..sc.clone() };
    let spec = viz_spec(sc);
    let grid = ResourceGrid::new()
        .with_axis(client_cpu_key(), cpu_shares)
        .with_axis(client_net_key(), bandwidths);
    let profiler = Profiler::new(spec.configurations(), grid, vec![PROFILE_INPUT.into()])
        .with_sensitivity(adapt_core::SensitivityOpts { threshold, max_rounds: 2 });
    let store = store.clone();
    let runner = move |config: &Configuration, resources: &ResourceVector, _input: &str| {
        profile_point(&prof_sc, &store, config, resources)
    };
    profiler.run_parallel(&runner, threads)
}

/// Build the performance database for a scenario by sweeping all
/// configurations over a CPU-share x bandwidth grid, in parallel.
pub fn build_db(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    cpu_shares: &[f64],
    bandwidths: &[f64],
    threads: usize,
) -> PerfDb {
    // Profiling uses a shorter workload than the experiments (2 images):
    // per-image metrics are what the database stores.
    let prof_sc = Scenario { n_images: 2.min(sc.n_images), verify: false, ..sc.clone() };
    let spec = viz_spec(sc);
    let grid = ResourceGrid::new()
        .with_axis(client_cpu_key(), cpu_shares)
        .with_axis(client_net_key(), bandwidths);
    let profiler = Profiler::new(spec.configurations(), grid, vec![PROFILE_INPUT.into()]);
    let store = store.clone();
    let runner = move |config: &Configuration, resources: &ResourceVector, _input: &str| {
        profile_point(&prof_sc, &store, config, resources)
    };
    profiler.run_parallel(&runner, threads)
}
