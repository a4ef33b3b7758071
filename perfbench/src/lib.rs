//! The repository benchmark: three seeded workloads that drive the
//! adaptation framework end to end through its public functions, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `README.md` in this directory for the workloads, the
//! metrics and why each was chosen.

pub mod defs;
pub mod fig7;
pub mod load;
pub mod report;
pub mod spec;
pub mod speed;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use obs::Obs;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's three adaptation experiments (Figure 7).
    Fig7,
    /// 10,000 short sessions over lightly loaded servers.
    Sweep10k,
    /// 1,000 sessions queueing on two servers.
    Queue1k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig7, Workload::Sweep10k, Workload::Queue1k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::Sweep10k => "sweep-10k",
            Workload::Queue1k => "queue-1k",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload size. `Tiny` keeps each workload's shape at a fraction of the
/// cost; only the self-test uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Measure at least this long, in whole iterations.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Host-independent outcome of one iteration. Same seed, same value: the
/// benchmark checks this across the iterations of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Per session: arrival to last image, seconds.
    pub session_secs: Vec<f64>,
    /// Per image (load workloads: per session, the mean image time).
    pub transmit_secs: Vec<f64>,
    pub qos_met: u64,
    pub qos_checked: u64,
    pub rounds: u64,
}

impl SimOutcome {
    /// Add another simulation's outcome to this one.
    pub fn merge(&mut self, other: &SimOutcome) {
        self.session_secs.extend_from_slice(&other.session_secs);
        self.transmit_secs.extend_from_slice(&other.transmit_secs);
        self.qos_met += other.qos_met;
        self.qos_checked += other.qos_checked;
        self.rounds += other.rounds;
    }
}

/// Per-layer values of one iteration, keyed by metric name. A metric the
/// workload cannot observe from outside is absent (printed as -1).
pub type Layers = BTreeMap<&'static str, f64>;

/// One timed repetition of a workload's measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Whether the benchmark's spans were recorded during it.
    pub traced: bool,
    /// Host time of the measured phase.
    pub secs: f64,
    /// Median time of the host-speed reference during it.
    pub reference_s: f64,
}

impl Rep {
    /// `secs` adjusted for the host's speed (see [`speed`]).
    pub fn adjusted_secs(&self) -> f64 {
        speed::adjust(self.secs, self.reference_s)
    }
}

/// One set-up followed by one or more repetitions of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// One sample per set-up performed.
    pub setup_s: Vec<f64>,
    /// Median time of the host-speed reference during the set-ups.
    pub setup_reference_s: f64,
    pub reps: Vec<Rep>,
    /// The simulated outcome of every repetition; each must equal the
    /// first iteration's.
    pub sim: SimOutcome,
    /// Per-layer values of the first repetition.
    pub layers: Layers,
    /// Delivery units (sessions or images) plus correctness checks.
    pub attempted: u64,
    /// One entry per undelivered unit or failed check.
    pub failures: Vec<String>,
}

impl Iteration {
    /// Count one correctness check, recording `why` if it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Check a repetition's simulated outcome against the first one seen.
    pub fn check_repeat(&mut self, first: &SimOutcome, again: &SimOutcome) {
        self.check(first == again, || "same-seed repeat changed the simulated metrics".into());
    }
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct RunResult {
    pub args: RunArgs,
    pub iterations: Vec<Iteration>,
    pub peak_rss_mb: Option<f64>,
    pub spans: BTreeMap<&'static str, trace::SpanTotals>,
}

/// Threads the `fig7` profiler runs on. Profiling threads race on the
/// same codec cache misses, so with more than one the amount of work
/// itself varies from run to run; one thread keeps set-up time steady.
pub const PROFILE_THREADS: usize = 1;

/// Never start an iteration expected to end after this much run time.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// Run a workload for at least `args.seconds`, in whole iterations, all
/// with the same seed. A load run makes at least two iterations, so that
/// the second checks the first; a `fig7` iteration checks itself.
/// Repetitions of the measured phase alternate traced and untraced on a
/// traced run, so that the run states its own tracing overhead.
pub fn run(args: RunArgs) -> RunResult {
    let tracer = trace::Tracer::new(args.trace);
    let min_iterations = if args.workload == Workload::Fig7 { 1 } else { 2 };
    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    loop {
        let mut it = match args.workload {
            Workload::Fig7 => fig7::iteration(args.size, args.seed, &tracer),
            w => load::iteration(w, args.size, args.seed, &tracer),
        };
        if let Some(first) = iterations.first() {
            it.check_repeat(&first.sim, &it.sim.clone());
        }
        iterations.push(it);
        let elapsed = start.elapsed();
        let per_iteration = elapsed / iterations.len() as u32;
        let done = iterations.len() >= min_iterations && elapsed.as_secs_f64() >= args.seconds;
        if done || elapsed + per_iteration > RUN_LIMIT {
            break;
        }
    }
    RunResult { args, iterations, peak_rss_mb: report::peak_rss_mb(), spans: tracer.totals() }
}

/// Add one run's obs counters and span histograms into `layers`.
pub(crate) fn add_obs_layers(obs: &Obs, layers: &mut Layers) {
    let mut add = |name: &'static str, v: f64| *layers.entry(name).or_default() += v;
    if let Some(id) = obs.lookup("monitor.ticks") {
        add("monitor.ticks", obs.counter_value(id) as f64);
    }
    if let Some(id) = obs.lookup("server.requests") {
        add("server.requests", obs.counter_value(id) as f64);
    }
    let hists = [
        ("runtime.tick", None, "raw.tick_ms"),
        ("visapp.request", None, "server.request_ms"),
        ("scheduler.choose", Some("scheduler.choose_calls"), "scheduler.choose_ms"),
        ("perfdb.predict", Some("perfdb.predict_calls"), "perfdb.predict_ms"),
    ];
    for (hist, calls, ms) in hists {
        if let Some(id) = obs.lookup(hist) {
            let h = obs.histogram_stats(id);
            if let Some(calls) = calls {
                add(calls, h.count as f64);
            }
            add(ms, h.sum / 1e3);
        }
    }
    add("obs.events_published", obs.events_published() as f64);
    add("obs.events_dropped", obs.events_dropped() as f64);
}

/// Derive the ratio and self-time metrics once an iteration's raw sums are
/// in: `rounds` and `switches` over the whole measured phase, whose wall
/// time is `measured_s`.
pub(crate) fn finish_layers(layers: &mut Layers, rounds: u64, switches: u64, measured_s: f64) {
    let rounds = rounds as f64;
    let get = |l: &Layers, k: &str| l.get(k).copied();
    let tick_ms = layers.remove("raw.tick_ms").unwrap_or(0.0);
    let request_ms = get(layers, "server.request_ms").unwrap_or(0.0);
    let choose_ms = get(layers, "scheduler.choose_ms").unwrap_or(0.0);
    layers.insert("client.rounds", rounds);
    layers.insert("monitor.tick_ms", tick_ms - choose_ms);
    layers.insert("unattributed_ms", measured_s * 1e3 - tick_ms - request_ms);
    if let Some(ticks) = get(layers, "monitor.ticks") {
        layers.insert("monitor.ticks_per_round", ticks / rounds);
    }
    if let Some(events) = get(layers, "simnet.events") {
        layers.insert("simnet.events_per_round", events / rounds);
    }
    if let (Some(p), Some(d)) =
        (get(layers, "obs.events_published"), get(layers, "obs.events_dropped"))
    {
        layers.insert("obs.drop_ratio", d / p.max(1.0));
    }
    if let Some(calls) = get(layers, "scheduler.choose_calls") {
        layers.insert("scheduler.switch_ratio", switches as f64 / calls.max(1.0));
    }
    if let (Some(misses), Some(requests)) =
        (get(layers, "store.misses"), get(layers, "server.requests"))
    {
        layers.insert("store.hit_ratio", 1.0 - misses / requests.max(1.0));
    }
}
