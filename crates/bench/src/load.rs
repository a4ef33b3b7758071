//! Scale-out load benchmark logic: the kernel timer-storm microbench
//! (batched vs heap drain), the multi-session load sweep, and the
//! `BENCH_load.json` payload builder shared by the `load_bench` binary
//! and the CI load-regression test.
//!
//! The JSON is split into a **deterministic** part (simulation-derived
//! counts and digests — byte-identical across same-seed runs, what
//! `scripts/bench_gate.sh` compares) and a **timing** part (wall-clock
//! measurements, excluded from regression comparison).

use std::sync::Arc;
use std::time::Instant;

use simnet::{Actor, Ctx, DrainMode, Sim};
use visapp::load::{model_db, run_load, LoadGenOpts, LoadReport};

/// A periodic timer actor for the kernel storm: every actor fires
/// `fanout` timers on the same `period_us` grid, so in a storm of `n`
/// actors each timestamp carries `n * fanout` simultaneous events — the
/// workload the batched drain path exists for.
struct StormActor {
    period_us: u64,
    fanout: u64,
    rounds_left: u64,
}

impl Actor for StormActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for tag in 0..self.fanout {
            ctx.set_timer(self.period_us, tag);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag == 0 {
            self.rounds_left -= 1;
        }
        if self.rounds_left > 0 {
            ctx.set_timer(self.period_us, tag);
        }
    }
}

/// Outcome of one kernel storm run.
#[derive(Debug, Clone, Copy)]
pub struct StormResult {
    pub events: u64,
    pub peak_queue_depth: usize,
    pub wall_secs: f64,
}

impl StormResult {
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Drive `actors` timestamp-aligned periodic actors for `rounds` periods
/// under `mode` and measure kernel event throughput. Pure kernel work:
/// no links, no CPU scheduling — the difference between modes is heap
/// sifting versus bucket appends.
pub fn kernel_storm(actors: usize, fanout: u64, rounds: u64, mode: DrainMode) -> StormResult {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let host = sim.add_host("storm", 1.0, 1 << 30);
    for _ in 0..actors {
        sim.spawn(host, Box::new(StormActor { period_us: 1_000, fanout, rounds_left: rounds }));
    }
    let start = Instant::now();
    sim.run_until_idle();
    StormResult {
        events: sim.events_handled(),
        peak_queue_depth: sim.peak_queue_depth(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Like [`kernel_storm`], but the actors are spread over `hosts`
/// unlinked hosts so [`DrainMode::Sharded`] can split the run: with no
/// links between hosts, auto-sharding bins the hosts across threads and
/// the whole storm runs as one barrier-free parallel epoch.
pub fn kernel_storm_multi(
    hosts: usize,
    actors: usize,
    fanout: u64,
    rounds: u64,
    mode: DrainMode,
) -> StormResult {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let host_ids: Vec<_> =
        (0..hosts).map(|i| sim.add_host(&format!("storm{i}"), 1.0, 1 << 30)).collect();
    for i in 0..actors {
        sim.spawn(
            host_ids[i % hosts],
            Box::new(StormActor { period_us: 1_000, fanout, rounds_left: rounds }),
        );
    }
    let start = Instant::now();
    sim.run_until_idle();
    StormResult {
        events: sim.events_handled(),
        peak_queue_depth: sim.peak_queue_depth(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// One point of a threads-vs-throughput curve.
#[derive(Debug, Clone, Copy)]
pub struct ThreadsPoint {
    pub threads: usize,
    pub events: u64,
    pub wall_secs: f64,
}

impl ThreadsPoint {
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// One row of the session sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub sessions: usize,
    pub requests: u64,
    pub images: u64,
    pub switches: u64,
    pub end_us: u64,
    pub events: u64,
    pub peak_queue_depth: usize,
    pub digest: u64,
    pub adapt_ticks: u64,
    pub wall_secs: f64,
}

impl SweepRow {
    fn from_report(sessions: usize, report: &LoadReport, wall_secs: f64) -> SweepRow {
        let ticks = report
            .obs
            .lookup("runtime.tick")
            .map(|id| report.obs.histogram_stats(id).count)
            .unwrap_or(0);
        SweepRow {
            sessions,
            requests: report.requests_total,
            images: report.images_total,
            switches: report.switches_total,
            end_us: report.end.as_us(),
            events: report.events_handled,
            peak_queue_depth: report.peak_queue_depth,
            digest: report.digest(),
            adapt_ticks: ticks,
            wall_secs,
        }
    }
}

/// The load-generator options used by the bench and the regression test
/// (same seed everywhere so the committed baseline stays comparable).
/// The server pool scales with the session count (~25 sessions per
/// server) so the sweep measures kernel and runtime scale-out rather
/// than server-CPU starvation. Arrivals are 5 ms apart on average and a
/// session lasts about 0.46 s, so only about 1% of sessions are live at
/// once: at most 99 of 10,000 in the 10k run.
pub fn bench_opts(sessions: usize) -> LoadGenOpts {
    use visapp::load::ArrivalProcess;
    LoadGenOpts::new(sessions)
        .with_servers((sessions / 25).max(2))
        .with_arrival(ArrivalProcess::Poisson { mean_gap_us: 5_000 })
}

/// Run the session sweep: one shared model database, one `run_load` per
/// session count.
pub fn sweep(session_counts: &[usize]) -> Vec<SweepRow> {
    sweep_with(session_counts, DrainMode::Batched)
}

/// [`sweep`] under an explicit drain mode (the sharded rows of
/// `BENCH_load.json` use `DrainMode::Sharded { threads: 4, shards: 0 }`).
pub fn sweep_with(session_counts: &[usize], mode: DrainMode) -> Vec<SweepRow> {
    let db = Arc::new(model_db(&bench_opts(1)));
    session_counts
        .iter()
        .map(|&n| {
            let start = Instant::now();
            let report = run_load(&bench_opts(n).with_drain_mode(mode), &db);
            SweepRow::from_report(n, &report, start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Threads-vs-throughput curve over the session sweep at one session
/// count: the same workload under `Sharded { threads, shards: 0 }` for
/// each requested thread count (threads = 1 is the sequential fallback).
pub fn sweep_threads_curve(sessions: usize, thread_counts: &[usize]) -> Vec<ThreadsPoint> {
    let db = Arc::new(model_db(&bench_opts(1)));
    thread_counts
        .iter()
        .map(|&threads| {
            let start = Instant::now();
            let report = run_load(
                &bench_opts(sessions).with_drain_mode(DrainMode::Sharded { threads, shards: 0 }),
                &db,
            );
            ThreadsPoint {
                threads,
                events: report.events_handled,
                wall_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Memory comparison: total bytes of performance data held by N sessions
/// sharing one `Arc<PerfDb>` versus N per-session clones.
#[derive(Debug, Clone, Copy)]
pub struct MemoryComparison {
    pub db_bytes: usize,
    pub sessions: usize,
    pub shared_bytes: usize,
    pub cloned_bytes: usize,
}

impl MemoryComparison {
    pub fn compute(sessions: usize) -> MemoryComparison {
        let db = model_db(&bench_opts(1));
        let db_bytes = db.approx_bytes();
        MemoryComparison {
            db_bytes,
            sessions,
            // Shared: one database plus one Arc pointer per session.
            shared_bytes: db_bytes + sessions * std::mem::size_of::<Arc<()>>(),
            cloned_bytes: db_bytes * sessions,
        }
    }

    pub fn ratio(&self) -> f64 {
        self.cloned_bytes as f64 / self.shared_bytes.max(1) as f64
    }
}

/// The deterministic half of `BENCH_load.json`: everything here is a
/// pure function of seeds and simulation semantics. Two same-seed runs
/// must produce byte-identical output (pinned by a regression test).
pub fn deterministic_payload(session_counts: &[usize]) -> String {
    let rows = sweep(session_counts);
    deterministic_payload_from(&rows)
}

fn deterministic_payload_from(rows: &[SweepRow]) -> String {
    let mem = MemoryComparison::compute(rows.last().map_or(1000, |r| r.sessions));
    let sweep_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"sessions\": {}, \"requests\": {}, \"images\": {}, \"switches\": {}, \
                 \"end_us\": {}, \"events\": {}, \"peak_queue_depth\": {}, \
                 \"adapt_ticks\": {}, \"digest\": \"{:016x}\"}}",
                r.sessions,
                r.requests,
                r.images,
                r.switches,
                r.end_us,
                r.events,
                r.peak_queue_depth,
                r.adapt_ticks,
                r.digest
            )
        })
        .collect();
    format!(
        "{{\n  \"sweep\": [\n    {}\n  ],\n  \"memory\": {{\"db_bytes\": {}, \"sessions\": {}, \
         \"shared_bytes\": {}, \"cloned_bytes\": {}, \"ratio\": {:.1}}}\n}}",
        sweep_json.join(",\n    "),
        mem.db_bytes,
        mem.sessions,
        mem.shared_bytes,
        mem.cloned_bytes,
        mem.ratio()
    )
}

/// Everything `bench_load_json` serializes. Collected by the
/// `load_bench` binary; see its docs for how each piece is measured.
pub struct LoadBenchData<'a> {
    /// Sequential (`Batched`) session sweep — the gated baseline rows.
    pub rows: &'a [SweepRow],
    /// The same session counts under `Sharded { threads: 4, shards: 0 }`;
    /// digests are compared row-for-row against `rows`.
    pub sharded_rows: &'a [SweepRow],
    /// Sharded-only scale points with no sequential twin (the 100k row).
    pub sharded_extra: &'a [SweepRow],
    /// Single-host aligned storm under each sequential drain.
    pub batched: &'a StormResult,
    pub heap: &'a StormResult,
    pub storm_actors: usize,
    /// Multi-host storm: sequential run and the sharded threads curve.
    pub storm_hosts: usize,
    pub multi_seq: &'a StormResult,
    pub storm_threads: &'a [ThreadsPoint],
    /// Sharded threads curve over the large session sweep.
    pub sweep_threads_sessions: usize,
    pub sweep_threads: &'a [ThreadsPoint],
}

/// Cores visible to this process. Emitted as a *string* in the bench
/// JSON so `bench_compare.py` reports it without gating it (the
/// committed baseline and a CI runner are different machines); the
/// sharded-storm speedup is only meaningful relative to this.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl LoadBenchData<'_> {
    /// Sequential-vs-4-threads speedup on the multi-host storm (the
    /// one-sided-gated headline number; 0 when no 4-thread point exists).
    pub fn storm_speedup(&self) -> f64 {
        self.storm_threads
            .iter()
            .find(|p| p.threads == 4)
            .map(|p| self.multi_seq.wall_secs / p.wall_secs.max(1e-12))
            .unwrap_or(0.0)
    }
}

fn threads_curve_json(points: &[ThreadsPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\": {}, \"wall_secs\": {:.4}, \"events_per_sec\": {:.0}}}",
                p.threads,
                p.wall_secs,
                p.events_per_sec()
            )
        })
        .collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Full `BENCH_load.json`: the deterministic sweep (sequential and
/// sharded, with row-for-row digest equality) plus wall-clock timing
/// (kernel storm throughput per drain mode, the sharded storm threads
/// curve, and per-sweep wall time). Only fields under `"deterministic"`
/// are gated by CI; `speedup` keys gate one-sided.
pub fn bench_load_json(d: &LoadBenchData<'_>) -> String {
    let deterministic = deterministic_payload_from(d.rows);
    let sharded_det: Vec<String> = d
        .sharded_rows
        .iter()
        .map(|r| {
            let twin = d.rows.iter().find(|s| s.sessions == r.sessions);
            let matches = twin.is_some_and(|s| s.digest == r.digest);
            format!(
                "{{\"sessions\": {}, \"events\": {}, \"digest\": \"{:016x}\", \
                 \"digest_matches_sequential\": {}}}",
                r.sessions, r.events, r.digest, matches
            )
        })
        .chain(d.sharded_extra.iter().map(|r| {
            format!(
                "{{\"sessions\": {}, \"requests\": {}, \"images\": {}, \"events\": {}, \
                 \"digest\": \"{:016x}\"}}",
                r.sessions, r.requests, r.images, r.events, r.digest
            )
        }))
        .collect();
    let wall: Vec<String> = d
        .rows
        .iter()
        .map(|r| format!("{{\"sessions\": {}, \"wall_secs\": {:.4}}}", r.sessions, r.wall_secs))
        .collect();
    let speedup = if d.heap.wall_secs > 0.0 {
        d.heap.wall_secs / d.batched.wall_secs.max(1e-12)
    } else {
        0.0
    };
    format!(
        "{{\n\"bench\": \"load\",\n\"deterministic\": {{\n  \"sequential\": {},\n  \
         \"sharded_sweep\": [\n    {}\n  ]\n}},\n\"timing\": {{\n  \"kernel_storm\": \
         {{\"actors\": {}, \"events\": {}, \"peak_queue_depth\": {}, \
         \"batched_events_per_sec\": {:.0}, \"heap_events_per_sec\": {:.0}, \
         \"batched_wall_secs\": {:.4}, \"heap_wall_secs\": {:.4}, \"speedup\": {:.2}}},\n  \
         \"sharded_storm\": {{\"hosts\": {}, \"actors\": {}, \"events\": {}, \
         \"host_cores\": \"{}\", \"sequential_wall_secs\": {:.4}, \"speedup\": {:.2}, \
         \"threads_vs_throughput\": {}}},\n  \
         \"sweep_threads\": {{\"sessions\": {}, \"threads_vs_throughput\": {}}},\n  \
         \"sweep_wall\": [\n    {}\n  ]\n}}\n}}\n",
        deterministic,
        sharded_det.join(",\n    "),
        d.storm_actors,
        d.batched.events,
        d.batched.peak_queue_depth,
        d.batched.events_per_sec(),
        d.heap.events_per_sec(),
        d.batched.wall_secs,
        d.heap.wall_secs,
        speedup,
        d.storm_hosts,
        d.storm_actors,
        d.multi_seq.events,
        host_cores(),
        d.multi_seq.wall_secs,
        d.storm_speedup(),
        threads_curve_json(d.storm_threads),
        d.sweep_threads_sessions,
        threads_curve_json(d.sweep_threads),
        wall.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_modes_process_the_same_events() {
        let b = kernel_storm(50, 4, 5, DrainMode::Batched);
        let h = kernel_storm(50, 4, 5, DrainMode::Heap);
        assert_eq!(b.events, h.events);
        assert_eq!(b.peak_queue_depth, h.peak_queue_depth);
        // One on_start event per actor plus fanout timers per round.
        assert_eq!(b.events, 50 + 50 * 4 * 5);
    }

    #[test]
    fn same_seed_sweeps_emit_identical_deterministic_payloads() {
        // The load-regression check: re-running the whole sweep (fresh
        // stores, fresh databases, fresh sims) must reproduce the JSON
        // byte for byte. Wall-clock fields live outside this payload.
        let a = deterministic_payload(&[1, 4]);
        let b = deterministic_payload(&[1, 4]);
        assert_eq!(a, b);
        assert!(a.contains("\"sessions\": 4"));
        assert!(a.contains("\"digest\""));
    }

    #[test]
    fn shared_db_memory_is_sublinear() {
        let mem = MemoryComparison::compute(1000);
        assert!(mem.ratio() > 100.0, "sharing must beat cloning by orders of magnitude");
        assert!(mem.shared_bytes < mem.db_bytes + 1000 * 64);
    }
}
