//! Sharded parallel drain for [`DrainMode::Sharded`].
//!
//! The event queue of a [`Sim`] is partitioned into per-host-group shards,
//! each drained as an independent batched sub-simulation on a scoped
//! thread pool. Conservative lookahead keeps the runs equivalent to the
//! sequential schedule:
//!
//! - **Shard assignment.** Hosts are grouped by link connectivity
//!   (union-find). With `shards == 0` every explicitly linked component is
//!   kept whole and components are balanced across `threads` bins; with an
//!   explicit shard count only *zero-latency* links force co-sharding, so
//!   callers (tests) can deliberately cut latency-bearing links. Hosts
//!   marked with [`Sim::mark_observer`] form one extra shard of their own.
//! - **Lookahead.** `L = min latency over explicit cross-shard links` is
//!   the safe horizon increment: a message sent at `t >= m` arrives no
//!   earlier than `t + L`, so every shard may run all events strictly
//!   before `H = m + L` (where `m` is the global minimum next-event time)
//!   without seeing a cross-shard message from this epoch. When no link
//!   crosses a shard boundary there is a single unbounded epoch and any
//!   cross-shard send is an error.
//! - **Barrier merge.** At each epoch barrier the collected cross-shard
//!   deliveries are sorted by `(push time, source shard, per-shard send
//!   sequence)` and spliced into the destination shard's bucket at the
//!   position the push time dictates. When no two events of a bucket share
//!   a push time this reproduces the sequential `(time, seq)` order
//!   bit-for-bit; exact collisions are counted in [`Sim::ambiguous_ties`].
//! - **Observers.** Observer shards run a second, sequential phase after
//!   the worker shards each epoch, so monitor actors that read shared
//!   memory published by workers observe a completed prefix.
//!
//! [`DrainMode::Sharded`]: crate::kernel::DrainMode::Sharded
//! [`Sim::mark_observer`]: crate::kernel::Sim::mark_observer
//! [`Sim::ambiguous_ties`]: crate::kernel::Sim::ambiguous_ties

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::kernel::{OutEntry, Sim};
use crate::time::SimTime;

/// Environment variable consulted when `DrainMode::Sharded { threads: 0 }`
/// is used: the number of worker threads for sharded drains.
pub const SIMNET_THREADS_ENV: &str = "SIMNET_THREADS";

/// A resolved sharding decision for one run.
pub(crate) struct ShardPlan {
    /// Host index -> shard index, shared with every sub-simulation.
    pub(crate) shard_of_host: Arc<Vec<usize>>,
    pub(crate) n_shards: usize,
    /// Per-shard flag: `true` for the observer shard (runs in phase 2).
    pub(crate) observer: Vec<bool>,
    /// Conservative lookahead: minimum latency over explicit cross-shard
    /// links, `None` when nothing crosses a boundary (single epoch).
    pub(crate) l_cross: Option<u64>,
    /// Resolved worker-thread count (>= 2 when a plan exists).
    pub(crate) threads: usize,
}

/// True when this `(threads, shards)` request degenerates to the plain
/// sequential batched drain (single shard, or a single thread).
pub(crate) fn resolves_sequential(sim: &Sim, threads: usize, shards: usize) -> bool {
    compute_plan(sim, threads, shards).is_none()
}

fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Ok(v) = std::env::var(SIMNET_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Decide how to shard `sim` for `DrainMode::Sharded { threads, shards }`.
/// Returns `None` when the run should fall back to the sequential drain.
pub(crate) fn compute_plan(sim: &Sim, threads: usize, shards: usize) -> Option<ShardPlan> {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return None;
    }
    let n_hosts = sim.num_hosts();
    if n_hosts == 0 {
        return None;
    }
    let observers = sim.observer_set();
    let edges = sim.link_edges();
    let mut uf = UnionFind::new(n_hosts);
    for &(a, b, latency) in &edges {
        if observers.contains(&a) || observers.contains(&b) {
            continue;
        }
        // Auto mode keeps every linked component whole; an explicit shard
        // count only refuses to cut zero-latency links (no lookahead).
        if shards == 0 || latency == 0 {
            uf.union(a, b);
        }
    }
    // Components of non-observer hosts, largest first (ties by lowest
    // member) for balanced round-robin placement.
    let mut members: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for h in 0..n_hosts {
        if !observers.contains(&h) {
            members.entry(uf.find(h)).or_default().push(h);
        }
    }
    let mut components: Vec<Vec<usize>> = members.into_values().collect();
    components.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
    let n_bins = if shards == 0 { threads } else { shards }.min(components.len());
    if n_bins == 0 {
        return None;
    }
    let mut shard_of_host = vec![usize::MAX; n_hosts];
    for (i, comp) in components.iter().enumerate() {
        for &h in comp {
            shard_of_host[h] = i % n_bins;
        }
    }
    let mut n_shards = n_bins;
    let mut observer = vec![false; n_bins];
    if !observers.is_empty() {
        for &h in observers {
            shard_of_host[h] = n_bins;
        }
        n_shards += 1;
        observer.push(true);
    }
    if n_shards <= 1 || n_bins <= 1 {
        return None;
    }
    let l_cross = edges
        .iter()
        .filter(|&&(a, b, _)| shard_of_host[a] != shard_of_host[b])
        .map(|&(_, _, latency)| latency)
        .min();
    if l_cross == Some(0) {
        panic!(
            "sharded run: a zero-latency link crosses a shard boundary, so no \
             lookahead is possible — co-shard the hosts or give the link latency"
        );
    }
    Some(ShardPlan { shard_of_host: Arc::new(shard_of_host), n_shards, observer, l_cross, threads })
}

fn run_one(sim: &mut Sim, horizon: Option<SimTime>) {
    match horizon {
        None => sim.drain_batched_until_idle(),
        Some(h) => sim.drain_batched_before(h),
    }
}

/// Run every shard of one phase up to `horizon` (or to idle). Worker
/// phases use up to `threads` scoped threads with an atomic claim index;
/// the observer phase is always sequential.
fn run_phase(subs: &mut [Sim], plan: &ShardPlan, observer_phase: bool, horizon: Option<SimTime>) {
    let mut targets: Vec<&mut Sim> = subs
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| plan.observer[*i] == observer_phase)
        .map(|(_, s)| s)
        .collect();
    if targets.is_empty() {
        return;
    }
    if observer_phase || plan.threads <= 1 || targets.len() == 1 {
        for s in targets {
            run_one(s, horizon);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Sim>> = targets.drain(..).map(Mutex::new).collect();
    let n_workers = plan.threads.min(slots.len());
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let mut s = slots[i].lock().unwrap();
                run_one(&mut s, horizon);
            });
        }
    });
}

/// The `DrainMode::Sharded` engine: partition, run barrier epochs until
/// every shard is idle, then fold the shards back into `sim`.
pub(crate) fn run_sharded_until_idle(sim: &mut Sim, threads: usize, shards: usize) {
    let Some(plan) = compute_plan(sim, threads, shards) else {
        sim.drain_batched_until_idle();
        return;
    };
    let mut subs = sim.partition_into(&plan);
    let mut epochs: u64 = 0;
    let mut cross_msgs: u64 = 0;
    while let Some(m) = subs.iter().filter_map(|s| s.next_event_time()).min() {
        let horizon = plan.l_cross.map(|l| m + l);
        run_phase(&mut subs, &plan, false, horizon);
        run_phase(&mut subs, &plan, true, horizon);
        epochs += 1;
        let mut out: Vec<(usize, OutEntry)> = Vec::new();
        for (si, sub) in subs.iter_mut().enumerate() {
            out.extend(sub.take_outbox().into_iter().map(|e| (si, e)));
        }
        if out.is_empty() {
            continue;
        }
        debug_assert!(
            horizon.is_some(),
            "cross-shard messages without a cross-shard link (transmit should have panicked)"
        );
        cross_msgs += out.len() as u64;
        // Deterministic merge order: push time, then source shard, then
        // the per-shard push sequence.
        out.sort_by_key(|&(si, ref e)| (e.cause.enqueued, si, e.seq));
        for (_, e) in out {
            if let Some(h) = horizon {
                debug_assert!(
                    e.deliver_t >= h,
                    "lookahead violation: cross-shard delivery at {} before horizon {}",
                    e.deliver_t,
                    h
                );
            }
            subs[e.dst_shard].inject_barrier(e.deliver_t, e.cause, e.ev);
        }
    }
    let ties: u64 = subs.iter().map(|s| s.ambiguous_ties()).sum();
    sim.absorb_shards(subs, &plan);
    if let Some(obs) = sim.trace.obs() {
        let obs = obs.clone();
        let e = obs.counter("simnet.shard.epochs");
        let x = obs.counter("simnet.shard.cross_msgs");
        let t = obs.counter("simnet.shard.ties");
        obs.inc(e, epochs);
        obs.inc(x, cross_msgs);
        obs.inc(t, ties);
    }
}
