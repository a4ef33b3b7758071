//! The monitoring agent: application-specific estimation of available
//! resources, with range-triggered reporting.
//!
//! §6.1: the agent "runs periodically (every 10 ms) and processes raw data
//! within a history window", estimating "the shortfall between the level
//! of resources requested by the application from the system and what it
//! actually obtained", and communicates with the scheduler "only when
//! resource availability falls out of a range". The raw observations come
//! from the same machinery as the sandbox's progress estimator
//! (`sandbox::SandboxStats`) or directly from `simnet` accounting.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use simnet::SimTime;

use crate::env::{ResourceKey, ResourceVector};

/// The monitoring agent's default period: 10 ms, as in the paper.
pub const MONITOR_PERIOD_US: u64 = 10_000;

/// A sliding-window mean over timestamped samples.
#[derive(Debug, Clone)]
pub struct WindowStat {
    window_us: u64,
    samples: VecDeque<(SimTime, f64)>,
}

impl WindowStat {
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0);
        WindowStat { window_us, samples: VecDeque::new() }
    }

    fn cutoff(&self, now: SimTime) -> SimTime {
        SimTime(now.0.saturating_sub(self.window_us))
    }

    pub fn push(&mut self, t: SimTime, v: f64) {
        self.samples.push_back((t, v));
        self.prune(t);
    }

    /// Evict samples older than the window as of `now`. `push` prunes by
    /// the pushed timestamp, but when observations *stop* arriving the
    /// deque would otherwise retain ancient samples forever — readers that
    /// need freshness use [`WindowStat::mean_at`]/[`WindowStat::latest_at`]
    /// or call this with the current time.
    pub fn prune(&mut self, now: SimTime) {
        let cutoff = self.cutoff(now);
        while let Some(&(ts, _)) = self.samples.front() {
            if ts < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Mean over every retained sample, regardless of age. This is the
    /// "last known" view: after a source goes quiet it keeps reporting the
    /// final window of data.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Mean over samples no older than the window as of `now` — `None`
    /// when every sample has expired (a stale source).
    pub fn mean_at(&self, now: SimTime) -> Option<f64> {
        let cutoff = self.cutoff(now);
        let (mut sum, mut n) = (0.0, 0usize);
        for &(ts, v) in self.samples.iter().rev() {
            if ts < cutoff {
                break;
            }
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    pub fn latest(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }

    /// Latest sample still inside the window as of `now`.
    pub fn latest_at(&self, now: SimTime) -> Option<f64> {
        let cutoff = self.cutoff(now);
        self.samples.back().filter(|&&(ts, _)| ts >= cutoff).map(|&(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Does the window hold exactly `n` samples, at `t - (n-1)·period`,
    /// …, `t - period`, `t`, each bit-for-bit equal to `v`?
    fn is_grid_constant(&self, t: SimTime, period_us: u64, n: u64, v: f64) -> bool {
        let on_grid = |i: u64, &(ts, x): &(SimTime, f64)| {
            x.to_bits() == v.to_bits() && t.0.checked_sub(i * period_us) == Some(ts.0)
        };
        // The oldest sample first: after a change it still holds the old
        // value, so a window that is not constant is usually rejected in
        // O(1), and only a likely fixed point pays the full scan.
        self.samples.len() as u64 == n
            && self.samples.front().is_some_and(|s| on_grid(n - 1, s))
            && self.samples.iter().rev().zip(0..).all(|(s, i)| on_grid(i, s))
    }
}

/// The resource region within which the currently active configuration
/// remains valid (chosen by the scheduler, checked by the monitor).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(into = "Vec<(ResourceKey, f64, f64)>", from = "Vec<(ResourceKey, f64, f64)>")]
pub struct ValidityRegion {
    /// Per-resource inclusive `(min, max)` bounds.
    pub ranges: BTreeMap<ResourceKey, (f64, f64)>,
}

impl From<ValidityRegion> for Vec<(ResourceKey, f64, f64)> {
    fn from(v: ValidityRegion) -> Self {
        v.ranges.into_iter().map(|(k, (lo, hi))| (k, lo, hi)).collect()
    }
}

impl From<Vec<(ResourceKey, f64, f64)>> for ValidityRegion {
    fn from(triples: Vec<(ResourceKey, f64, f64)>) -> Self {
        ValidityRegion { ranges: triples.into_iter().map(|(k, lo, hi)| (k, (lo, hi))).collect() }
    }
}

impl ValidityRegion {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_range(mut self, key: ResourceKey, min: f64, max: f64) -> Self {
        assert!(min <= max, "invalid range [{min}, {max}] for {key}");
        self.ranges.insert(key, (min, max));
        self
    }

    /// Unbounded region (never triggers re-scheduling).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Resources in `estimate` violating their range by more than
    /// `hysteresis` (relative to the violated bound). An infinite bound
    /// can never be violated.
    pub fn violations(&self, estimate: &ResourceVector, hysteresis: f64) -> Vec<Violation> {
        let mut out = Vec::new();
        for (key, &(min, max)) in &self.ranges {
            let Some(v) = estimate.get(key) else { continue };
            if !in_range(v, min, max, hysteresis) {
                out.push(Violation { key: key.clone(), value: v, range: (min, max) });
            }
        }
        out
    }

    pub fn contains(&self, estimate: &ResourceVector) -> bool {
        self.violations(estimate, 0.0).is_empty()
    }
}

/// One out-of-range resource observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub key: ResourceKey,
    pub value: f64,
    pub range: (f64, f64),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {:.4} outside [{:.4}, {:.4}]",
            self.key, self.value, self.range.0, self.range.1
        )
    }
}

/// Why the monitoring agent woke the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    pub at: SimTime,
    pub violations: Vec<Violation>,
    /// Fresh estimate (window means over unexpired samples only). Stale
    /// resources are absent here; their last-known values are available
    /// through [`MonitoringAgent::estimate`].
    pub estimate: ResourceVector,
    /// Watched resources that *were* reporting but have produced no
    /// observation within the window — a dead link or crashed reporter.
    pub stale: Vec<ResourceKey>,
}

impl Trigger {
    /// True when the trigger fired (at least in part) because previously
    /// observed resources expired.
    pub fn is_stale(&self) -> bool {
        !self.stale.is_empty()
    }
}

/// The monitoring agent.
#[derive(Debug)]
pub struct MonitoringAgent {
    watched: Vec<ResourceKey>,
    window_us: u64,
    stats: BTreeMap<ResourceKey, WindowStat>,
    validity: ValidityRegion,
    /// Relative hysteresis margin before a violation counts (damps
    /// adaptation thrash — §7.5's remark about small variations).
    pub hysteresis: f64,
    /// Minimum time between triggers.
    pub min_trigger_gap_us: u64,
    last_trigger: Option<SimTime>,
}

impl MonitoringAgent {
    /// Watch `watched` with a sliding window of `window_us`.
    pub fn new(watched: Vec<ResourceKey>, window_us: u64) -> Self {
        MonitoringAgent {
            watched,
            window_us,
            stats: BTreeMap::new(),
            validity: ValidityRegion::unbounded(),
            hysteresis: 0.05,
            min_trigger_gap_us: 500_000,
            last_trigger: None,
        }
    }

    /// Re-target the watched resources (the agent "is customized to the
    /// currently active configuration").
    pub fn set_watched(&mut self, watched: Vec<ResourceKey>) {
        self.watched = watched;
        self.stats.retain(|k, _| self.watched.contains(k));
    }

    pub fn watched(&self) -> &[ResourceKey] {
        &self.watched
    }

    /// Install the validity region for the newly chosen configuration.
    pub fn set_validity(&mut self, region: ValidityRegion) {
        self.validity = region;
    }

    pub fn validity(&self) -> &ValidityRegion {
        &self.validity
    }

    /// Feed one observation. Ignored unless `key` is watched.
    pub fn observe(&mut self, t: SimTime, key: &ResourceKey, value: f64) {
        if !self.watched.contains(key) {
            return;
        }
        // Look up before inserting: the key is cloned only for a new window.
        match self.stats.get_mut(key) {
            Some(stat) => stat.push(t, value),
            None => {
                let mut stat = WindowStat::new(self.window_us);
                stat.push(t, value);
                self.stats.insert(key.clone(), stat);
            }
        }
    }

    /// Last-known availability estimate (window means over all retained
    /// samples, however old). Use [`MonitoringAgent::estimate_at`] when
    /// freshness matters.
    pub fn estimate(&self) -> ResourceVector {
        let mut v = ResourceVector::default();
        for (k, s) in &self.stats {
            if let Some(m) = s.mean() {
                v.set(k.clone(), m.max(0.0));
            }
        }
        v
    }

    /// Fresh availability estimate as of `t`: window means over unexpired
    /// samples only. Resources whose every sample is older than the window
    /// are omitted (see [`MonitoringAgent::stale_keys`]).
    pub fn estimate_at(&self, t: SimTime) -> ResourceVector {
        let mut v = ResourceVector::default();
        for (k, s) in &self.stats {
            if let Some(m) = s.mean_at(t) {
                v.set(k.clone(), m.max(0.0));
            }
        }
        v
    }

    /// Watched resources that have been observed at least once but have no
    /// sample within the window as of `t` — their estimates have expired.
    pub fn stale_keys(&self, t: SimTime) -> Vec<ResourceKey> {
        self.stats
            .iter()
            .filter(|(_, s)| !s.is_empty() && s.mean_at(t).is_none())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Periodic check: returns a trigger when the fresh estimate violates
    /// the validity region, or when a previously reporting resource has
    /// gone stale (rate-limited by `min_trigger_gap_us`). Resources that
    /// were never observed do not trigger.
    pub fn check(&mut self, t: SimTime) -> Option<Trigger> {
        if let Some(last) = self.last_trigger {
            if t.since(last) < self.min_trigger_gap_us {
                return None;
            }
        }
        // The common case allocates nothing: the estimate, the stale list
        // and the trigger are built only when one fires.
        if self.is_quiet_at(t) {
            return None;
        }
        let estimate = self.estimate_at(t);
        let stale = self.stale_keys(t);
        if estimate.is_empty() && stale.is_empty() {
            return None;
        }
        let violations = self.validity.violations(&estimate, self.hysteresis);
        if violations.is_empty() && stale.is_empty() {
            return None;
        }
        self.last_trigger = Some(t);
        Some(Trigger { at: t, violations, estimate, stale })
    }

    /// Would [`check`](MonitoringAgent::check) at `t` find nothing to
    /// report, ignoring the trigger gap? Each window mean is computed in
    /// place, exactly as [`estimate_at`](MonitoringAgent::estimate_at)
    /// computes it, and tested against its validity range: no stale
    /// resource and no violation.
    fn is_quiet_at(&self, t: SimTime) -> bool {
        self.stats.iter().all(|(key, stat)| match stat.mean_at(t) {
            None => stat.is_empty(),
            Some(m) => {
                let v = m.max(0.0);
                // A non-finite mean takes the slow path, which rejects it.
                v.is_finite()
                    && self
                        .validity
                        .ranges
                        .get(key)
                        .is_none_or(|&(min, max)| in_range(v, min, max, self.hysteresis))
            }
        })
    }

    /// May the ticks after an evaluated one at `t` be parked? True when
    /// every later tick, fed the same `readings`, would leave the agent in
    /// the same state and report nothing:
    ///
    /// - each watched resource read as `Some(v)` holds a full window of
    ///   `window / period + 1` samples on the tick grid ending at `t`, all
    ///   bit-for-bit `v` — a time-shift fixed point, so every later check
    ///   computes bit-identical means;
    /// - each watched resource read as `None` was never observed (one that
    ///   was would go stale);
    /// - the current estimate has no violation and no stale resource,
    ///   judged on the estimate itself: a tick held back only by
    ///   `min_trigger_gap_us` would fire once the gap passes.
    pub fn is_fixed_point(
        &self,
        t: SimTime,
        period_us: u64,
        readings: &[(&ResourceKey, Option<f64>)],
    ) -> bool {
        let full = self.window_us / period_us + 1;
        self.watched.iter().all(|key| {
            let reading = readings.iter().find(|(k, _)| *k == key).and_then(|&(_, v)| v);
            match (reading, self.stats.get(key)) {
                (Some(v), Some(stat)) => stat.is_grid_constant(t, period_us, full, v),
                (Some(_), None) => false,
                (None, stat) => stat.is_none_or(WindowStat::is_empty),
            }
        }) && self.is_quiet_at(t)
    }

    /// Replay `n` parked ticks at `first`, `first + period`, …: each would
    /// have observed the value its resource's window already holds
    /// throughout (see [`is_fixed_point`](MonitoringAgent::is_fixed_point)).
    /// Only the last `window / period + 1` observations survive pruning,
    /// so only those are pushed: O(window) per call, not O(n).
    pub fn replay_parked(&mut self, first: SimTime, period_us: u64, n: u64) {
        let kept = n.min(self.window_us / period_us + 1);
        for stat in self.stats.values_mut() {
            let Some(v) = stat.latest() else { continue };
            for i in n - kept..n {
                stat.push(first + i * period_us, v);
            }
        }
    }
}

/// Is `v` inside `[min, max]` widened by `hysteresis` (relative to the
/// bound)? An infinite bound is never violated.
fn in_range(v: f64, min: f64, max: f64, hysteresis: f64) -> bool {
    let lo_ok = !min.is_finite() || v >= min - hysteresis * min.abs().max(1e-12);
    let hi_ok = !max.is_finite() || v <= max + hysteresis * max.abs().max(1e-12);
    lo_ok && hi_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn window_stat_means_and_eviction() {
        let mut w = WindowStat::new(1000);
        w.push(t(0), 1.0);
        w.push(t(500), 3.0);
        assert_eq!(w.mean(), Some(2.0));
        w.push(t(2000), 5.0);
        // The t=0 and t=500 samples are older than the 1000us window.
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), Some(5.0));
        assert_eq!(w.latest(), Some(5.0));
    }

    #[test]
    fn validity_region_violations() {
        let r = ValidityRegion::new().with_range(cpu(), 0.5, 1.0);
        let ok = ResourceVector::new(&[(cpu(), 0.7)]);
        let low = ResourceVector::new(&[(cpu(), 0.3)]);
        assert!(r.contains(&ok));
        assert!(!r.contains(&low));
        let v = r.violations(&low, 0.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].range, (0.5, 1.0));
        // Hysteresis widens the acceptable band.
        let near = ResourceVector::new(&[(cpu(), 0.48)]);
        assert!(r.violations(&near, 0.05).is_empty());
    }

    #[test]
    fn unwatched_resources_ignored() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.observe(t(0), &ResourceKey::net("client"), 1e6);
        assert!(m.estimate().is_empty());
        m.observe(t(0), &cpu(), 0.5);
        assert_eq!(m.estimate().get(&cpu()), Some(0.5));
    }

    #[test]
    fn trigger_on_violation_only() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        for i in 0..10 {
            m.observe(t(i * 10_000), &cpu(), 0.8);
        }
        assert!(m.check(t(100_000)).is_none(), "in range: no trigger");
        for i in 10..200 {
            m.observe(t(i * 10_000), &cpu(), 0.2);
        }
        let trig = m.check(t(2_000_000)).expect("violation must trigger");
        assert_eq!(trig.violations.len(), 1);
        assert!(trig.estimate.get(&cpu()).unwrap() < 0.5);
    }

    #[test]
    fn trigger_rate_limited() {
        let mut m = MonitoringAgent::new(vec![cpu()], 10_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.min_trigger_gap_us = 1_000_000;
        m.observe(t(0), &cpu(), 0.1);
        assert!(m.check(t(10_000)).is_some());
        m.observe(t(20_000), &cpu(), 0.1);
        assert!(m.check(t(30_000)).is_none(), "within the gap");
        m.observe(t(1_500_000), &cpu(), 0.1);
        assert!(m.check(t(1_500_000)).is_some(), "after the gap");
    }

    #[test]
    fn hysteresis_damps_small_excursions() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.hysteresis = 0.10;
        // 0.47 is below 0.5 but within 10% of the range width (0.05).
        m.observe(t(0), &cpu(), 0.47);
        assert!(m.check(t(10_000)).is_none());
        // 0.30 is far below.
        let mut m2 = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m2.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m2.hysteresis = 0.10;
        m2.observe(t(0), &cpu(), 0.30);
        assert!(m2.check(t(10_000)).is_some());
    }

    #[test]
    fn retargeting_watched_resources() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.observe(t(0), &cpu(), 0.5);
        m.set_watched(vec![ResourceKey::net("client")]);
        assert!(m.estimate().is_empty(), "old stats dropped on retarget");
        m.observe(t(0), &ResourceKey::net("client"), 5e5);
        assert_eq!(m.estimate().len(), 1);
    }

    #[test]
    fn empty_estimate_never_triggers() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        assert!(m.check(t(1000)).is_none());
    }

    #[test]
    fn window_stat_prunes_on_read() {
        let mut w = WindowStat::new(1000);
        w.push(t(0), 1.0);
        assert_eq!(w.mean_at(t(500)), Some(1.0));
        assert_eq!(w.mean_at(t(5000)), None, "expired as of now");
        assert_eq!(w.latest_at(t(5000)), None);
        assert_eq!(w.mean(), Some(1.0), "untimed view keeps last-known");
        w.prune(t(5000));
        assert!(w.is_empty());
    }

    #[test]
    fn stale_estimate_expires_and_triggers() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.observe(t(0), &cpu(), 0.8);
        assert!(m.check(t(100_000)).is_none(), "fresh and in range");
        // The reporter dies: no observations for far longer than the window.
        let trig = m.check(t(5_000_000)).expect("stale resource must trigger");
        assert!(trig.is_stale());
        assert_eq!(trig.stale, vec![cpu()]);
        assert!(trig.estimate.get(&cpu()).is_none(), "expired value is not 'fresh'");
        assert_eq!(m.estimate().get(&cpu()), Some(0.8), "last-known value retained");
        assert!(trig.violations.is_empty(), "stale alone, not a range violation");
    }

    const P: u64 = 10_000;
    const W: u64 = 200_000;

    fn net() -> ResourceKey {
        ResourceKey::net("client")
    }

    /// A monitor that has ticked on the grid up to `t`, observing `cpu`
    /// at each tick; the window then holds `W / P + 1 = 21` samples.
    fn ticked(t: u64, value: f64) -> MonitoringAgent {
        let mut m = MonitoringAgent::new(vec![cpu(), net()], W);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        for g in (0..=t).step_by(P as usize) {
            m.observe(t_at(g), &cpu(), value);
            assert!(m.check(t_at(g)).is_none());
        }
        m
    }

    fn t_at(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn a_full_constant_window_is_a_fixed_point() {
        let m = ticked(500_000, 0.8);
        assert!(m.is_fixed_point(t_at(500_000), P, &[(&cpu(), Some(0.8)), (&net(), None)]));
        // Any later reading but the retained one breaks it.
        assert!(!m.is_fixed_point(t_at(500_000), P, &[(&cpu(), Some(0.7)), (&net(), None)]));
    }

    #[test]
    fn one_differing_sample_blocks_parking() {
        let mut m = ticked(490_000, 0.8);
        m.observe(t_at(500_000), &cpu(), f64::from_bits(0.8f64.to_bits() + 1));
        assert!(m.check(t_at(500_000)).is_none());
        assert!(!m.is_fixed_point(t_at(500_000), P, &[(&cpu(), Some(0.8)), (&net(), None)]));
    }

    #[test]
    fn a_window_not_yet_full_blocks_parking() {
        // 20 samples: the next tick would grow the window, not shift it.
        let m = ticked(190_000, 0.8);
        assert!(!m.is_fixed_point(t_at(190_000), P, &[(&cpu(), Some(0.8)), (&net(), None)]));
        let m = ticked(200_000, 0.8);
        assert!(m.is_fixed_point(t_at(200_000), P, &[(&cpu(), Some(0.8)), (&net(), None)]));
    }

    #[test]
    fn a_violation_held_back_only_by_the_gap_blocks_parking() {
        let mut m = ticked(500_000, 0.8);
        m.min_trigger_gap_us = 1_000_000;
        // The first violating tick fires; the window then turns over at
        // 0.2 inside the gap, so every later check is silent.
        let mut fired = 0;
        for g in (510_000..=800_000).step_by(P as usize) {
            m.observe(t_at(g), &cpu(), 0.2);
            fired += usize::from(m.check(t_at(g)).is_some());
        }
        assert_eq!(fired, 1, "rate-limited after the first trigger");
        assert!(!m.is_fixed_point(t_at(800_000), P, &[(&cpu(), Some(0.2)), (&net(), None)]));
    }

    #[test]
    fn a_resource_observed_then_missing_blocks_parking() {
        let mut m = ticked(500_000, 0.8);
        // The network was observed once; a tick that reads nothing for it
        // lets it go stale.
        m.observe(t_at(400_000), &net(), 1e6);
        assert!(m.check(t_at(500_000)).is_none());
        assert!(!m.is_fixed_point(t_at(500_000), P, &[(&cpu(), Some(0.8)), (&net(), None)]));
    }

    #[test]
    fn replayed_ticks_leave_the_state_evaluated_ticks_leave() {
        for n in [1u64, 5, 20, 21, 22, 300] {
            let mut evaluated = ticked(500_000, 0.8);
            let mut replayed = ticked(500_000, 0.8);
            for i in 1..=n {
                let g = t_at(500_000 + i * P);
                evaluated.observe(g, &cpu(), 0.8);
                assert!(evaluated.check(g).is_none());
            }
            replayed.replay_parked(t_at(510_000), P, n);
            let end = t_at(500_000 + n * P);
            let bits = |m: &MonitoringAgent| m.estimate_at(end).get(&cpu()).map(f64::to_bits);
            assert_eq!(bits(&evaluated), bits(&replayed), "n = {n}");
            let (e, r) = (&evaluated.stats[&cpu()], &replayed.stats[&cpu()]);
            assert_eq!(e.samples, r.samples, "n = {n}");
        }
    }

    #[test]
    fn quiet_check_matches_the_full_check() {
        // The allocation-free path must agree with the trigger path on
        // every side of the range, with and without hysteresis.
        for &v in &[0.0, 0.3, 0.47, 0.5, 0.75, 1.0, 1.04, 1.2] {
            for &h in &[0.0, 0.05] {
                let mut m = MonitoringAgent::new(vec![cpu()], W);
                m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
                m.hysteresis = h;
                m.observe(t_at(0), &cpu(), v);
                let quiet = m.is_quiet_at(t_at(0));
                assert_eq!(quiet, m.check(t_at(0)).is_none(), "v = {v}, h = {h}");
            }
        }
    }

    #[test]
    fn stale_trigger_is_rate_limited_too() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.observe(t(0), &cpu(), 0.8);
        assert!(m.check(t(5_000_000)).is_some());
        assert!(m.check(t(5_100_000)).is_none(), "within the gap");
        assert!(m.check(t(5_600_000)).is_some(), "stale condition persists");
    }
}
