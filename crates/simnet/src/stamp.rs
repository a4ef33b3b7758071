//! Event stamps: where an event sits in the kernel's order, and enough of
//! the chain of events that caused it to place a timer that was never
//! enqueued.
//!
//! The kernel handles same-instant events in enqueue order. A periodic
//! timer that an actor *elides* (it knows the fire would do nothing)
//! never gets an enqueue position, yet when the actor catches up at its
//! next event it must know whether the elided fire at that instant would
//! have run before or after the event. The elided fire at `G` would have
//! been enqueued at `G - P` by the fire at `G - P`, which was enqueued at
//! `G - 2P`, and so on back to the event that armed the chain. The event
//! being handled has its own chain of causes. Ordering the two is a
//! lexicographic comparison of the two chains, level by level, on
//! (enqueue instant, enqueue order) — and it only continues past a level
//! while both members were enqueued exactly one period before they fired.
//!
//! A `Cause` therefore records, for each queued event, the *run*: how
//! many consecutive events up its causal chain (itself included) had the
//! same enqueue-to-fire delay, the sequence number of the run's top
//! member, and the enqueue-to-fire delay of the top member's parent (the
//! *base*). That is O(1) per event and makes [`TimerChain::fires_before`]
//! exact in O(1).
//!
//! Two facts keep the summary small. At one instant the kernel handles
//! events in sequence order, so two tops pushed by bases of the same
//! instant order exactly as their sequence numbers do, whether the bases
//! are one event or two. And a base meets the other chain's run member
//! at the same instant, enqueued one period earlier, so only the base's
//! delay decides which came first.

use std::cmp::Ordering;

use crate::time::SimTime;

/// The causal summary the kernel keeps with every queued event.
///
/// Sequence numbers are kept modulo 2^32 to keep queue entries small.
/// They are only ever compared between events enqueued while one instant
/// was being handled, so wrapping comparison ([`seq_before`]) is exact
/// as long as fewer than 2^31 events are enqueued within one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cause {
    pub(crate) enqueued: SimTime,
    seq: u32,
    top_seq: u32,
    /// Delay of the run's base, saturating at `u32::MAX` us (periods are
    /// shorter); 0 for code outside any handler, which runs after every
    /// event already queued for its instant.
    base_delay: u32,
    /// Saturates at `u32::MAX` members.
    run: u32,
}

impl Cause {
    /// The cause of an event enqueued at `now` for `t` with sequence
    /// number `seq`, while handling `parent` (`None`: outside any handler).
    pub(crate) fn new(now: SimTime, t: SimTime, seq: u64, parent: Option<&EventStamp>) -> Cause {
        let delay = t.since(now);
        let seq = seq as u32;
        match parent {
            Some(p) if p.delay() == delay => Cause {
                enqueued: now,
                seq,
                top_seq: p.cause.top_seq,
                base_delay: p.cause.base_delay,
                run: p.cause.run.saturating_add(1),
            },
            Some(p) => Cause {
                enqueued: now,
                seq,
                top_seq: seq,
                base_delay: u32::try_from(p.delay()).unwrap_or(u32::MAX),
                run: 1,
            },
            None => Cause { enqueued: now, seq, top_seq: seq, base_delay: 0, run: 1 },
        }
    }
}

/// The event being handled: when it fires, where it was enqueued, and a
/// summary of the events that caused it (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventStamp {
    at: SimTime,
    cause: Cause,
}

impl EventStamp {
    pub(crate) fn new(at: SimTime, cause: Cause) -> Self {
        EventStamp { at, cause }
    }

    /// A stamp for code running outside any event handler at `now`,
    /// when the next sequence number is `seq`.
    pub(crate) fn setup(now: SimTime, seq: u64) -> Self {
        EventStamp { at: now, cause: Cause::new(now, now, seq, None) }
    }

    /// The instant the event fires.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// The instant it was enqueued.
    pub fn enqueued(&self) -> SimTime {
        self.cause.enqueued
    }

    /// Its enqueue sequence number, modulo 2^32. Events of one instant
    /// are handled in increasing `(enqueued, seq)` order, `seq` compared
    /// with wrapping arithmetic.
    pub fn seq(&self) -> u32 {
        self.cause.seq
    }

    /// Was `self` handled before `other`? Both must be events the kernel
    /// handled (or set-up code between them): at one instant the kernel
    /// goes in `(enqueued, seq)` order.
    pub fn is_before(&self, other: &EventStamp) -> bool {
        match (self.at, self.cause.enqueued).cmp(&(other.at, other.cause.enqueued)) {
            Ordering::Equal => seq_before(self.cause.seq, other.cause.seq),
            o => o == Ordering::Less,
        }
    }

    fn delay(&self) -> u64 {
        self.at.since(self.cause.enqueued)
    }
}

/// A periodic timer chain: the first fire armed by one event, every later
/// fire re-armed by the previous one exactly one period on. An actor that
/// elides some fires (parks the chain) uses it to find where each elided
/// fire would have run relative to the events it does get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerChain {
    period_us: u64,
    armed_by: EventStamp,
    /// Sequence number of the first fire's enqueue, modulo 2^32.
    first_seq: u32,
}

impl TimerChain {
    pub(crate) fn new(period_us: u64, armed_by: EventStamp, first_seq: u64) -> Self {
        assert!(
            period_us > 0 && period_us < u32::MAX as u64,
            "a timer chain needs a period in (0, 2^32 - 1) us"
        );
        TimerChain { period_us, armed_by, first_seq: first_seq as u32 }
    }

    /// The event that armed the chain.
    pub fn armed_by(&self) -> &EventStamp {
        &self.armed_by
    }

    /// Instant of the chain's first fire.
    pub fn first(&self) -> SimTime {
        self.armed_by.at + self.period_us
    }

    /// Is `t` one of the chain's fire instants?
    pub fn is_fire_instant(&self, t: SimTime) -> bool {
        t >= self.first() && t.since(self.first()).is_multiple_of(self.period_us)
    }

    /// Does the chain's fire at `ev.at()` run before `ev` (or is it `ev`)?
    /// `ev.at()` must be one of the chain's fire instants.
    pub fn fires_before(&self, ev: &EventStamp) -> bool {
        debug_assert!(self.is_fire_instant(ev.at), "{} is not a fire instant", ev.at);
        let p = self.period_us;
        // Level 0: the fire was enqueued at `at - p`.
        let d = ev.delay();
        if d != p {
            return d < p;
        }
        // Both chains climb in steps of `p` while their members were
        // enqueued one period before firing. The fire's run is the `k`
        // re-arms back to the arming event, extended by the arming event's
        // own run when it too was enqueued one period ahead.
        let k = ev.at.since(self.armed_by.at) / p;
        let a = &self.armed_by;
        let (chain_run, chain_top, chain_base_delay) = if a.delay() == p {
            (k + a.cause.run as u64, a.cause.top_seq, a.cause.base_delay as u64)
        } else {
            (k, self.first_seq, a.delay())
        };
        match (ev.cause.run as u64).cmp(&chain_run) {
            // The event's base meets a fire enqueued one period before it:
            // the base came first iff it was enqueued longer ago.
            Ordering::Less => (ev.cause.base_delay as u64) < p,
            // The chain's base meets a member of the event's run.
            Ordering::Greater => chain_base_delay > p,
            // Both bases at one instant: their tops were enqueued in the
            // order the bases ran (or by one base, in push order).
            Ordering::Equal => !seq_before(ev.cause.top_seq, chain_top),
        }
    }
}

/// `a` before `b` in wrapping sequence order.
fn seq_before(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}
