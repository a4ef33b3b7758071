//! `TimerChain::fires_before` against the kernel itself.
//!
//! A ticker re-arms a real periodic timer and, at every other event it
//! handles on a fire instant, asks the chain where the fire would sit.
//! The kernel's answer is whether the fire has already run. Noise actors,
//! one per host, exchange zero-byte messages over links whose latency is
//! exactly one period and mostly set timers of whole periods, so
//! same-instant ties several causal levels deep are common.

use std::sync::{Arc, Mutex};

use simnet::{Actor, ActorId, Ctx, DrainMode, Message, Sim, SimTime, TimerChain};

const P: u64 = 100;
const HORIZON: u64 = 40_000;
const AUX: u64 = 1;
/// Fires of the ticker's chain number `g` carry tag `MAIN + g`.
const MAIN: u64 = 100;

#[derive(Default, Debug)]
struct Tally {
    checks: u64,
    /// Checks whose event was itself enqueued exactly one period ahead.
    deep: u64,
    wrong: u64,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A timer delay from `now`: mostly whole periods, sometimes onto the
    /// next fire instant from off the grid, sometimes off the grid.
    fn delay(&mut self, now: SimTime) -> u64 {
        let to_grid = P - now.as_us() % P;
        [P, P, 2 * P, 0, to_grid, to_grid + P, P - 1, P + 3][(self.next() % 8) as usize]
    }
}

struct Ticker {
    chain: Option<TimerChain>,
    /// Chains re-armed so far; fires of older chains are ignored.
    generation: u64,
    last_fire: Option<SimTime>,
    peers: Vec<ActorId>,
    rng: Rng,
    tally: Arc<Mutex<Tally>>,
}

impl Ticker {
    fn check(&mut self, ctx: &mut Ctx<'_>) {
        let chain = self.chain.expect("armed at start");
        let now = ctx.now();
        if !chain.is_fire_instant(now) || now.as_us() > HORIZON {
            // Sometimes start a fresh chain, so that young chains meet
            // events whose own causal runs are longer.
            if self.rng.next().is_multiple_of(40) {
                self.generation += 1;
                self.last_fire = None;
                self.chain = Some(ctx.arm_timer_chain(P, MAIN + self.generation));
            }
            return;
        }
        let stamp = ctx.stamp();
        let expected = self.last_fire == Some(now);
        let mut t = self.tally.lock().unwrap();
        t.checks += 1;
        t.deep += u64::from(stamp.at().since(stamp.enqueued()) == P);
        t.wrong += u64::from(chain.fires_before(&stamp) != expected);
    }

    fn stir(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now().as_us() > HORIZON {
            return;
        }
        // Exactly one successor per event keeps the population fixed.
        if self.rng.next().is_multiple_of(2) {
            let d = self.rng.delay(ctx.now());
            ctx.set_timer(d, AUX);
        } else {
            let peer = self.peers[(self.rng.next() % self.peers.len() as u64) as usize];
            ctx.send_now(peer, Message::signal(0, 0));
        }
    }
}

impl Actor for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.chain = Some(ctx.arm_timer_chain(P, MAIN));
        self.stir(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag >= MAIN {
            if tag == MAIN + self.generation {
                // A fire runs at its own position.
                let chain = self.chain.expect("armed at start");
                self.tally.lock().unwrap().wrong += u64::from(!chain.fires_before(&ctx.stamp()));
                self.last_fire = Some(ctx.now());
                if ctx.now().as_us() <= HORIZON {
                    ctx.set_timer(P, tag);
                }
            }
            return;
        }
        self.check(ctx);
        self.stir(ctx);
    }

    fn on_message(&mut self, _from: ActorId, _msg: Message, ctx: &mut Ctx<'_>) {
        self.check(ctx);
        self.stir(ctx);
    }
}

struct Noise {
    targets: Vec<ActorId>,
    rng: Rng,
}

impl Noise {
    fn act(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now().as_us() > HORIZON {
            return;
        }
        // Exactly one successor per event keeps the population fixed.
        if self.rng.next().is_multiple_of(3) {
            let d = self.rng.delay(ctx.now());
            ctx.set_timer(d, AUX);
        } else {
            let to = self.targets[(self.rng.next() % self.targets.len() as u64) as usize];
            ctx.send_now(to, Message::signal(0, 0));
        }
    }
}

impl Actor for Noise {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.act(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        self.act(ctx);
    }

    fn on_message(&mut self, _from: ActorId, _msg: Message, ctx: &mut Ctx<'_>) {
        self.act(ctx);
    }
}

fn run(mode: DrainMode, seed: u64) -> Tally {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let hosts: Vec<_> = (0..=8).map(|i| sim.add_host(&format!("h{i}"), 1.0, 1 << 30)).collect();
    for (i, &a) in hosts.iter().enumerate() {
        for &b in &hosts[i + 1..] {
            sim.set_link(a, b, 1e9, P);
        }
    }
    let tally = Arc::new(Mutex::new(Tally::default()));
    // Actor ids are assigned in spawn order: the ticker is 0, noise 1..=8.
    let ticker = ActorId(0);
    let noise: Vec<ActorId> = (1..=8).map(ActorId).collect();
    sim.spawn(
        hosts[0],
        Box::new(Ticker {
            chain: None,
            generation: 0,
            last_fire: None,
            peers: noise.clone(),
            rng: Rng(seed | 1),
            tally: tally.clone(),
        }),
    );
    for (i, _) in noise.iter().enumerate() {
        let host = hosts[i + 1];
        let mut targets = noise.clone();
        targets.push(ticker);
        targets.push(ticker);
        let rng = Rng((seed.wrapping_mul(31) + i as u64 * 7919) | 1);
        sim.spawn(host, Box::new(Noise { targets, rng }));
    }
    sim.run_until_idle();
    let t = std::mem::take(&mut *tally.lock().unwrap());
    t
}

#[test]
fn fires_before_matches_the_kernel_order() {
    for mode in [DrainMode::Batched, DrainMode::Heap] {
        let mut deep = 0;
        for seed in 1..=12 {
            let t = run(mode, seed);
            assert_eq!(t.wrong, 0, "{mode:?} seed {seed}: {t:?}");
            assert!(t.checks > 50, "{mode:?} seed {seed}: too few checks {t:?}");
            deep += t.deep;
        }
        assert!(deep > 500, "{mode:?}: only {deep} same-instant ties a period deep");
    }
}

#[test]
fn heap_and_batched_stamp_identically() {
    let a = run(DrainMode::Batched, 5);
    let b = run(DrainMode::Heap, 5);
    assert_eq!((a.checks, a.deep), (b.checks, b.deep));
}
