//! Host-speed adjustment of the host-time metrics.
//!
//! On a shared host the speed of a CPU drifts with what other tenants run
//! on it: a fixed loop can take 1.8 times as long in one few-second
//! stretch as in the next, and a whole benchmark run can land in a slow
//! stretch. Ten raw runs of one workload spread by a quarter and
//! more (interquartile range over median), so the drift, not the program,
//! would decide whether two commits differ.
//!
//! While a phase runs, a [`Sampler`] thread wakes every
//! [`SAMPLE_EVERY`] and times a fixed [`reference`] computation, which
//! shares no code with the framework, so that no change to the program
//! moves it. `run.py` pins the benchmark process to one CPU, so the
//! sampler measures the CPU the workload runs on, at the time it runs. A
//! phase's host time is then scaled by [`REFERENCE_S`] over the median
//! reference time seen during it: the adjusted time is the time the phase
//! would take on a CPU that runs the reference in [`REFERENCE_S`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference time the adjustment scales to: the median of
/// [`reference`] on a 2-vCPU Intel Xeon 2.0 GHz virtual machine at a
/// quiet moment.
pub const REFERENCE_S: f64 = 0.000_75;

/// How often the sampler times the reference; each timing takes about
/// [`REFERENCE_S`] of the phase's CPU, so it costs the phase about 1.5%.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// A fixed computation mixing what the framework's hot paths do: fill,
/// sort and walk an array, float arithmetic, hashing.
pub fn reference() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u32> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    let mut f = 0.0f64;
    for (i, &a) in v.iter().enumerate() {
        f += f64::from(a).sqrt() / (i as f64 + 1.0);
    }
    let mut h = std::collections::HashMap::new();
    for &a in v.iter().step_by(3) {
        *h.entry(a >> 12).or_insert(0u32) += 1;
    }
    f.to_bits() ^ h.len() as u64
}

/// Times [`reference`] every [`SAMPLE_EVERY`] until finished.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                std::thread::sleep(SAMPLE_EVERY);
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                let start = Instant::now();
                std::hint::black_box(reference());
                samples.push(start.elapsed().as_secs_f64());
            }
        });
        Sampler { stop, handle }
    }

    /// Stop sampling and return the median reference time, in seconds.
    /// A phase too short for a sample gets one taken now.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.handle.join().expect("the sampler thread does not panic");
        if samples.is_empty() {
            let start = Instant::now();
            std::hint::black_box(reference());
            samples.push(start.elapsed().as_secs_f64());
        }
        crate::report::median(&samples)
    }
}

/// Run `f` while sampling; returns its result and the median reference
/// time during it.
pub fn sampled<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sampler = Sampler::start();
    let out = f();
    (out, sampler.finish())
}

/// `secs` of host time during which the reference took `reference_s`,
/// scaled to a CPU that runs it in [`REFERENCE_S`].
pub fn adjust(secs: f64, reference_s: f64) -> f64 {
    secs * REFERENCE_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_gets_samples_and_a_slower_reference_shortens_the_time() {
        let ((), r) = sampled(|| std::thread::sleep(SAMPLE_EVERY * 3));
        assert!(r > 0.0 && r.is_finite());
        let ((), r) = sampled(|| ());
        assert!(r > 0.0 && r.is_finite());
        assert_eq!(adjust(2.0, REFERENCE_S * 2.0), 1.0);
    }
}
