//! What each metric means: for an end-to-end metric, what it measures;
//! for a per-layer metric, the end-to-end metric it should move and on
//! which workload. Names and units live in `BENCHMARK.json` (see
//! [`crate::spec`]).

/// The note printed beside metric `name`; empty for an unknown name.
pub fn note(name: &str) -> &'static str {
    match name {
        "rounds_per_s" => {
            "host: simulated request/reply rounds per host-second of the measured phase, adjusted for host speed"
        }
        "setup_s" => {
            "host: store generation plus PerfDb build (profiling on fig7, model_db on load), adjusted for host speed"
        }
        "peak_rss_mb" => "host: peak resident memory of the process that ran the workload",
        "session_p50_s" => "simulated: median session time, arrival to last image",
        "session_p99_s" => "simulated: 99th-percentile session time, arrival to last image",
        "transmit_p50_s" => "simulated: median per-image transmit time",
        "transmit_p75_s" => "simulated: 75th-percentile per-image transmit time",
        "qos_met_share" => {
            "simulated: share of images (7c/d: rounds; load: sessions) meeting the hard QoS constraint"
        }
        "delivered_share" => {
            "share of attempted sessions/images delivered and runs passing every check"
        }
        "monitor.ticks" => {
            "rounds_per_s on queue-1k; flat host time and unchanged simulated QoS on fig7"
        }
        "monitor.ticks_per_round" => "rounds_per_s on queue-1k",
        "monitor.tick_ms" => {
            "rounds_per_s on queue-1k (self time of runtime.tick minus scheduler.choose)"
        }
        "simnet.events" | "simnet.events_per_round" | "simnet.peak_queue" => {
            "rounds_per_s on queue-1k and sweep-10k"
        }
        "unattributed_ms" => {
            "rounds_per_s on sweep-10k (load watcher and kernel time outside every span)"
        }
        "load.sessions_live_peak" => "rounds_per_s on sweep-10k",
        "obs.events_published" | "obs.events_dropped" | "obs.drop_ratio" => {
            "rounds_per_s on queue-1k"
        }
        "client.rounds" => "nothing: the base of the per-round ratios",
        "server.requests" | "store.misses" | "store.hit_ratio" => "rounds_per_s on fig7",
        "server.request_ms" => "rounds_per_s on fig7 (codec work on store misses)",
        "profiler.points" | "profiler.ms" | "wavelet.build_ms" => "setup_s on fig7",
        "scheduler.choose_calls"
        | "scheduler.choose_ms"
        | "perfdb.predict_calls"
        | "perfdb.predict_ms" => "simulated QoS on fig7 (host time should stay negligible)",
        "scheduler.switch_ratio" => "simulated QoS on fig7 (switches per scheduler decision)",
        "perfdb.bytes" => "peak_rss_mb on sweep-10k",
        "bench.traced_wall_ms" => {
            "nothing: the measured phase's wall time with tracing on, adjusted for host speed"
        }
        "bench.untraced_wall_ms" => {
            "nothing: the same run's measured phase with tracing off, adjusted for host speed"
        }
        _ => "",
    }
}

/// Layers the benchmark cannot measure; named in every report so that
/// their absence is stated rather than implied. The workload mix does not
/// exercise `adapt-transport` or `arbiter`, and neither entry point
/// attaches an `Obs` to the sandbox's sampler.
pub const UNMEASURED_LAYERS: &[&str] = &["adapt-transport", "arbiter", "sandbox sampler"];
