//! The benchmark's fixed vocabulary: workloads and metric names. The same
//! names, units and directions are declared in `BENCHMARK.json`; a unit
//! test keeps the two lists identical.

use crate::sut::Shape;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// An in-process cluster of full served nodes over loopback sockets.
    Tcp,
    /// Boxed sans-io services moved by a zero-delay FIFO router on one
    /// thread: no sockets, no MACs, no timers, so its counts repeat.
    Direct,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub n: usize,
    pub basket: u16,
    pub vector: bool,
    /// Epochs in flight: the closed loop's client count.
    pub depth: usize,
    pub adaptive: bool,
    /// Node 0 serves HTTP and readers poll it.
    pub serve: bool,
    /// A node that is never started (a crash from epoch 0).
    pub crashed: Option<usize>,
    /// Stream length of a calibration probe (~0.7 s on one sandbox core).
    pub probe_epochs: u32,
    /// Input pool generated per measured second; caps the stream length
    /// and makes set-up work independent of how fast the code runs.
    pub pool_epochs_per_s: u32,
    /// Fewest epochs worth measuring (≥ 200 decide samples on `tcp-*`).
    pub min_epochs: u32,
    /// Listed in `BENCHMARK.json`, so the benchmark driver runs it and
    /// holds it to the bounds. The others run by name and under `--all`.
    pub listed: bool,
}

impl Workload {
    pub fn shape(&self, epochs: u32) -> Shape {
        Shape {
            n: self.n,
            basket: self.basket,
            vector: self.vector,
            depth: self.depth,
            adaptive: self.adaptive,
            epochs,
        }
    }

    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| Some(i) != self.crashed).collect()
    }

    pub fn pool_epochs(&self, seconds: u32) -> u32 {
        (self.pool_epochs_per_s * seconds.max(1)).max(self.min_epochs)
    }
}

const STREAM_K4: Workload = Workload {
    name: "tcp-stream-k4",
    driver: Driver::Tcp,
    n: 4,
    basket: 4,
    vector: false,
    depth: 2,
    adaptive: true,
    serve: false,
    crashed: None,
    probe_epochs: 20,
    pool_epochs_per_s: 100,
    min_epochs: 60,
    listed: true,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tcp-oneshot",
        basket: 1,
        depth: 1,
        adaptive: false,
        probe_epochs: 60,
        pool_epochs_per_s: 350,
        min_epochs: 100,
        listed: false,
        ..STREAM_K4
    },
    STREAM_K4,
    Workload {
        name: "tcp-vector-k8",
        basket: 8,
        vector: true,
        probe_epochs: 16,
        pool_epochs_per_s: 60,
        min_epochs: 60,
        ..STREAM_K4
    },
    Workload {
        name: "direct-n16",
        driver: Driver::Direct,
        n: 16,
        basket: 2,
        adaptive: false,
        probe_epochs: 8,
        pool_epochs_per_s: 16,
        min_epochs: 28,
        ..STREAM_K4
    },
    Workload { name: "tcp-serve-k4", serve: true, listed: false, ..STREAM_K4 },
    Workload { name: "tcp-crash-k4", crashed: Some(3), listed: false, ..STREAM_K4 },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of every end-to-end metric, emitted by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("agreements_per_s", "1/s"),
    ("decide_p50_ms", "ms"),
    ("cpu_ms_per_agreement", "ms"),
    ("wire_bytes_per_agreement", "B"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, emitted by `--trace 1`. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.mpsc_hop_us", "us"),
    ("runtime.tcp_hop_us", "us"),
    ("runtime.mpsc_hop_cpu_us", "us"),
    ("runtime.tcp_hop_cpu_us", "us"),
    ("runtime.threads_peak", "count"),
    ("crypto.hmac_ns_per_byte", "ns"),
    ("crypto.tag_us_per_frame", "us"),
    ("crypto.macs_per_agreement", "count"),
    ("net.frames_per_agreement", "count"),
    ("net.entries_per_frame", "count"),
    ("net.frame_overhead_share", "share"),
    ("net.encode_us_per_frame", "us"),
    ("net.decode_us_per_frame", "us"),
    ("net.dropped_egress_share", "share"),
    ("net.dropped_frames", "count"),
    ("net.late_entries_share", "share"),
    ("net.buffer_reuse_share", "share"),
    ("net.teardown_s", "s"),
    ("primitives.batch_decode_ns_per_entry", "ns"),
    ("primitives.entries_per_agreement", "count"),
    ("primitives.peak_resident_epochs", "count"),
    ("primitives.replayed_entries_share", "share"),
    ("primitives.early_dropped", "count"),
    ("primitives.stale_epochs", "count"),
    ("core.service_busy_us_per_agreement", "us"),
    ("core.on_message_p50_us", "us"),
    ("core.on_message_p99_us", "us"),
    ("core.calls_per_agreement", "count"),
    ("core.bundle_parse_ns", "ns"),
    ("core.bundle_bytes_p50", "B"),
    ("core.output_spread_max", "value"),
    ("api.attest_us_per_slot", "us"),
    ("api.publish_us", "us"),
    ("api.latest_read_ns", "ns"),
    ("api.hub_broadcast_us", "us"),
    ("api.http_get_idle_us", "us"),
    ("api.reads_per_s", "1/s"),
    ("api.read_p50_ms", "ms"),
    ("api.read_p99_ms", "ms"),
    ("api.read_failed_share", "share"),
    ("api.reader_late_p99_ms", "ms"),
    ("api.stream_updates", "count"),
    ("api.kicked_subscribers", "count"),
    ("sim.wall_ms_per_agreement", "ms"),
    ("sim.predicted_agreements_per_s", "1/s"),
    ("sim.prediction_ratio", "ratio"),
    ("budget.runtime_share", "share"),
    ("budget.crypto_share", "share"),
    ("budget.net_share", "share"),
    ("budget.primitives_core_share", "share"),
    ("budget.api_share", "share"),
    ("budget.residual_share", "share"),
    ("cluster.decide_skew_p50_ms", "ms"),
    ("cluster.decide_p95_ms", "ms"),
    ("cluster.decide_p99_ms", "ms"),
    ("cluster.decide_samples", "count"),
    ("cluster.failed_epoch_share", "share"),
    ("cluster.epochs", "count"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.cpu_ms_per_agreement", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap_or(""),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_harness_declare_the_same_names() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "end_to_end"), END_TO_END.to_vec());
        assert_eq!(names(&doc, "per_layer"), PER_LAYER.to_vec());
        let declared: Vec<&str> = names(&doc, "workloads").iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().filter(|w| w.listed).map(|w| w.name).collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "metric name {name:?}");
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} declared twice", w.name);
        }
    }

    #[test]
    fn benchmark_json_meets_the_schema_limits() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            doc.as_obj().unwrap_or_default().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or_default() {
            let why = w.get("why").and_then(Json::as_str).unwrap_or("");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "why: {why:?}");
        }
        let mut has_setup = false;
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or_default() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(1.0);
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            let better = m.get("better").and_then(Json::as_str);
            assert!(matches!(better, Some("lower" | "higher")));
            if m.get("name").and_then(Json::as_str) == Some("setup_s") {
                has_setup =
                    better == Some("lower") && m.get("unit").and_then(Json::as_str) == Some("s");
            }
        }
        assert!(has_setup, "setup_s must be declared, in s, lower is better");
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0);
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
