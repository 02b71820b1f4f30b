//! Shared harness for the figure/table binaries in `src/bin/`, each of
//! which regenerates one table or figure of the paper's evaluation:
//! protocol runners over configured testbeds, every run judged by
//! `delphi_sim::judge`, the paper's parameter presets, and plain-text
//! table/CSV rendering. The *shapes* are expected to match the paper (who
//! wins, by what factor, where the crossovers sit), not its numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod regression;

use delphi_baselines::{AadNode, AcsNode};
use delphi_core::{DelphiConfig, DelphiNode, OracleService};
use delphi_primitives::{EpochConfig, EpochEvent, EpochStats, FlushPolicy, NodeId, Protocol};
use delphi_sim::{judge, judge_streams, spread, EpochThroughput, RunReport, Simulation, Topology};
use delphi_workloads::EpochFeed;

/// One measured protocol execution.
#[derive(Clone, Copy, Debug)]
pub struct BenchPoint {
    /// System size.
    pub n: usize,
    /// Simulated latency in milliseconds.
    pub runtime_ms: f64,
    /// Total wire traffic in MiB (payload + framing, all nodes).
    pub wire_mib: f64,
    /// Total messages sent.
    pub msgs: u64,
    /// Output spread among honest nodes (agreement quality).
    pub spread: f64,
}

impl BenchPoint {
    /// The point of a finished run; panics unless it finished and its
    /// outputs pass [`judge`] against `inputs`.
    fn judged(
        name: &str,
        report: &RunReport<f64>,
        inputs: &[f64],
        epsilon: f64,
        rho0: Option<f64>,
    ) -> BenchPoint {
        assert!(report.all_honest_finished(), "{name} run stalled: {:?}", report.stop);
        let outs: Vec<f64> = report.honest_outputs().copied().collect();
        let spread = judge(&outs, inputs, epsilon, rho0)
            .unwrap_or_else(|why| panic!("{name} run (n = {}): {why}", inputs.len()));
        BenchPoint {
            n: inputs.len(),
            runtime_ms: report.completion_ms().unwrap_or(f64::NAN),
            wire_mib: report.metrics.total_wire_mib(),
            msgs: report.metrics.total_msgs(),
            spread,
        }
    }
}

/// The paper's oracle-network Delphi parameters (§VI-A / Fig. 6a).
///
/// `rho0` varies between figures (10$ in Fig. 6a, 2$ in Fig. 6b).
pub fn oracle_config(n: usize, rho0: f64) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(rho0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()
        .expect("paper oracle parameters are valid")
}

/// The paper's CPS Delphi parameters (§VI-B / Fig. 6c).
pub fn cps_config(n: usize) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(-10_000.0, 10_000.0)
        .rho0(0.5)
        .delta_max(50.0)
        .epsilon(0.5)
        .build()
        .expect("paper CPS parameters are valid")
}

/// Evenly spreads `n` inputs over `[center − δ/2, center + δ/2]`.
pub fn spread_inputs(n: usize, center: f64, delta: f64) -> Vec<f64> {
    if n == 1 {
        return vec![center];
    }
    (0..n).map(|i| center - delta / 2.0 + delta * i as f64 / (n as f64 - 1.0)).collect()
}

/// Runs Delphi on `topology` with the given inputs, judged with the
/// config's ε and `max(ρ0, δ)` validity.
pub fn run_delphi(cfg: &DelphiConfig, topology: Topology, inputs: &[f64], seed: u64) -> BenchPoint {
    let n = cfg.n();
    assert_eq!(inputs.len(), n);
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let report = Simulation::new(topology).seed(seed).run(nodes);
    BenchPoint::judged("Delphi", &report, inputs, cfg.epsilon(), Some(cfg.rho0()))
}

/// Runs the Abraham et al. baseline with `rounds = ⌈log2(Δ/ε)⌉`, judged
/// with exact hull validity and the round-derived ε = δ / 2^rounds.
pub fn run_aad(n: usize, topology: Topology, inputs: &[f64], rounds: u16, seed: u64) -> BenchPoint {
    let t = (n - 1) / 3;
    let nodes = NodeId::all(n)
        .map(|id| AadNode::new(id, n, t, inputs[id.index()], rounds).boxed())
        .collect();
    let report = Simulation::new(topology).seed(seed).run(nodes);
    let epsilon = spread(inputs) / 2f64.powi(i32::from(rounds));
    BenchPoint::judged("AAD", &report, inputs, epsilon, None)
}

/// Runs the FIN-style ACS baseline, judged with exact agreement and
/// exact hull validity.
pub fn run_acs(n: usize, topology: Topology, inputs: &[f64], seed: u64) -> BenchPoint {
    let t = (n - 1) / 3;
    let nodes = NodeId::all(n)
        .map(|id| AcsNode::new(id, n, t, inputs[id.index()], b"bench-coin").boxed())
        .collect();
    let report = Simulation::new(topology).seed(seed).run(nodes);
    BenchPoint::judged("ACS", &report, inputs, 0.0, None)
}

/// One measured epoch-stream execution: sustained throughput plus
/// stream-quality facts the acceptance checks assert on.
#[derive(Clone, Debug)]
pub struct EpochSimPoint {
    /// Throughput summary (agreements/s, bytes and frames per agreement).
    pub throughput: EpochThroughput,
    /// Worst per-(epoch, asset) output spread across honest nodes, from
    /// the judge the run passed.
    pub worst_spread: f64,
    /// Epoch-batch entries flushed by all nodes (envelope count — equal
    /// across flush policies for schedule-independent workloads).
    pub sent_entries: u64,
    /// Most epochs any node held resident at once (live-window bound).
    pub peak_resident: usize,
    /// Epochs any node skipped (0 in honest runs).
    pub stale_epochs: u64,
}

/// Builds node `me`'s streaming price source over `feed`, caching one
/// epoch's inputs at a time: the oracle service asks per `(epoch, asset)`
/// pair, and regenerating the whole basket minute per lookup would
/// multiply the sampling work by the basket size.
pub fn feed_price_source(
    feed: EpochFeed,
    me: NodeId,
    n: usize,
) -> delphi_core::oracle::PriceSource {
    let mut cache: Option<(u32, Vec<Vec<f64>>)> = None;
    Box::new(move |epoch, asset| {
        if cache.as_ref().map(|(e, _)| *e) != Some(epoch.0) {
            cache = Some((epoch.0, feed.inputs(epoch.0, n)));
        }
        cache.as_ref().expect("just filled").1[asset.index()][me.index()]
    })
}

/// Oracle-service wrapper mirroring its epoch counters into a shared
/// cell on every protocol call, so the numbers survive the simulator
/// consuming the node.
struct ProbedOracle {
    inner: OracleService,
    probe: std::sync::Arc<std::sync::Mutex<EpochStats>>,
}

impl ProbedOracle {
    fn sync(&self) {
        *self.probe.lock().expect("probe") = self.inner.stats();
    }
}

impl Protocol for ProbedOracle {
    type Output = Vec<EpochEvent<f64>>;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn start(&mut self) -> Vec<delphi_primitives::Envelope> {
        let out = self.inner.start();
        self.sync();
        out
    }
    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<delphi_primitives::Envelope> {
        let out = self.inner.on_message(from, payload);
        self.sync();
        out
    }
    fn on_tick(&mut self) -> Vec<delphi_primitives::Envelope> {
        let out = self.inner.on_tick();
        self.sync();
        out
    }
    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Runs a streaming-oracle minute sweep in the simulator: `n` nodes agree
/// on the basket `feed` quotes, `epochs` consecutive times, `depth` epochs
/// in flight under a `window`-epoch live window, ticked every `max_delay`
/// of an adaptive `flush`. The oracle maps each basket onto agreement
/// instances by its size; its events come back in the per-asset shape.
///
/// # Panics
///
/// Panics if an honest node fails to complete the stream or the streams
/// fail [`judge_feed`] — the run is the acceptance gate for the epoch
/// machinery — or if `epoch_cfg` disagrees with the feed's basket size.
pub fn run_epoch_delphi(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    epoch_cfg: EpochConfig,
    flush: FlushPolicy,
    topology: Topology,
    seed: u64,
) -> EpochSimPoint {
    let n = cfg.n();
    let assets = feed.assets();
    assert_eq!(usize::from(epoch_cfg.assets), assets, "epoch config vs basket size");
    let mut probes = Vec::with_capacity(n);
    let nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>> = NodeId::all(n)
        .map(|id| {
            let source = feed_price_source(feed.clone(), id, n);
            let inner = OracleService::from_parts(cfg.clone(), id, epoch_cfg, flush, source);
            let probe = std::sync::Arc::new(std::sync::Mutex::new(EpochStats::default()));
            probes.push(probe.clone());
            Box::new(ProbedOracle { inner, probe })
                as Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>
        })
        .collect();
    let mut sim = Simulation::new(topology).seed(seed);
    if let FlushPolicy::Adaptive { max_delay, .. } = flush {
        sim = sim.tick_interval_ns(max_delay.as_nanos().max(1) as u64);
    }
    let report = sim.run(nodes);
    assert!(
        report.all_honest_finished(),
        "epoch stream stalled ({:?}): {epoch_cfg:?}",
        report.stop
    );
    let streams: Vec<&Vec<EpochEvent<f64>>> = report.honest_outputs().collect();
    let worst_spread = judge_feed(&streams, feed, n, epoch_cfg.epochs, cfg.epsilon(), cfg.rho0())
        .unwrap_or_else(|why| panic!("epoch stream failed the judge ({epoch_cfg:?}): {why}"));
    let data: Vec<EpochStats> = probes.iter().map(|p| *p.lock().expect("probe")).collect();
    EpochSimPoint {
        throughput: EpochThroughput::from_report(&report),
        worst_spread,
        sent_entries: data.iter().map(|d| d.sent_entries).sum(),
        peak_resident: data.iter().map(|d| d.peak_resident).max().unwrap_or(0),
        stale_epochs: data.iter().map(|d| d.stale_epochs).sum(),
    }
}

/// [`judge_streams`] against `feed`'s inputs for `n` nodes, all honest,
/// generating each epoch's inputs once.
///
/// # Errors
///
/// The first violation [`judge_streams`] finds.
pub fn judge_feed<S: AsRef<[EpochEvent<f64>]>>(
    streams: &[S],
    feed: &EpochFeed,
    n: usize,
    epochs: u32,
    epsilon: f64,
    rho0: f64,
) -> Result<f64, String> {
    let mut minute = (None, Vec::new());
    let inputs = |e, a: usize| {
        if minute.0 != Some(e) {
            minute = (Some(e), feed.inputs(e, n));
        }
        minute.1.get(a).cloned().unwrap_or_default()
    };
    judge_streams(streams, epochs, feed.assets(), inputs, epsilon, Some(rho0))
}

/// Appends one benchmark record to the file named by `BENCH_JSON` using
/// the same JSON-Lines schema the vendored criterion stub emits, so the
/// `bench-gate` regression gate reads figure metrics and micro benches
/// alike. `value_ns` is the metric in "lower is better" orientation
/// (latency in ns, bytes or frames per agreement, ...). No-op when the
/// variable is unset.
pub fn emit_bench_json(id: &str, value_ns: f64) {
    let Some(path) = std::env::var_os("BENCH_JSON") else { return };
    use std::io::Write as _;
    let line = format!(
        "{{\"id\":\"{id}\",\"median_ns\":{value_ns},\"min_ns\":{value_ns},\
         \"max_ns\":{value_ns},\"iters\":1,\"samples\":1}}\n"
    );
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = result {
        eprintln!("warning: BENCH_JSON append failed: {e}");
    }
}

/// `true` when `--quick` was passed: trims sweeps for CI-speed runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Fits the growth exponent `k` of `y ≈ c·n^k` by least squares in
/// log-log space.
///
/// # Panics
///
/// Panics on fewer than two points or non-positive data.
pub fn growth_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// A minimal aligned-text table with CSV output.
#[derive(Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders CSV (comma-separated, no quoting — cells are numeric).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_workloads::MultiAssetConfig;

    #[test]
    fn spread_inputs_covers_delta() {
        let xs = spread_inputs(5, 100.0, 10.0);
        assert_eq!(xs.len(), 5);
        assert_eq!(xs[0], 95.0);
        assert_eq!(xs[4], 105.0);
        assert_eq!(spread_inputs(1, 7.0, 10.0), vec![7.0]);
    }

    #[test]
    fn growth_exponent_recovers_powers() {
        let quad: Vec<(f64, f64)> = (2..8).map(|n| (n as f64, 3.0 * (n * n) as f64)).collect();
        assert!((growth_exponent(&quad) - 2.0).abs() < 1e-9);
        let cubic: Vec<(f64, f64)> = (2..8).map(|n| (n as f64, 0.5 * (n * n * n) as f64)).collect();
        assert!((growth_exponent(&cubic) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = TextTable::new(&["n", "ms"]);
        t.row(&["16".into(), "2300.5".into()]);
        let text = t.render();
        assert!(text.contains("n"));
        assert!(text.contains("2300.5"));
        assert!(t.to_csv().starts_with("n,ms\n16,2300.5\n"));
    }

    #[test]
    fn delphi_runner_smoke() {
        let cfg = oracle_config(4, 10.0);
        let inputs = spread_inputs(4, 40_000.0, 20.0);
        let p = run_delphi(&cfg, Topology::lan(4), &inputs, 1);
        assert_eq!(p.n, 4);
        assert!(p.runtime_ms > 0.0);
        assert!(p.wire_mib > 0.0);
        assert!(p.spread <= 2.0);
    }

    #[test]
    fn multi_asset_runner_batches_and_agrees() {
        // A one-epoch basket of two (two instances) over one mesh, flushed
        // one frame per entry and adaptively: every asset agrees either
        // way, and adaptive batching spends fewer frames and wire bytes.
        let cfg = oracle_config(4, 10.0);
        let feed = EpochFeed::new(MultiAssetConfig::synthetic(2), 5);
        let one_epoch = EpochConfig::new(1, 2, 1, 1);
        let run = |flush| run_epoch_delphi(&cfg, &feed, one_epoch, flush, Topology::lan(4), 5);
        let (per_entry, adaptive) = (run(FlushPolicy::PerEntry), run(FlushPolicy::adaptive()));
        for p in [&per_entry, &adaptive] {
            assert_eq!(p.throughput.agreements, 2, "one epoch x 2 assets");
            assert!(p.worst_spread <= cfg.epsilon() + 1e-9, "spread {}", p.worst_spread);
        }
        assert_eq!(per_entry.throughput.frames, per_entry.sent_entries, "one frame per entry");
        assert!(adaptive.throughput.frames < adaptive.sent_entries, "entries share frames");
        assert!(
            adaptive.throughput.frames < per_entry.throughput.frames,
            "batching must cut frames: {} vs {}",
            adaptive.throughput,
            per_entry.throughput
        );
        assert!(
            adaptive.throughput.wire_bytes < per_entry.throughput.wire_bytes,
            "batching must cut wire bytes: {} vs {}",
            adaptive.throughput,
            per_entry.throughput
        );
    }

    #[test]
    fn epoch_runner_streams_and_adaptive_flush_saves_frames() {
        let cfg = oracle_config(4, 2.0);
        let feed = EpochFeed::new(MultiAssetConfig::synthetic(2), 3);
        let epoch_cfg = EpochConfig::new(6, 2, 2, 4);
        let step =
            run_epoch_delphi(&cfg, &feed, epoch_cfg, FlushPolicy::PerStep, Topology::lan(4), 1);
        let adpt =
            run_epoch_delphi(&cfg, &feed, epoch_cfg, FlushPolicy::adaptive(), Topology::lan(4), 1);
        for p in [&step, &adpt] {
            assert_eq!(p.throughput.agreements, 12, "6 epochs x 2 assets");
            assert!(p.worst_spread <= cfg.epsilon() + 1e-9, "spread {}", p.worst_spread);
            assert_eq!(p.stale_epochs, 0);
            assert!(p.peak_resident <= 4, "live-window bound");
            assert!(p.throughput.agreements_per_sec() > 0.0);
        }
        assert!(
            adpt.throughput.frames_per_agreement() < step.throughput.frames_per_agreement(),
            "adaptive {} vs per-step {} frames/agreement",
            adpt.throughput.frames_per_agreement(),
            step.throughput.frames_per_agreement()
        );
    }

    #[test]
    fn baseline_runners_smoke() {
        let inputs = spread_inputs(4, 40_000.0, 20.0);
        let a = run_aad(4, Topology::lan(4), &inputs, 6, 1);
        assert!(a.runtime_ms > 0.0);
        let c = run_acs(4, Topology::lan(4), &inputs, 1);
        assert!(c.runtime_ms > 0.0);
        assert_eq!(c.spread, 0.0, "ACS reaches exact agreement");
    }
}
