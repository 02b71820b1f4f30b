//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` §3 for the index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results). This library
//! holds what they share: protocol runners over configured testbeds, the
//! paper's parameter presets, and plain-text table/CSV rendering.
//!
//! Absolute numbers are not expected to match the paper (its testbeds
//! were real EC2/Raspberry-Pi deployments; ours is a calibrated
//! simulator) — the *shapes* are: who wins, by what factor, and where
//! the crossovers sit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod regression;

use delphi_baselines::{AadNode, AcsNode};
use delphi_core::{DelphiConfig, DelphiNode, OracleService};
use delphi_primitives::{
    EpochConfig, EpochEvent, EpochMux, EpochOutcome, EpochProtocol, FlushPolicy, NodeId, Protocol,
};
use delphi_sim::{
    run_sharded, BatchSavings, EpochThroughput, RunReport, SimJob, Simulation, Topology,
};
use delphi_workloads::{EpochFeed, MultiAssetConfig, MultiAssetFeed};

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
    fn from_report(n: usize, report: &RunReport<f64>) -> BenchPoint {
        let outs: Vec<f64> = report.honest_outputs().copied().collect();
        let spread = if outs.is_empty() {
            f64::NAN
        } else {
            outs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - outs.iter().copied().fold(f64::INFINITY, f64::min)
        };
        BenchPoint {
            n,
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

/// Runs Delphi on `topology` with the given inputs.
pub fn run_delphi(cfg: &DelphiConfig, topology: Topology, inputs: &[f64], seed: u64) -> BenchPoint {
    let n = cfg.n();
    assert_eq!(inputs.len(), n);
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let report = Simulation::new(topology).seed(seed).run(nodes);
    assert!(report.all_honest_finished(), "Delphi run stalled: {:?}", report.stop);
    BenchPoint::from_report(n, &report)
}

/// Runs the Abraham et al. baseline with `rounds = ⌈log2(Δ/ε)⌉`.
pub fn run_aad(n: usize, topology: Topology, inputs: &[f64], rounds: u16, seed: u64) -> BenchPoint {
    let t = (n - 1) / 3;
    let nodes = NodeId::all(n)
        .map(|id| AadNode::new(id, n, t, inputs[id.index()], rounds).boxed())
        .collect();
    let report = Simulation::new(topology).seed(seed).run(nodes);
    assert!(report.all_honest_finished(), "AAD run stalled: {:?}", report.stop);
    BenchPoint::from_report(n, &report)
}

/// Runs the FIN-style ACS baseline.
pub fn run_acs(n: usize, topology: Topology, inputs: &[f64], seed: u64) -> BenchPoint {
    let t = (n - 1) / 3;
    let nodes = NodeId::all(n)
        .map(|id| AcsNode::new(id, n, t, inputs[id.index()], b"bench-coin").boxed())
        .collect();
    let report = Simulation::new(topology).seed(seed).run(nodes);
    assert!(report.all_honest_finished(), "ACS run stalled: {:?}", report.stop);
    BenchPoint::from_report(n, &report)
}

/// One asset's outcome inside a multi-asset run.
#[derive(Clone, Debug)]
pub struct AssetPoint {
    /// Asset name (instance-id order of the basket).
    pub name: String,
    /// Honest-output spread of the *batched* (multiplexed) run.
    pub spread: f64,
    /// Simulated latency of the asset's own unbatched run, milliseconds.
    pub runtime_ms: f64,
}

/// Result of a multi-asset Delphi run: per-asset agreement quality plus
/// the transport cost of batched (one multiplexed mesh) vs unbatched (one
/// mesh per asset) deployment.
#[derive(Clone, Debug)]
pub struct MultiAssetPoint {
    /// System size.
    pub n: usize,
    /// Per-asset outcomes, in basket order.
    pub per_asset: Vec<AssetPoint>,
    /// Batched-vs-unbatched frame/byte comparison.
    pub savings: BatchSavings,
}

/// Runs a multi-asset Delphi minute twice over `topology` — once as
/// independent per-asset meshes (sharded across `shards` worker threads)
/// and once multiplexed over a single mesh as a one-epoch stream under
/// adaptive flushing — and reports per-asset agreement plus the batching
/// savings.
///
/// Every asset uses `cfg`'s agreement parameters; inputs come from one
/// minute of the basket's feeds.
///
/// # Panics
///
/// Panics if any run stalls or an asset misses ε-agreement bounds checked
/// by the underlying protocols.
pub fn run_multi_asset_delphi(
    cfg: &DelphiConfig,
    basket: MultiAssetConfig,
    topology: Topology,
    seed: u64,
    shards: usize,
) -> MultiAssetPoint {
    let n = cfg.n();
    let mut feed = MultiAssetFeed::new(basket, seed);
    let names: Vec<String> = feed.names().map(str::to_string).collect();
    let minute = feed.next_minute(n);
    let inputs: Vec<Vec<f64>> = minute.into_iter().map(|a| a.inputs).collect();

    // Unbatched: one simulation per asset, sharded across worker threads.
    let jobs: Vec<SimJob<f64>> = inputs
        .iter()
        .enumerate()
        .map(|(a, asset_inputs)| {
            let cfg = cfg.clone();
            let asset_inputs = asset_inputs.clone();
            SimJob::new(Simulation::new(topology.clone()).seed(seed + a as u64), move || {
                NodeId::all(cfg.n())
                    .map(|id| DelphiNode::new(cfg.clone(), id, asset_inputs[id.index()]).boxed())
                    .collect()
            })
        })
        .collect();
    let unbatched = run_sharded(jobs, shards);
    for (report, name) in unbatched.iter().zip(&names) {
        assert!(report.all_honest_finished(), "unbatched {name} stalled: {:?}", report.stop);
    }

    // Batched: all assets multiplexed over one mesh as a one-epoch stream
    // under the adaptive flush policy — the deployment's own batching —
    // with the simulator's tick standing in for the TCP runner's flushes
    // (a paced model: see `Simulation::tick_interval_ns`).
    let flush = FlushPolicy::adaptive();
    let mux_nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>> = NodeId::all(n)
        .map(|id| {
            let instances: Vec<DelphiNode> = inputs
                .iter()
                .map(|asset_inputs| DelphiNode::new(cfg.clone(), id, asset_inputs[id.index()]))
                .collect();
            Box::new(EpochProtocol::new(EpochMux::one_epoch(instances), flush))
                as Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>
        })
        .collect();
    let mut sim = Simulation::new(topology).seed(seed);
    if let FlushPolicy::Adaptive { max_delay, .. } = flush {
        sim = sim.tick_interval_ns(max_delay.as_nanos().max(1) as u64);
    }
    let batched = sim.run(mux_nodes);
    assert!(batched.all_honest_finished(), "batched multi-asset run stalled: {:?}", batched.stop);
    let batched_outputs: Vec<&[f64]> = batched
        .honest_outputs()
        .map(|events| match events.first().map(|e| &e.outcome) {
            Some(EpochOutcome::Agreed(values)) => &values[..],
            _ => &[],
        })
        .collect();
    assert!(
        batched_outputs.iter().all(|v| v.len() == inputs.len()),
        "batched multi-asset run resolved without agreeing"
    );

    let savings = BatchSavings::compare(unbatched.iter().map(|r| &r.metrics), &batched.metrics);
    let per_asset = names
        .into_iter()
        .enumerate()
        .map(|(a, name)| {
            let outs: Vec<f64> = batched_outputs.iter().map(|v| v[a]).collect();
            let spread = outs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - outs.iter().copied().fold(f64::INFINITY, f64::min);
            AssetPoint {
                name,
                spread,
                runtime_ms: unbatched[a].completion_ms().unwrap_or(f64::NAN),
            }
        })
        .collect();
    MultiAssetPoint { n, per_asset, savings }
}

/// One measured epoch-stream execution: sustained throughput plus
/// stream-quality facts the acceptance checks assert on.
#[derive(Clone, Copy, Debug)]
pub struct EpochSimPoint {
    /// Throughput summary (agreements/s, bytes and frames per agreement).
    pub throughput: EpochThroughput,
    /// Worst per-(epoch, asset) output spread across honest nodes.
    pub worst_spread: f64,
    /// Epoch-batch entries flushed by all nodes (envelope count — equal
    /// across flush policies for schedule-independent workloads).
    pub sent_entries: u64,
    /// Most epochs any node held resident at once (live-window bound).
    pub peak_resident: usize,
    /// Epochs any node skipped (0 in honest runs).
    pub stale_epochs: u64,
    /// Protocol rounds advanced across all nodes (from the shared round
    /// probe): a scalar basket pays `(l_max+1)·r_max` per *asset* per
    /// epoch, a vector basket pays it once per epoch.
    pub rounds: u64,
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

/// Mirror of one node's sans-io epoch counters, updated on every protocol
/// call so the numbers survive the simulator consuming the node.
#[derive(Clone, Copy, Debug, Default)]
struct ProbeData {
    stats: delphi_primitives::EpochStats,
    entries: u64,
}

/// Oracle-service wrapper exporting its counters through a shared cell.
struct ProbedOracle {
    inner: OracleService,
    probe: std::sync::Arc<std::sync::Mutex<ProbeData>>,
}

impl ProbedOracle {
    fn sync(&self) {
        *self.probe.lock().expect("probe") =
            ProbeData { stats: self.inner.stats(), entries: self.inner.sent_entries() };
    }
}

impl Protocol for ProbedOracle {
    type Output = Vec<delphi_primitives::EpochEvent<f64>>;

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
/// in flight under a `window`-epoch live window.
///
/// With an adaptive `flush` policy the simulation's tick interval is the
/// policy's `max_delay` (per-step runs need no tick source).
///
/// # Panics
///
/// Panics if any honest node fails to complete the stream — the run is
/// the acceptance gate for the epoch machinery, not a best-effort sweep —
/// or if `epoch_cfg` disagrees with the feed's basket size.
pub fn run_epoch_delphi(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    epoch_cfg: EpochConfig,
    flush: FlushPolicy,
    topology: Topology,
    seed: u64,
) -> EpochSimPoint {
    run_epoch_delphi_sharded(cfg, feed, epoch_cfg, flush, topology, seed, 1)
}

/// [`run_epoch_delphi`] with a `recv_shards`-way sharded receive path:
/// senders flush per `(destination, shard)` with tagged envelopes and the
/// simulator runs one receive CPU lane per shard, modelling the TCP
/// runtime's sharded dispatch (`RunOptions::recv_shards`) — the
/// fig_throughput shard sweep runs through here.
///
/// # Panics
///
/// As [`run_epoch_delphi`], plus `recv_shards == 0`.
pub fn run_epoch_delphi_sharded(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    epoch_cfg: EpochConfig,
    flush: FlushPolicy,
    topology: Topology,
    seed: u64,
    recv_shards: usize,
) -> EpochSimPoint {
    run_epoch_delphi_full_sharded(cfg, feed, epoch_cfg, flush, topology, seed, recv_shards, None)
}

/// [`run_epoch_delphi_sharded`] with per-node *send* CPU lanes as well:
/// `send_shards = Some(k)` adds `k` egress lanes per node, each costed on
/// the encode bytes of the envelopes whose shard class maps to it —
/// modelling the TCP runtime's egress, where every dispatch worker
/// flushes its own shard class (so `k == recv_shards` is the placement
/// `delphi-net` runs). `None` leaves sends serial on the link,
/// exactly as [`run_epoch_delphi_sharded`] (the legacy sweep numbers).
///
/// # Panics
///
/// As [`run_epoch_delphi_sharded`], plus `send_shards == Some(0)`.
#[allow(clippy::too_many_arguments)]
pub fn run_epoch_delphi_full_sharded(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    epoch_cfg: EpochConfig,
    flush: FlushPolicy,
    topology: Topology,
    seed: u64,
    recv_shards: usize,
    send_shards: Option<usize>,
) -> EpochSimPoint {
    run_epoch_stream(cfg, feed, epoch_cfg, flush, topology, seed, recv_shards, send_shards, false)
}

/// [`run_epoch_delphi`] with every epoch's basket as ONE vector-valued
/// agreement instance (`ServiceBuilder::vector_baskets`): a single bundle
/// exchange and one quorum walk per round for the whole basket. Events
/// are flattened to the per-asset shape, so throughput and spread are
/// computed identically — the comparison the vector-vs-scalar fig sweep
/// rides on.
///
/// # Panics
///
/// As [`run_epoch_delphi`].
pub fn run_epoch_vector_delphi(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    epoch_cfg: EpochConfig,
    flush: FlushPolicy,
    topology: Topology,
    seed: u64,
) -> EpochSimPoint {
    run_epoch_stream(cfg, feed, epoch_cfg, flush, topology, seed, 1, None, true)
}

/// The epoch runners' one body: [`run_epoch_delphi_full_sharded`], with
/// `vector` picking how a basket maps onto instances.
#[allow(clippy::too_many_arguments)]
fn run_epoch_stream(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    epoch_cfg: EpochConfig,
    flush: FlushPolicy,
    topology: Topology,
    seed: u64,
    recv_shards: usize,
    send_shards: Option<usize>,
    vector: bool,
) -> EpochSimPoint {
    let n = cfg.n();
    let assets = feed.assets();
    assert_eq!(usize::from(epoch_cfg.assets), assets, "epoch config vs basket size");
    let mut probes = Vec::with_capacity(n);
    let mut round_probes = Vec::with_capacity(n);
    let nodes: Vec<Box<dyn Protocol<Output = Vec<delphi_primitives::EpochEvent<f64>>>>> =
        NodeId::all(n)
            .map(|id| {
                let rounds = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
                round_probes.push(rounds.clone());
                let inner = OracleService::from_parts(
                    cfg.clone(),
                    id,
                    epoch_cfg,
                    flush,
                    recv_shards,
                    vector,
                    feed_price_source(feed.clone(), id, n),
                    Some(rounds),
                );
                let probe = std::sync::Arc::new(std::sync::Mutex::new(ProbeData::default()));
                probes.push(probe.clone());
                Box::new(ProbedOracle { inner, probe })
                    as Box<dyn Protocol<Output = Vec<delphi_primitives::EpochEvent<f64>>>>
            })
            .collect();
    let mut sim = Simulation::new(topology).seed(seed).recv_shards(recv_shards);
    if let Some(lanes) = send_shards {
        sim = sim.send_shards(lanes);
    }
    if let FlushPolicy::Adaptive { max_delay, .. } = flush {
        sim = sim.tick_interval_ns(max_delay.as_nanos().max(1) as u64);
    }
    let report = sim.run(nodes);
    assert!(
        report.all_honest_finished(),
        "epoch stream stalled ({:?}): {epoch_cfg:?}",
        report.stop
    );
    measure_epoch_run(&report, epoch_cfg.epochs, assets, &probes, &round_probes)
}

/// Shared tail of the epoch runners: per-(epoch, asset) spread across
/// honest nodes plus the probed counters, folded into one point.
fn measure_epoch_run(
    report: &RunReport<Vec<delphi_primitives::EpochEvent<f64>>>,
    epochs: u32,
    assets: usize,
    probes: &[std::sync::Arc<std::sync::Mutex<ProbeData>>],
    round_probes: &[std::sync::Arc<std::sync::atomic::AtomicU64>],
) -> EpochSimPoint {
    let streams: Vec<&Vec<delphi_primitives::EpochEvent<f64>>> = report.honest_outputs().collect();
    let mut worst_spread = 0.0f64;
    for e in 0..epochs as usize {
        for a in 0..assets {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for events in &streams {
                if let EpochOutcome::Agreed(values) = &events[e].outcome {
                    lo = lo.min(values[a]);
                    hi = hi.max(values[a]);
                }
            }
            if lo.is_finite() {
                worst_spread = worst_spread.max(hi - lo);
            }
        }
    }
    let data: Vec<ProbeData> = probes.iter().map(|p| *p.lock().expect("probe")).collect();
    EpochSimPoint {
        throughput: EpochThroughput::from_report(report),
        worst_spread,
        sent_entries: data.iter().map(|d| d.entries).sum(),
        peak_resident: data.iter().map(|d| d.stats.peak_resident).max().unwrap_or(0),
        stale_epochs: data.iter().map(|d| d.stats.stale_epochs).sum(),
        rounds: round_probes.iter().map(|r| r.load(std::sync::atomic::Ordering::Relaxed)).sum(),
    }
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
        let cfg = oracle_config(4, 10.0);
        let point =
            run_multi_asset_delphi(&cfg, MultiAssetConfig::synthetic(3), Topology::lan(4), 5, 2);
        assert_eq!(point.n, 4);
        assert_eq!(point.per_asset.len(), 3);
        for a in &point.per_asset {
            assert!(a.spread <= cfg.epsilon() + 1e-9, "{}: spread {}", a.name, a.spread);
            assert!(a.runtime_ms > 0.0);
        }
        assert!(
            point.savings.batched_msgs < point.savings.unbatched_msgs,
            "batching must cut frames: {}",
            point.savings
        );
        assert!(
            point.savings.batched_wire_bytes < point.savings.unbatched_wire_bytes,
            "batching must cut wire bytes: {}",
            point.savings
        );
    }

    #[test]
    fn epoch_runner_streams_and_adaptive_flush_saves_frames() {
        let cfg = oracle_config(4, 2.0);
        let feed = EpochFeed::new(MultiAssetConfig::synthetic(2), 3);
        let epoch_cfg = EpochConfig::new(6, 2, 2, 4, cfg.t());
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
