//! The traced pass: the per-layer metrics, the budget and the span file.
//!
//! Separate from the timed runs. An untraced reference run in a child
//! gives the throughput to compare against; the same stream then runs
//! again with spans, marks and the sampler on; a short router replay gives
//! the sans-io view of a `tcp-*` stream; and the probes replay captured
//! bodies through each layer's public function on the then idle process.

use std::sync::Arc;
use std::time::Instant;

use crate::direct::{self, DirectRun};
use crate::json::Json;
use crate::procstat;
use crate::run::{self, Measured, Opts, Outcome};
use crate::spec::{Workload, PER_LAYER};
use crate::stats;
use crate::sut::{self, ApiCosts, CodecCosts, Inputs, RuntimeCosts, Shape};
use crate::tcp::{NetTotals, TcpRun};
use crate::trace::Tracer;

/// Stream length of the router replay that stands in for the `core`
/// layer of a `tcp-*` workload, and (scaled down for large `n`) of the
/// simulator's prediction.
const REPLAY_EPOCHS: u32 = 30;

/// The measured per-layer values, by name.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    stats::sort(&mut v);
    v
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    stats::percentile(sorted, p).unwrap_or(0.0)
}

/// Throughput of the same stream with tracing off, run in a child.
fn reference_rate(w: &Workload, opts: &Opts, epochs: u32) -> Result<f64, String> {
    let mut args = run::base_args(w, opts);
    args.extend(["--trace", "0", "--epochs", &epochs.to_string()].map(String::from));
    run::child(&args)?
        .get("metrics")
        .and_then(|m| m.get("agreements_per_s")?.get("value")?.as_f64())
        .ok_or_else(|| "the reference run reported no throughput".to_string())
}

/// What the budget multiplies: counts per agreement of the measured run.
struct Counts {
    agreements: f64,
    /// Frames on `tcp`, routed envelopes on `direct`; entries likewise.
    frames: f64,
    entries: f64,
    net: NetTotals,
    live_nodes: f64,
}

/// `core`: router spans around `Protocol::{start, on_message}`. Returns
/// the busy time per agreement the budget charges to primitives + core.
fn core_layer(out: &mut Layers, core: &DirectRun, w: &Workload, c: &Counts, spread: f64) -> f64 {
    let agreements = f64::from(core.shape.epochs) * f64::from(w.basket);
    // Only the live share of the nodes does this work on a crash run.
    let busy_us = core.busy_ns as f64 / 1e3 / agreements * c.live_nodes / w.n as f64;
    out.put("core.service_busy_us_per_agreement", busy_us);
    let call_us = sorted(core.call_ns.iter().map(|ns| ns / 1e3));
    out.put("core.on_message_p50_us", percentile(&call_us, 50.0));
    out.put("core.on_message_p99_us", percentile(&call_us, 99.0));
    out.put("core.calls_per_agreement", core.total.calls as f64 / agreements);
    out.put("core.output_spread_max", spread);
    busy_us
}

fn transport_layers(
    out: &mut Layers,
    tcp: Option<&TcpRun>,
    c: &Counts,
    codec: &CodecCosts,
    rt: &RuntimeCosts,
) {
    let net = &c.net;
    out.put("runtime.mpsc_hop_us", rt.mpsc_hop_us);
    out.put("runtime.tcp_hop_us", rt.tcp_hop_us);
    out.put("runtime.mpsc_hop_cpu_us", rt.mpsc_hop_cpu_us);
    out.put("runtime.tcp_hop_cpu_us", rt.tcp_hop_cpu_us);
    let threads_peak = tcp
        .and_then(|r| r.samples.iter().map(|s| s.threads).max_by(f64::total_cmp))
        .or_else(procstat::threads);
    out.put("runtime.threads_peak", threads_peak.unwrap_or(0.0));

    out.put("crypto.hmac_ns_per_byte", codec.hmac_ns_per_byte);
    out.put("crypto.tag_us_per_frame", codec.tag_us_per_frame);
    out.put("crypto.macs_per_agreement", net.mac_ops as f64 / c.agreements);

    let offered = (net.sent_frames + net.dropped_egress) as f64;
    let overhead = codec.frame_overhead_bytes * c.frames + codec.entry_overhead_bytes * c.entries;
    out.put("net.frames_per_agreement", c.frames / c.agreements);
    out.put("net.entries_per_frame", ratio(c.entries, c.frames));
    out.put("net.frame_overhead_share", ratio(overhead, net.sent_bytes as f64));
    out.put("net.encode_us_per_frame", codec.encode_us_per_frame);
    out.put("net.decode_us_per_frame", codec.decode_us_per_frame);
    out.put("net.dropped_egress_share", ratio(net.dropped_egress as f64, offered));
    out.put("net.dropped_frames", net.dropped_frames as f64);
    out.put("net.late_entries_share", ratio(net.late_entries as f64, net.recv_entries as f64));
    out.put("net.buffer_reuse_share", ratio(net.buffer_reuses as f64, offered));
    out.put("net.teardown_s", tcp.map_or(0.0, |r| r.teardown_s));

    let epoch_stats = tcp.map(|r| r.epoch_stats.as_slice()).unwrap_or_default();
    let sum = |f: fn(&sut::EpochStats) -> u64| epoch_stats.iter().map(f).sum::<u64>() as f64;
    let peak = epoch_stats.iter().map(|s| s.peak_resident).max().unwrap_or(0);
    out.put("primitives.batch_decode_ns_per_entry", codec.batch_decode_ns_per_entry);
    out.put("primitives.entries_per_agreement", c.entries / c.agreements);
    out.put("primitives.peak_resident_epochs", peak as f64);
    out.put(
        "primitives.replayed_entries_share",
        ratio(sum(|s| s.replayed_entries), net.recv_entries as f64),
    );
    out.put("primitives.early_dropped", sum(|s| s.early_dropped));
    out.put("primitives.stale_epochs", sum(|s| s.stale_epochs));
    out.put("core.bundle_parse_ns", codec.bundle_parse_ns);
    out.put("core.bundle_bytes_p50", codec.bundle_bytes_p50);
}

/// `api`: idle unit costs, and what the readers of `tcp-serve-k4` saw.
/// Returns the served reads per second.
fn api_layer(out: &mut Layers, m: &Measured, api: &ApiCosts) -> f64 {
    out.put("api.attest_us_per_slot", api.attest_us_per_slot);
    out.put("api.publish_us", api.publish_us);
    out.put("api.latest_read_ns", api.latest_read_ns);
    out.put("api.hub_broadcast_us", api.hub_broadcast_us);
    out.put("api.http_get_idle_us", api.http_get_idle_us);

    let tcp = m.tcp.as_ref();
    let readers = tcp.map(|r| r.readers.as_slice()).unwrap_or_default();
    let read_ms = sorted(readers.iter().flat_map(|r| r.latency_ms.iter().copied()));
    let late_ms = sorted(readers.iter().flat_map(|r| r.late_ms.iter().copied()));
    // Readers run from the first value to the last.
    let stream_s = tcp.map_or(0.0, |r| {
        let first = r.all_done_ns.first().copied().unwrap_or(0);
        r.all_done_ns.last().copied().unwrap_or(0).saturating_sub(first) as f64 / 1e9
    });
    let reads_per_s = ratio(read_ms.len() as f64, stream_s);
    out.put("api.reads_per_s", reads_per_s);
    out.put("api.read_p50_ms", percentile(&read_ms, 50.0));
    out.put("api.read_p99_ms", percentile(&read_ms, 99.0));
    out.put("api.read_failed_share", ratio(m.reads_failed as f64, m.reads_attempted as f64));
    out.put("api.reader_late_p99_ms", percentile(&late_ms, 99.0));
    let stream = tcp.and_then(|r| r.stream.as_ref());
    let kicked = tcp.map_or(0, |r| r.kicked) + stream.map_or(0, |s| s.kicked);
    out.put("api.stream_updates", stream.map_or(0.0, |s| s.updates as f64));
    out.put("api.kicked_subscribers", kicked as f64);
    reads_per_s
}

fn cluster_layer(out: &mut Layers, m: &Measured) {
    let mut skew_ms: Vec<f64> = Vec::new();
    if let Some(run) = &m.tcp {
        for e in m.warmup as usize..m.epochs as usize {
            let times = run.decided_ns.iter().filter_map(|d| d.get(e).copied());
            if let (Some(lo), Some(hi)) = (times.clone().min(), times.max()) {
                skew_ms.push((hi - lo) as f64 / 1e6);
            }
        }
    }
    out.put("cluster.decide_skew_p50_ms", stats::median(&skew_ms).unwrap_or(0.0));
    out.put("cluster.decide_p95_ms", percentile(&m.decide_ms, 95.0));
    out.put("cluster.decide_p99_ms", percentile(&m.decide_ms, 99.0));
    out.put("cluster.decide_samples", m.decide_ms.len() as f64);
    out.put("cluster.failed_epoch_share", ratio(m.gate.failed as f64, m.gate.attempted as f64));
    out.put("cluster.epochs", f64::from(m.epochs));
}

/// Per node and epoch: a `node_epoch` span from spawn to the last asset,
/// with one `asset` child per hub delivery; reader requests as `read`
/// spans in the trace of the epoch they were served.
fn record_tcp_spans(tracer: &mut Tracer, run: &TcpRun, basket: usize) {
    for (slot, &node) in run.live.iter().enumerate() {
        let spawns = run.spawn_ns.get(slot).map(Vec::as_slice).unwrap_or_default();
        let assets = run.asset_ns.get(slot).map(Vec::as_slice).unwrap_or_default();
        for (epoch, (&spawn, marks)) in spawns.iter().zip(assets.chunks(basket)).enumerate() {
            let end = marks.last().copied().unwrap_or(spawn);
            let root = tracer.push("node_epoch", epoch as u32, node as u16, 0, spawn, end);
            for &mark in marks {
                tracer.push("asset", epoch as u32, node as u16, root, spawn, mark);
            }
        }
    }
    for log in &run.readers {
        for &(due, done, epoch) in &log.spans {
            tracer.push("read", epoch, 0, 0, due, done);
        }
    }
}

pub fn traced_pass(w: &Workload, opts: &Opts, epochs: u32) -> Result<Outcome, String> {
    let reference_rate = reference_rate(w, opts, epochs)?;
    let mut tracer = Tracer::default();
    let m = run::measure(w, opts, epochs, Some(&mut tracer))?;

    // The sans-io view of this stream shape: the traced run itself on
    // `direct`, a short per-step router replay of the shape otherwise.
    let mut replay_tracer = Tracer::default();
    let replay = match m.direct {
        Some(_) => None,
        None => {
            let inputs = Arc::new(Inputs::generate(opts.seed, w.n, w.basket, REPLAY_EPOCHS));
            let shape = Shape { adaptive: false, ..w.shape(REPLAY_EPOCHS) };
            Some(direct::run(shape, &inputs, Instant::now(), Some(&mut replay_tracer))?)
        }
    };
    let core = m.direct.as_ref().or(replay.as_ref()).ok_or("no sans-io run to read core from")?;

    // Transport counts: the real ones on `tcp`, the router's on `direct`.
    let net: NetTotals = m.tcp.as_ref().map(|r| r.net_total).unwrap_or_default();
    let (frames, entries) = match &m.direct {
        Some(run) => (run.total.messages as f64, run.entries as f64),
        None => (net.sent_frames as f64, net.sent_entries as f64),
    };
    let counts = Counts {
        agreements: f64::from(m.epochs) * f64::from(w.basket),
        frames,
        entries,
        net,
        live_nodes: w.live_nodes().len() as f64,
    };
    let per_frame = ratio(entries, frames).round().max(1.0) as usize;
    let codec = sut::codec_costs(&core.captured, w.n, w.vector, per_frame);
    let runtime = sut::runtime_costs()?;
    let api = sut::api_costs(w.n, w.basket)?;

    let mut out = Layers::default();
    let busy_us = core_layer(&mut out, core, w, &counts, m.gate.spread_max);
    transport_layers(&mut out, m.tcp.as_ref(), &counts, &codec, &runtime);
    let reads_per_s = api_layer(&mut out, &m, &api);
    cluster_layer(&mut out, &m);

    // The simulator's prediction for this shape, all nodes honest.
    let sim_epochs = (REPLAY_EPOCHS * 4 / w.n as u32).max(8).min(m.epochs);
    let sim_inputs = Arc::new(Inputs::generate(opts.seed, w.n, w.basket, sim_epochs));
    let sim = sut::simulate(w.shape(sim_epochs), &sim_inputs)?;
    out.put("sim.wall_ms_per_agreement", sim.wall_ms_per_agreement);
    out.put("sim.predicted_agreements_per_s", sim.agreements_per_s);
    out.put("sim.prediction_ratio", ratio(sim.agreements_per_s, m.agreements_per_s()));

    // Budget: count × unit cost, as a share of the CPU an agreement costs.
    // A frame is charged two blocking hops: the socket (writer → the
    // reader task wakes) and one channel (reader → the dispatch worker
    // wakes). The other channel sends on its path mostly find their
    // receiver already running under load; what that leaves out, and all
    // the harness does itself, lands in the residual.
    let on_tcp = if m.tcp.is_some() { 1.0 } else { 0.0 };
    let frames_pa = frames / counts.agreements * on_tcp;
    let codec_us = codec.encode_us_per_frame + codec.decode_us_per_frame;
    let publish_us = api.attest_us_per_slot + api.publish_us + api.hub_broadcast_us;
    let shares = [
        ("budget.runtime_share", frames_pa * (runtime.tcp_hop_cpu_us + runtime.mpsc_hop_cpu_us)),
        ("budget.crypto_share", net.mac_ops as f64 / counts.agreements * codec.tag_us_per_frame),
        // Encode and decode each include one tag; crypto already has it.
        ("budget.net_share", frames_pa * (codec_us - 2.0 * codec.tag_us_per_frame).max(0.0)),
        ("budget.primitives_core_share", busy_us),
        (
            "budget.api_share",
            on_tcp
                * (counts.live_nodes * publish_us
                    + ratio(reads_per_s, m.agreements_per_s()) * api.http_get_idle_us),
        ),
    ]
    .map(|(name, us)| (name, ratio(us, m.cpu_ms_per_agreement() * 1e3)));
    for (name, share) in shares {
        out.put(name, share);
    }
    out.put("budget.residual_share", 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>());

    if let Some(run) = &m.tcp {
        record_tcp_spans(&mut tracer, run, usize::from(w.basket));
    }
    tracer.wrap_epochs();
    out.put("trace.overhead_share", 1.0 - ratio(m.agreements_per_s(), reference_rate));
    out.put("trace.spans", tracer.spans.len() as f64 + tracer.dropped as f64);
    out.put("trace.cpu_ms_per_agreement", m.cpu_ms_per_agreement());
    if let Some(path) = &opts.trace_out {
        let samples = m.tcp.as_ref().map(|r| r.samples.as_slice()).unwrap_or_default();
        let lines: Vec<Json> = samples.iter().map(|s| s.to_json()).collect();
        tracer.write_jsonl(path, &lines).map_err(|e| format!("cannot write {path}: {e}"))?;
        // The router replay runs on its own clock: its spans get a file
        // of their own beside the run's.
        if replay.is_some() {
            replay_tracer.wrap_epochs();
            let path = format!("{path}.replay");
            replay_tracer
                .write_jsonl(&path, &[])
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }

    let mut outcome = run::outcome_of(&m);
    outcome.metrics = run::declared(PER_LAYER, &out.0)?;
    outcome.notes.push(format!(
        "{} epochs traced at {:.1} agreements/s against {reference_rate:.1} untraced",
        m.epochs,
        m.agreements_per_s()
    ));
    Ok(outcome)
}
