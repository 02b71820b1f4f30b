#![forbid(unsafe_code)]
//! **Streaming-oracle throughput figure**: sustained agreements/sec and
//! wire bytes/agreement for a long-lived epoch pipeline, swept over
//! basket size × epoch rate (pipeline depth), with adaptive batch
//! flushing compared against per-step flushing.
//!
//! This is the "heavy traffic" deployment shape (DORA, arXiv:2305.03903):
//! the cluster agrees on a fresh k-asset basket epoch after epoch instead
//! of running one agreement and stopping.
//!
//! ```text
//! cargo run --release -p delphi-bench --bin fig_throughput [--quick]
//! cargo run --release -p delphi-bench --bin fig_throughput -- --cluster cluster.toml
//! ```
//!
//! Simulation mode sweeps deterministically (simulated clock, fixed
//! seeds), so the numbers are machine-independent; with `BENCH_JSON=<file>`
//! each cell emits gate-compatible records (`ns_per_agreement`,
//! `bytes_per_agreement`, `frames_per_agreement`) that `bench-gate`
//! compares against the checked-in `BENCH_fig.json`.
//!
//! Cluster mode (`--cluster <toml>`, build `delphi-node` first) runs the
//! epoch stream twice over real sockets and processes — per-step and
//! adaptive flushing — and reports measured agreements/sec, wire
//! bytes/agreement, and frames/agreement.

use delphi_bench::cluster::{cluster_flag, judge_cluster, run_cluster, summarize, ClusterRunSpec};
use delphi_bench::{emit_bench_json, oracle_config, quick_mode, run_epoch_delphi, TextTable};
use delphi_primitives::{EpochConfig, FlushPolicy};
use delphi_sim::Topology;
use delphi_workloads::{EpochFeed, MultiAssetConfig};

/// The adaptive policy under test; its `max_delay` doubles as the
/// simulator's tick interval.
const ADAPTIVE: FlushPolicy = FlushPolicy::Adaptive {
    max_entries: 16,
    max_bytes: 8 * 1024,
    max_delay: std::time::Duration::from_millis(1),
};

fn run_cluster_mode(config: std::path::PathBuf) {
    let epochs = 30u32;
    let assets = 4u16;
    println!(
        "== Streaming-oracle throughput (cluster mode): {epochs} epochs x {assets} assets over \
         real sockets, per-step vs adaptive flushing ==\n"
    );
    let mut measured = Vec::new();
    for adaptive in [false, true] {
        let label = if adaptive { "adaptive" } else { "per-step" };
        let mut spec = ClusterRunSpec::new(config.clone());
        spec.assets = assets;
        spec.epochs = epochs;
        spec.depth = 2;
        spec.window = 6;
        spec.adaptive = adaptive;
        spec.deadline_ms = 180_000;
        let outcome = match run_cluster(&spec) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("fig_throughput: {label} cluster run failed: {e}");
                std::process::exit(1);
            }
        };
        let verdict = judge_cluster(&outcome, &spec);
        println!("{label:>9}: {}", summarize(&outcome, &spec, &verdict));
        if let Err(why) = verdict {
            eprintln!("fig_throughput: {label}: epoch stream failed the judge: {why}");
            std::process::exit(1);
        }
        measured.push(outcome.total_stats());
    }
    let (per_step, adaptive) = (measured[0], measured[1]);
    // Independent asynchronous executions: compare the
    // schedule-independent per-entry frame cost.
    let per = |v: u64, s: &delphi_net::NetStats| v as f64 / s.sent_entries as f64;
    println!(
        "\nframes per envelope: per-step {:.3} vs adaptive {:.3} (bytes/envelope {:.1} vs {:.1})",
        per(per_step.sent_frames, &per_step),
        per(adaptive.sent_frames, &adaptive),
        per(per_step.sent_bytes, &per_step),
        per(adaptive.sent_bytes, &adaptive),
    );
    assert!(
        adaptive.sent_frames * per_step.sent_entries < per_step.sent_frames * adaptive.sent_entries,
        "adaptive flushing must cut frames per envelope over real sockets"
    );
}

fn main() {
    if let Some(config) = cluster_flag() {
        run_cluster_mode(config);
        return;
    }
    let quick = quick_mode();
    let n = 4;
    let epochs: u32 = if quick { 12 } else { 30 };
    let baskets: &[usize] = if quick { &[4] } else { &[1, 4, 8] };
    let depths: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let cfg = oracle_config(n, 2.0);
    println!(
        "== Streaming-oracle throughput: n = {n}, {epochs} epochs, basket size x pipeline depth, \
         per-step vs adaptive flushing (simulated geo testbed) ==\n"
    );

    let mut table = TextTable::new(&[
        "assets",
        "depth",
        "agr/s step",
        "agr/s adpt",
        "B/agr step",
        "B/agr adpt",
        "frames/agr step",
        "frames/agr adpt",
    ]);
    let mut headline = None;
    for &k in baskets {
        let feed = EpochFeed::new(MultiAssetConfig::synthetic(k), 7);
        for &depth in depths {
            let window = depth + 4;
            let seed = 7_000 + (k * 10 + depth) as u64;
            let epoch_cfg = EpochConfig::new(epochs, k as u16, depth, window);
            let step = run_epoch_delphi(
                &cfg,
                &feed,
                epoch_cfg,
                FlushPolicy::PerStep,
                Topology::aws_geo(n),
                seed,
            );
            let adpt =
                run_epoch_delphi(&cfg, &feed, epoch_cfg, ADAPTIVE, Topology::aws_geo(n), seed);
            for (label, p) in [("step", &step), ("adaptive", &adpt)] {
                assert_eq!(p.stale_epochs, 0, "honest sweep must not skip epochs ({label})");
                assert!(p.peak_resident <= window, "live-window bound violated ({label})");
                let id = |metric: &str| format!("fig_throughput/k{k}_d{depth}_{label}_{metric}");
                emit_bench_json(
                    &id("ns_per_agreement"),
                    p.throughput.sim_seconds * 1e9 / p.throughput.agreements as f64,
                );
                emit_bench_json(&id("bytes_per_agreement"), p.throughput.bytes_per_agreement());
                emit_bench_json(&id("frames_per_agreement"), p.throughput.frames_per_agreement());
            }
            table.row(&[
                k.to_string(),
                depth.to_string(),
                format!("{:.1}", step.throughput.agreements_per_sec()),
                format!("{:.1}", adpt.throughput.agreements_per_sec()),
                format!("{:.0}", step.throughput.bytes_per_agreement()),
                format!("{:.0}", adpt.throughput.bytes_per_agreement()),
                format!("{:.1}", step.throughput.frames_per_agreement()),
                format!("{:.1}", adpt.throughput.frames_per_agreement()),
            ]);
            if headline.is_none() && k >= 4 && depth >= 2 {
                headline = Some((step, adpt));
            }
            eprintln!("  k={k} depth={depth} done");
        }
    }
    println!("{}", table.render());
    println!("csv:\n{}", table.to_csv());

    // The CPU-bound CPS regime (slow per-message receive CPU,
    // sub-millisecond latency — the paper's Fig. 7-right regime) at
    // basket 8, where per-node dispatch is the throughput ceiling. (The
    // row ids keep their `s1` tag, so the recorded rows stay comparable.)
    let cps_epochs: u32 = if quick { 10 } else { 30 };
    let cps_depth: usize = if quick { 2 } else { 4 };
    let cps_basket = 8usize;
    println!(
        "\n== CPU-bound: n = {n}, {cps_epochs} epochs, basket {cps_basket}, depth {cps_depth}, \
         CPS testbed, adaptive flushing ==\n"
    );
    let cps_feed = EpochFeed::new(MultiAssetConfig::synthetic(cps_basket), 11);
    let cps_cfg = EpochConfig::new(cps_epochs, cps_basket as u16, cps_depth, cps_depth + 4);
    let point = run_epoch_delphi(&cfg, &cps_feed, cps_cfg, ADAPTIVE, Topology::cps(n, n), 9_001);
    assert_eq!(point.stale_epochs, 0, "honest CPS run must not skip epochs");
    let id = |metric: &str| format!("fig_throughput/k{cps_basket}_d{cps_depth}_s1_cps_{metric}");
    emit_bench_json(
        &id("ns_per_agreement"),
        point.throughput.sim_seconds * 1e9 / point.throughput.agreements as f64,
    );
    emit_bench_json(&id("bytes_per_agreement"), point.throughput.bytes_per_agreement());
    emit_bench_json(&id("frames_per_agreement"), point.throughput.frames_per_agreement());
    println!(
        "{:.1} agr/s, {:.0} B/agr, {:.1} frames/agr",
        point.throughput.agreements_per_sec(),
        point.throughput.bytes_per_agreement(),
        point.throughput.frames_per_agreement(),
    );

    let (step, adpt) = headline.expect("sweep covered the headline cell");
    println!("shape checks (headline cell: 4+ assets, depth 2+):");
    println!(
        "  adaptive cuts frames/agreement: {} ({:.2} -> {:.2})",
        adpt.throughput.frames_per_agreement() < step.throughput.frames_per_agreement(),
        step.throughput.frames_per_agreement(),
        adpt.throughput.frames_per_agreement(),
    );
    println!(
        "  adaptive cuts bytes/agreement: {} ({:.0} -> {:.0})",
        adpt.throughput.bytes_per_agreement() < step.throughput.bytes_per_agreement(),
        step.throughput.bytes_per_agreement(),
        adpt.throughput.bytes_per_agreement(),
    );
    println!(
        "  envelope counts comparable: {} entries per-step vs {} adaptive",
        step.sent_entries, adpt.sent_entries
    );
    assert!(
        adpt.throughput.frames_per_agreement() < step.throughput.frames_per_agreement(),
        "adaptive flushing must beat per-step on frames per agreement"
    );
}
