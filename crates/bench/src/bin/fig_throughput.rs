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

use delphi_bench::cluster::{
    cluster_flag, run_cluster, summarize_epochs, ClusterRunSpec, LOCAL_EPSILON,
};
use delphi_bench::{
    emit_bench_json, oracle_config, quick_mode, run_epoch_delphi, run_epoch_delphi_full_sharded,
    run_epoch_delphi_sharded, run_epoch_vector_delphi, TextTable,
};
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
    let assets = 4usize;
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
        let expected = u64::from(epochs) * assets as u64;
        println!("{label:>9}: {}", summarize_epochs(&outcome, LOCAL_EPSILON, expected));
        assert!(
            outcome.epoch_converged(LOCAL_EPSILON, expected),
            "{label}: epoch stream incomplete or diverged"
        );
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
            let epoch_cfg = EpochConfig::new(epochs, k as u16, depth, window, cfg.t());
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
                assert!(p.worst_spread <= cfg.epsilon() + 1e-9, "epoch diverged ({label})");
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

    // Receive-sharding sweep: the CPU-bound CPS regime (slow per-message
    // receive CPU, sub-millisecond latency — the paper's Fig. 7-right
    // regime) at basket 8, where per-node dispatch is the throughput
    // ceiling. Senders flush per (destination, shard) and the simulator
    // runs one receive CPU lane per shard — the exact model of
    // `delphi-net`'s sharded dispatch (`RunOptions::recv_shards`).
    let shard_epochs: u32 = if quick { 10 } else { 30 };
    let shard_depth: usize = if quick { 2 } else { 4 };
    let shard_basket = 8usize;
    println!(
        "\n== Receive sharding: n = {n}, {shard_epochs} epochs, basket {shard_basket}, depth \
         {shard_depth}, CPS (CPU-bound) testbed, adaptive flushing ==\n"
    );
    let shard_feed = EpochFeed::new(MultiAssetConfig::synthetic(shard_basket), 11);
    let shard_cfg =
        EpochConfig::new(shard_epochs, shard_basket as u16, shard_depth, shard_depth + 4, cfg.t());
    let mut shard_table = TextTable::new(&["shards", "agr/s", "B/agr", "frames/agr"]);
    let mut rates = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let point = run_epoch_delphi_sharded(
            &cfg,
            &shard_feed,
            shard_cfg,
            ADAPTIVE,
            Topology::cps(n, n),
            9_001,
            shards,
        );
        assert_eq!(point.stale_epochs, 0, "honest shard sweep must not skip epochs");
        assert!(point.worst_spread <= cfg.epsilon() + 1e-9, "epoch diverged (shards={shards})");
        let id = |metric: &str| {
            format!("fig_throughput/k{shard_basket}_d{shard_depth}_s{shards}_cps_{metric}")
        };
        emit_bench_json(
            &id("ns_per_agreement"),
            point.throughput.sim_seconds * 1e9 / point.throughput.agreements as f64,
        );
        emit_bench_json(&id("bytes_per_agreement"), point.throughput.bytes_per_agreement());
        emit_bench_json(&id("frames_per_agreement"), point.throughput.frames_per_agreement());
        shard_table.row(&[
            shards.to_string(),
            format!("{:.1}", point.throughput.agreements_per_sec()),
            format!("{:.0}", point.throughput.bytes_per_agreement()),
            format!("{:.1}", point.throughput.frames_per_agreement()),
        ]);
        rates.push(point.throughput.agreements_per_sec());
        eprintln!("  shards={shards} done");
    }
    println!("{}", shard_table.render());
    println!(
        "sharded receive speedup at basket {shard_basket}: x{:.2} (2 shards), x{:.2} (4 shards)",
        rates[1] / rates[0],
        rates[2] / rates[0],
    );
    assert!(
        rates[1] > rates[0] && rates[2] > rates[0],
        "receive sharding must raise simulated agreements/s at basket >= 8: {rates:?}"
    );

    // Send x receive sharding sweep: the CPS testbed in its encode-bound
    // regime — same sub-millisecond latency and shared 100 Mbit links,
    // but per-node CPU dominated by per-byte frame encode + MAC work
    // (the regime where the egress pipeline is the ceiling). Every cell
    // charges send CPU on encode bytes via per-node *send* lanes — the
    // model of `delphi-net`'s egress, where each dispatch worker encodes
    // and MACs its own shard class — so the 1x1 cell is the serial
    // baseline and 4x4 the fully sharded one; the off-diagonal cells
    // (fewer send lanes than receive shards) describe a placement the
    // TCP runtime no longer offers. Bytes are conserved when a basket
    // splits across shard classes, so a byte-dominated cost is what lane
    // parallelism can overlap; the legacy receive-only rows above stay
    // untouched (send lanes off, stock CPS cost).
    let encode_bound = || {
        Topology::cps(n, n)
            .with_cost(delphi_sim::CostModel { per_message_ns: 15_000, per_byte_ns: 1_500 })
    };
    println!(
        "\n== Send x receive sharding: n = {n}, {shard_epochs} epochs, basket {shard_basket}, \
         depth {shard_depth}, encode-bound CPS testbed, adaptive flushing ==\n"
    );
    let mut send_table = TextTable::new(&["send", "recv", "agr/s", "B/agr", "frames/agr"]);
    let mut send_rates = Vec::new();
    for &(ss, rs) in &[(1usize, 1usize), (1, 4), (2, 4), (4, 4)] {
        let point = run_epoch_delphi_full_sharded(
            &cfg,
            &shard_feed,
            shard_cfg,
            ADAPTIVE,
            encode_bound(),
            9_001,
            rs,
            Some(ss),
        );
        assert_eq!(point.stale_epochs, 0, "honest send-shard sweep must not skip epochs");
        assert!(
            point.worst_spread <= cfg.epsilon() + 1e-9,
            "epoch diverged (send={ss}, recv={rs})"
        );
        let id = |metric: &str| {
            format!("fig_throughput/k{shard_basket}_d{shard_depth}_ss{ss}_rs{rs}_cps_{metric}")
        };
        emit_bench_json(
            &id("ns_per_agreement"),
            point.throughput.sim_seconds * 1e9 / point.throughput.agreements as f64,
        );
        emit_bench_json(&id("bytes_per_agreement"), point.throughput.bytes_per_agreement());
        emit_bench_json(&id("frames_per_agreement"), point.throughput.frames_per_agreement());
        send_table.row(&[
            ss.to_string(),
            rs.to_string(),
            format!("{:.1}", point.throughput.agreements_per_sec()),
            format!("{:.0}", point.throughput.bytes_per_agreement()),
            format!("{:.1}", point.throughput.frames_per_agreement()),
        ]);
        send_rates.push(point.throughput.agreements_per_sec());
        eprintln!("  send={ss} recv={rs} done");
    }
    println!("{}", send_table.render());
    println!(
        "sharded egress speedup at basket {shard_basket}: x{:.2} (4x4 over 1x1 serial pipeline)",
        send_rates[3] / send_rates[0],
    );
    assert!(
        send_rates[3] >= 1.6 * send_rates[0],
        "full 4x4 sharding must deliver >= x1.6 agreements/s over the serial 1x1 pipeline: \
         {send_rates:?}"
    );

    // Vector-vs-scalar sweep: each epoch's basket as ONE vector-valued
    // agreement instance (one bundle exchange and one quorum walk per
    // round for the whole basket) against the per-asset scalar baseline,
    // on the same feed/seed/testbed. Runs identically in --quick and full
    // mode so the recorded rows are stable. "macs/agr" is frames per
    // agreement: the TCP runtime HMACs each frame exactly once, so the
    // simulator's frame count is its MAC count. "rounds/agr" comes from
    // the shared round probe: a scalar basket walks `(l_max+1)·r_max`
    // rounds per *asset*, a vector basket walks them once per epoch.
    let vec_epochs: u32 = 10;
    let vec_depth: usize = 2;
    println!(
        "\n== Vector vs scalar baskets: n = {n}, {vec_epochs} epochs, depth {vec_depth}, CPS \
         testbed, adaptive flushing — one vector instance per epoch vs one scalar instance per \
         asset ==\n"
    );
    let mut vector_table =
        TextTable::new(&["assets", "lane", "entries/agr", "macs/agr", "rounds/agr"]);
    let mut at8 = None;
    for &k in &[1usize, 4, 8] {
        let feed = EpochFeed::new(MultiAssetConfig::synthetic(k), 13);
        let vec_cfg = EpochConfig::new(vec_epochs, k as u16, vec_depth, vec_depth + 4, cfg.t());
        let seed = 11_000 + k as u64;
        let scalar = run_epoch_delphi(&cfg, &feed, vec_cfg, ADAPTIVE, Topology::cps(n, n), seed);
        let vector =
            run_epoch_vector_delphi(&cfg, &feed, vec_cfg, ADAPTIVE, Topology::cps(n, n), seed);
        for (lane, p) in [("scalar", &scalar), ("vector", &vector)] {
            assert_eq!(p.stale_epochs, 0, "honest vector sweep must not skip epochs ({lane})");
            assert_eq!(
                p.throughput.agreements,
                u64::from(vec_epochs) * k as u64,
                "every (epoch, dimension) pair must agree ({lane}, k={k})"
            );
            assert!(
                p.worst_spread <= cfg.epsilon() + 1e-9,
                "epoch diverged ({lane}, k={k}): {}",
                p.worst_spread
            );
            let agr = p.throughput.agreements as f64;
            let id = |metric: &str| format!("fig_throughput/vector_k{k}_{lane}_{metric}");
            emit_bench_json(&id("entries_per_agreement"), p.sent_entries as f64 / agr);
            emit_bench_json(&id("macs_per_agreement"), p.throughput.frames_per_agreement());
            emit_bench_json(&id("rounds_per_agreement"), p.rounds as f64 / agr);
            vector_table.row(&[
                k.to_string(),
                lane.to_string(),
                format!("{:.1}", p.sent_entries as f64 / agr),
                format!("{:.1}", p.throughput.frames_per_agreement()),
                format!("{:.1}", p.rounds as f64 / agr),
            ]);
        }
        if k == 8 {
            at8 = Some((scalar, vector));
        }
        eprintln!("  vector-vs-scalar k={k} done");
    }
    println!("{}", vector_table.render());
    let (s8, v8) = at8.expect("sweep covered basket 8");
    let entries_ratio = (s8.sent_entries as f64) / (v8.sent_entries as f64);
    let rounds_ratio = (s8.rounds as f64) / (v8.rounds as f64);
    println!(
        "vector basket 8: x{entries_ratio:.2} fewer wire entries/agreement, x{rounds_ratio:.2} \
         fewer rounds/agreement vs per-asset scalar"
    );
    assert!(
        entries_ratio >= 3.0,
        "vector basket 8 must cut wire entries per agreement >= 3x: x{entries_ratio:.2}"
    );
    assert!(
        rounds_ratio >= 2.0,
        "vector basket 8 must cut rounds per agreement >= 2x: x{rounds_ratio:.2}"
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
