#![forbid(unsafe_code)]
//! Regenerates **Fig. 6b**: network bandwidth vs `n` on AWS — Delphi is
//! an order of magnitude below FIN and Abraham et al. and grows slower.
//!
//! Configuration per the figure caption: `ρ0 = ε = 2$, Δ = 2000$`.
//!
//! `cargo run --release -p delphi-bench --bin fig6b_bandwidth_aws [--quick]`
//!
//! With `--cluster <config.toml>`, the simulated sweep is replaced by two
//! *real* deployment runs — one OS process per `[[node]]` entry, one
//! basket of Delphi instances per process, over real sockets — once with
//! step batching (a whole step shares one frame) and once flushing per
//! entry (one frame per envelope), and the measured wire bytes are
//! compared (build
//! the node binary first: `cargo build --release -p delphi-bench --bin
//! delphi-node`).

use delphi_bench::cluster::{
    cluster_flag, framing_bytes_per_envelope, run_cluster, summarize, ClusterRunSpec, LOCAL_EPSILON,
};
use delphi_bench::{
    emit_bench_json, growth_exponent, oracle_config, quick_mode, run_aad, run_acs, run_delphi,
    run_multi_asset_delphi, spread_inputs, TextTable,
};
use delphi_sim::Topology;
use delphi_workloads::MultiAssetConfig;

const MIB: f64 = 1024.0 * 1024.0;

fn run_cluster_mode(config: std::path::PathBuf) {
    let assets = MultiAssetConfig::default_basket().assets.len();
    println!(
        "== Fig. 6b (cluster mode): wire bytes over real sockets, {assets}-asset basket, \
         batched vs unbatched ==\n"
    );
    let mut spec = ClusterRunSpec::new(config);
    spec.assets = assets;
    let mut measured = Vec::new();
    for unbatched in [false, true] {
        spec.unbatched = unbatched;
        let label = if unbatched { "unbatched" } else { "batched" };
        let outcome = match run_cluster(&spec) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("fig6b: {label} cluster run failed: {e}");
                std::process::exit(1);
            }
        };
        assert!(outcome.converged(LOCAL_EPSILON), "{label}: cluster outputs disagree");
        println!("{label:>13}: {}", summarize(&outcome, LOCAL_EPSILON));
        measured.push(outcome.total_stats());
    }
    let (batched, unbatched) = (measured[0], measured[1]);
    println!(
        "\nbatched {:.2} MiB / {} frames / {} MACs ({} envelopes) vs \
         unbatched {:.2} MiB / {} frames / {} MACs ({} envelopes)",
        batched.sent_bytes as f64 / MIB,
        batched.sent_frames,
        batched.mac_ops,
        batched.sent_entries,
        unbatched.sent_bytes as f64 / MIB,
        unbatched.sent_frames,
        unbatched.mac_ops,
        unbatched.sent_entries,
    );
    // The runs are independent asynchronous executions, so compare
    // per-envelope costs (schedule-independent), not absolute totals.
    let per = |v: u64, s: &delphi_net::NetStats| v as f64 / s.sent_entries as f64;
    println!(
        "per-envelope on real sockets: {:.1} vs {:.1} bytes, {:.2} vs {:.2} frames, \
         {:.2} vs {:.2} MACs (batched vs unbatched)",
        per(batched.sent_bytes, &batched),
        per(unbatched.sent_bytes, &unbatched),
        per(batched.sent_frames, &batched),
        per(unbatched.sent_frames, &unbatched),
        per(batched.mac_ops, &batched),
        per(unbatched.mac_ops, &unbatched),
    );
    assert_eq!(unbatched.sent_frames, unbatched.sent_entries, "unbatched: one frame per envelope");
    assert!(
        batched.sent_frames < batched.sent_entries,
        "batching must coalesce envelopes into shared frames"
    );
    // Wire bytes per envelope also carry each execution's own bundle
    // sizes; the framing share is what batching is answerable for.
    assert!(
        framing_bytes_per_envelope(&batched) < framing_bytes_per_envelope(&unbatched),
        "batching must cut framing bytes per envelope"
    );
}

fn main() {
    if let Some(config) = cluster_flag() {
        run_cluster_mode(config);
        return;
    }
    let ns: &[usize] = if quick_mode() { &[16, 64] } else { &[16, 64, 112, 160] };
    let center = 40_000.0;
    println!("== Fig. 6b: bandwidth vs n on AWS (MiB per agreement, all nodes) ==\n");

    let mut table =
        TextTable::new(&["n", "Delphi d=20$", "Delphi d=180$", "FIN", "Abraham et al."]);
    let mut delphi_pts = Vec::new();
    let mut fin_pts = Vec::new();
    let mut aad_pts = Vec::new();
    let mut rows: Vec<[f64; 4]> = Vec::new();
    for &n in ns {
        let cfg = oracle_config(n, 2.0);
        let d20 = run_delphi(&cfg, Topology::aws_geo(n), &spread_inputs(n, center, 20.0), 6101);
        let d180 = run_delphi(&cfg, Topology::aws_geo(n), &spread_inputs(n, center, 180.0), 6102);
        let fin = run_acs(n, Topology::aws_geo(n), &spread_inputs(n, center, 20.0), 6103);
        let aad = run_aad(n, Topology::aws_geo(n), &spread_inputs(n, center, 20.0), 10, 6104);
        table.row(&[
            n.to_string(),
            format!("{:.2}", d20.wire_mib),
            format!("{:.2}", d180.wire_mib),
            format!("{:.2}", fin.wire_mib),
            format!("{:.2}", aad.wire_mib),
        ]);
        delphi_pts.push((n as f64, d20.wire_mib));
        fin_pts.push((n as f64, fin.wire_mib));
        aad_pts.push((n as f64, aad.wire_mib));
        rows.push([d20.wire_mib, d180.wire_mib, fin.wire_mib, aad.wire_mib]);
        // Deterministic simulated byte counts, in the BENCH_JSON
        // convention (a "ns" slot holding wire bytes — lower is better).
        for (label, point) in
            [("delphi_d20", &d20), ("delphi_d180", &d180), ("fin", &fin), ("aad", &aad)]
        {
            emit_bench_json(
                &format!("fig6b/{label}_n{n}_wire_bytes"),
                point.wire_mib * 1024.0 * 1024.0,
            );
        }
        eprintln!("  n={n} done");
    }
    println!("{}", table.render());
    println!("csv:\n{}", table.to_csv());

    let last = rows.last().expect("rows");
    println!("shape checks:");
    println!(
        "  Delphi lighter than FIN at n = {}: {} ({:.1}x)",
        ns[ns.len() - 1],
        last[0] < last[2],
        last[2] / last[0]
    );
    println!(
        "  Delphi lighter than Abraham et al.: {} ({:.1}x)",
        last[0] < last[3],
        last[3] / last[0]
    );
    println!(
        "  growth exponents (bytes ~ n^k): Delphi {:.2}, FIN {:.2}, AAD {:.2}",
        growth_exponent(&delphi_pts),
        growth_exponent(&fin_pts),
        growth_exponent(&aad_pts)
    );
    println!(
        "  Delphi grows slower than both: {}",
        growth_exponent(&delphi_pts) < growth_exponent(&fin_pts)
            && growth_exponent(&delphi_pts) < growth_exponent(&aad_pts)
    );

    // A DORA-style deployment runs one Delphi instance per asset; batching
    // frames across the basket is where the multiplexed transport saves.
    let ma_n = ns[0];
    let basket = MultiAssetConfig::default_basket();
    let assets = basket.assets.len();
    let shards = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cfg = oracle_config(ma_n, 2.0);
    let point = run_multi_asset_delphi(&cfg, basket, Topology::aws_geo(ma_n), 6105, shards);
    println!("\nmulti-asset deployment ({assets} feeds, n = {ma_n}), batched vs unbatched:");
    for a in &point.per_asset {
        println!(
            "  {:<4} spread {:.3}$ (ε-agreement: {}), solo-mesh runtime {:.0} ms",
            a.name,
            a.spread,
            a.spread <= cfg.epsilon(),
            a.runtime_ms
        );
    }
    println!(
        "  batched MiB {:.2} vs unbatched MiB {:.2} — {}",
        point.savings.batched_wire_bytes as f64 / (1024.0 * 1024.0),
        point.savings.unbatched_wire_bytes as f64 / (1024.0 * 1024.0),
        point.savings
    );
}
