#![forbid(unsafe_code)]
//! Regenerates **Fig. 6a**: runtime vs `n` on the geo-distributed AWS
//! testbed — Delphi (δ = 20$ and δ = 180$) vs FIN vs Abraham et al.
//!
//! Configuration per the figure caption: `ρ0 = 10$, Δ = 2000$, ε = 2$`.
//! Expected shape: Delphi is the *slowest* at n = 16 (round count ×
//! geo-RTT dominates) but scales far better, beating FIN by ~3× and
//! Abraham et al. by ~6× at n = 160.
//!
//! `cargo run --release -p delphi-bench --bin fig6a_runtime_aws [--quick]`
//!
//! With `--cluster <config.toml>`, the simulated sweep is replaced by one
//! *real* deployment-style run: one OS process per `[[node]]` entry of
//! the cluster file, talking over real sockets, agreeing once — a stream
//! of one epoch — and judged per `(epoch, asset)` against the inputs the
//! nodes were fed (build the node binary
//! first: `cargo build --release -p delphi-bench --bin delphi-node`).

use delphi_bench::cluster::{cluster_flag, judge_cluster, run_cluster, summarize, ClusterRunSpec};
use delphi_bench::{
    emit_bench_json, oracle_config, quick_mode, run_aad, run_acs, run_delphi, spread_inputs,
    TextTable,
};
use delphi_sim::Topology;

fn run_cluster_mode(config: std::path::PathBuf) {
    println!("== Fig. 6a (cluster mode): runtime over real sockets and processes ==\n");
    let spec = ClusterRunSpec::new(config);
    let outcome = match run_cluster(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fig6a: cluster run failed: {e}");
            std::process::exit(1);
        }
    };
    let mut table = TextTable::new(&["node", "runtime ms", "agreed"]);
    for r in &outcome.reports {
        let agreed = r.agreements.iter().map(|(_, _, v)| format!("{v:.4}")).collect::<Vec<_>>();
        table.row(&[r.id.to_string(), format!("{:.0}", r.elapsed_ms), agreed.join(" ")]);
    }
    println!("{}", table.render());
    let verdict = judge_cluster(&outcome, &spec);
    println!("{}", summarize(&outcome, &spec, &verdict));
    if let Err(why) = verdict {
        eprintln!("fig6a: cluster run failed the judge: {why}");
        std::process::exit(1);
    }
}

fn main() {
    if let Some(config) = cluster_flag() {
        run_cluster_mode(config);
        return;
    }
    let ns: &[usize] = if quick_mode() { &[16, 64] } else { &[16, 64, 112, 160] };
    let center = 40_000.0;
    println!("== Fig. 6a: runtime vs n on AWS (ms, simulated geo testbed) ==\n");

    let mut table =
        TextTable::new(&["n", "Delphi d=20$", "Delphi d=180$", "FIN", "Abraham et al."]);
    let mut rows: Vec<[f64; 4]> = Vec::new();
    for &n in ns {
        let cfg = oracle_config(n, 10.0);
        let d20 = run_delphi(&cfg, Topology::aws_geo(n), &spread_inputs(n, center, 20.0), 6001);
        let d180 = run_delphi(&cfg, Topology::aws_geo(n), &spread_inputs(n, center, 180.0), 6002);
        let fin = run_acs(n, Topology::aws_geo(n), &spread_inputs(n, center, 20.0), 6003);
        // Abraham et al. rounds: log2(Δ/ε) = 10.
        let aad = run_aad(n, Topology::aws_geo(n), &spread_inputs(n, center, 20.0), 10, 6004);
        table.row(&[
            n.to_string(),
            format!("{:.0}", d20.runtime_ms),
            format!("{:.0}", d180.runtime_ms),
            format!("{:.0}", fin.runtime_ms),
            format!("{:.0}", aad.runtime_ms),
        ]);
        rows.push([d20.runtime_ms, d180.runtime_ms, fin.runtime_ms, aad.runtime_ms]);
        // Deterministic simulated latencies, emitted in the BENCH_JSON
        // convention (ns) for the fig regression gate.
        for (label, point) in
            [("delphi_d20", &d20), ("delphi_d180", &d180), ("fin", &fin), ("aad", &aad)]
        {
            emit_bench_json(&format!("fig6a/{label}_n{n}_runtime"), point.runtime_ms * 1e6);
        }
        eprintln!("  n={n} done");
    }
    println!("{}", table.render());
    println!("csv:\n{}", table.to_csv());

    let first = rows.first().expect("at least one n");
    let last = rows.last().expect("at least one n");
    println!("shape checks:");
    println!(
        "  small n = {}: Delphi slower than FIN (paper: high round complexity × RTT): {}",
        ns[0],
        first[0] > first[2]
    );
    println!(
        "  large n = {}: Delphi faster than FIN: {} ({:.1}x)",
        ns[ns.len() - 1],
        last[0] < last[2],
        last[2] / last[0]
    );
    println!(
        "  large n: Delphi faster than Abraham et al.: {} ({:.1}x)",
        last[0] < last[3],
        last[3] / last[0]
    );
    println!(
        "  Delphi δ-insensitive on AWS (within 35%): {}",
        (last[1] / last[0] - 1.0).abs() < 0.35
    );
}
