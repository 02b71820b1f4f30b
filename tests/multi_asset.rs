//! Integration: the multi-asset oracle scenario.
//!
//! A DORA-style deployment agrees on a whole basket of assets each epoch.
//! These tests run one epoch of a basket over one simulated mesh, all its
//! instances multiplexed as an epoch stream, under two flush policies:
//! one frame per entry (the unbatched baseline) and adaptive batching.
//! Every asset must reach ε-agreement inside the relaxed hull of its
//! inputs under both (the runner judges every run with
//! `delphi_sim::judge_streams`), and batching must strictly cut transport
//! cost for the same entries.

use delphi::core::DelphiConfig;
use delphi::primitives::{EpochConfig, FlushPolicy};
use delphi::sim::Topology;
use delphi::workloads::{EpochFeed, MultiAssetConfig};
use delphi_bench::{run_epoch_delphi, EpochSimPoint};

fn oracle_cfg(n: usize) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(10.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()
        .expect("valid oracle parameters")
}

/// One epoch of `feed`'s basket over one mesh of `n` nodes, judged
/// against the feed's inputs (the runner panics on a failed judge).
fn one_epoch(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    topology: Topology,
    flush: FlushPolicy,
) -> EpochSimPoint {
    let assets = feed.assets() as u16;
    run_epoch_delphi(cfg, feed, EpochConfig::new(1, assets, 1, 1), flush, topology, 100)
}

#[test]
fn one_epoch_basket_reaches_per_asset_agreement_under_both_flush_policies() {
    let n = 8;
    let cfg = oracle_cfg(n);
    let feed = EpochFeed::new(MultiAssetConfig::default_basket(), 42);
    for flush in [FlushPolicy::PerEntry, FlushPolicy::adaptive()] {
        let point = one_epoch(&cfg, &feed, Topology::aws_geo(n), flush);
        assert_eq!(point.throughput.agreements, feed.assets() as u64, "{flush:?}");
    }
}

#[test]
fn adaptive_flush_cuts_frames_and_bytes_vs_per_entry() {
    // A basket of two: two instances per epoch, whose entries share
    // frames. (The default basket of four runs as one vector instance;
    // batching its steps changes how many entries it sends and how large
    // they are, so its bytes per entry do not compare across the runs.)
    let n = 6;
    let cfg = oracle_cfg(n);
    let feed = EpochFeed::new(MultiAssetConfig::synthetic(2), 11);
    let per_entry = one_epoch(&cfg, &feed, Topology::lan(n), FlushPolicy::PerEntry);
    let adaptive = one_epoch(&cfg, &feed, Topology::lan(n), FlushPolicy::adaptive());

    // The two runs are different executions (the adaptive one is paced
    // by the simulator's tick), so they need not send the same entries:
    // batching must win on the totals and per entry.
    let (unbatched, batched) = (per_entry.throughput, adaptive.throughput);
    let (u_entries, b_entries) = (per_entry.sent_entries, adaptive.sent_entries);
    assert_eq!(unbatched.frames, u_entries, "per entry: one frame per entry");
    assert!(
        batched.frames < unbatched.frames,
        "batching must cut frames: {batched} vs {unbatched}"
    );
    assert!(
        batched.wire_bytes < unbatched.wire_bytes,
        "batching must cut wire bytes: {batched} vs {unbatched}"
    );
    assert!(
        batched.frames * u_entries < unbatched.frames * b_entries,
        "fewer frames per entry batched: {}/{b_entries} vs {}/{u_entries}",
        batched.frames,
        unbatched.frames
    );
    assert!(
        batched.wire_bytes * u_entries < unbatched.wire_bytes * b_entries,
        "fewer wire bytes per entry batched: {}/{b_entries} vs {}/{u_entries}",
        batched.wire_bytes,
        unbatched.wire_bytes
    );
}
