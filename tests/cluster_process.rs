//! Multi-process smoke test: a 4-node Delphi cluster, one OS process per
//! node, launched from a generated TOML config over real sockets. Every
//! run is an epoch stream (one epoch unless a test asks for more), and
//! every run is judged against the inputs its nodes were fed
//! (`judge_cluster`): whole ordered streams, ε-agreement, and validity.
//!
//! Ignored by default because it needs the `delphi-node` binary on disk:
//!
//! ```text
//! cargo build --release -p delphi-bench --bin delphi-node
//! cargo test --release --test cluster_process -- --ignored
//! ```
//!
//! CI runs it behind a dedicated job step. The debug profile works too
//! (`cargo build -p delphi-bench --bin delphi-node` + `cargo test --test
//! cluster_process -- --ignored`); the launcher resolves whichever
//! `delphi-node` sits next to this test binary's profile directory.

use std::sync::{Mutex, MutexGuard};

use delphi_bench::cluster::{framing_bytes_per_envelope, judge_cluster, run_local_cluster};

/// Serializes the cluster tests: each reserves free loopback ports by
/// binding and releasing them, so two clusters launching concurrently
/// could grab each other's ports in the release-to-rebind window.
static PORT_LOCK: Mutex<()> = Mutex::new(());

fn port_lock() -> MutexGuard<'static, ()> {
    PORT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
#[ignore = "needs the delphi-node binary: cargo build -p delphi-bench --bin delphi-node"]
fn four_node_process_cluster_converges_within_epsilon() {
    let _guard = port_lock();
    // The default run: one epoch of a one-asset basket.
    let (outcome, spec) = run_local_cluster(4, "smoke", |spec| {
        spec.deadline_ms = 120_000;
    })
    .expect("cluster run succeeds (is delphi-node built?)");

    assert_eq!(outcome.reports.len(), 4);
    for r in &outcome.reports {
        assert_eq!(r.stats.dropped_frames, 0, "node {} dropped frames", r.id);
        assert!(r.stats.sent_frames > 0 && r.stats.recv_frames > 0, "node {} idle", r.id);
        assert!(r.elapsed_ms > 0.0);
    }
    judge_cluster(&outcome, &spec).expect("one judged agreement per node");
}

#[test]
#[ignore = "needs the delphi-node binary: cargo build -p delphi-bench --bin delphi-node"]
fn hundred_epoch_process_cluster_streams_and_adaptive_flush_beats_per_step() {
    let _guard = port_lock();
    // The streaming-oracle acceptance shape: a 4-node process cluster
    // agreeing on a 4-asset basket 100 consecutive epochs over real
    // sockets, every epoch ε-converged, bounded memory (live-window GC),
    // run twice — per-step and adaptive flushing.
    let epochs = 100u32;
    let assets = 4u16;
    let run = |tag: &'static str, adaptive: bool| {
        run_local_cluster(4, tag, move |spec| {
            spec.epochs = epochs;
            spec.assets = assets;
            spec.depth = 2;
            spec.window = 6;
            spec.adaptive = adaptive;
            spec.deadline_ms = 300_000;
        })
        .expect("epoch cluster run succeeds")
    };
    let per_step = run("epoch-step", false);
    let adaptive = run("epoch-adaptive", true);

    for (outcome, spec) in [&per_step, &adaptive] {
        judge_cluster(outcome, spec).expect("every epoch of the stream judged");
        for r in &outcome.reports {
            assert_eq!(r.stats.dropped_frames, 0, "node {} dropped frames", r.id);
        }
    }
    // Same protocol work per envelope, fewer frames: adaptive flushing
    // must beat per-step on frames per envelope (the runs are independent
    // executions, so compare the schedule-independent per-envelope cost).
    let (b, u) = (adaptive.0.total_stats(), per_step.0.total_stats());
    assert!(
        b.sent_frames * u.sent_entries < u.sent_frames * b.sent_entries,
        "adaptive {}/{} vs per-step {}/{} frames per envelope",
        b.sent_frames,
        b.sent_entries,
        u.sent_frames,
        u.sent_entries
    );
}

#[test]
#[ignore = "needs the delphi-node binary: cargo build -p delphi-bench --bin delphi-node"]
fn multi_asset_process_cluster_batches_on_the_wire() {
    let _guard = port_lock();
    // The same 4-process cluster agreeing once on a 2-asset basket (two
    // instances) per node, run batched (the adaptive policy, as deployed) and unbatched
    // (one frame per envelope): the batched deployment must spend fewer
    // frames, MACs and framing bytes for the same protocol work —
    // measured over real sockets, not simulated.
    let batched = run_local_cluster(4, "smoke-batched", |spec| {
        spec.assets = 2;
        spec.adaptive = true;
        spec.deadline_ms = 120_000;
    })
    .expect("batched cluster run succeeds");
    let unbatched = run_local_cluster(4, "smoke-unbatched", |spec| {
        spec.assets = 2;
        spec.unbatched = true;
        spec.deadline_ms = 120_000;
    })
    .expect("unbatched cluster run succeeds");

    for (outcome, spec) in [&batched, &unbatched] {
        judge_cluster(outcome, spec).expect("every asset judged");
    }
    // The two runs are *different* asynchronous executions, so absolute
    // frame/byte totals are schedule-dependent (either run may happen to
    // do more protocol work). The schedule-independent facts are the
    // per-envelope costs: unbatched, every envelope pays its own frame;
    // batched, coalescing strictly beats one-frame-per-envelope on
    // frames, MACs, and framing bytes per envelope. (Wire bytes per
    // envelope are not among them: they also carry the bundle sizes of
    // whichever execution each run happened to be.)
    let (b, u) = (batched.0.total_stats(), unbatched.0.total_stats());
    assert_eq!(u.sent_frames, u.sent_entries, "unbatched: one frame per envelope");
    assert!(
        b.sent_frames < b.sent_entries,
        "batched must coalesce: {} frames for {} envelopes",
        b.sent_frames,
        b.sent_entries
    );
    assert!(
        b.mac_ops * u.sent_entries < u.mac_ops * b.sent_entries,
        "fewer MACs per envelope batched: {}/{} vs {}/{}",
        b.mac_ops,
        b.sent_entries,
        u.mac_ops,
        u.sent_entries
    );
    assert!(
        framing_bytes_per_envelope(&b) < framing_bytes_per_envelope(&u),
        "fewer framing bytes per envelope batched: {:.1} vs {:.1}",
        framing_bytes_per_envelope(&b),
        framing_bytes_per_envelope(&u)
    );
}
