//! Sharded multi-instance scenario runs.
//!
//! A DORA-style oracle deployment agrees on many assets at once. Two
//! complementary tools cover that scale-out in the simulator:
//!
//! - [`run_sharded`] executes independent simulations — one per asset —
//!   across a pool of worker threads, preserving input order and full
//!   determinism (each job carries its own seeded [`Simulation`]).
//! - [`BatchSavings`] compares the transport cost of those per-asset runs
//!   against a single multiplexed run (all assets over one mesh as a
//!   one-epoch [`EpochProtocol`](delphi_primitives::EpochProtocol)),
//!   quantifying what frame batching saves in messages and wire bytes.
//!
//! See `tests/multi_asset.rs` at the workspace root for the full
//! multi-asset Delphi scenario built from these pieces.

use std::fmt;

use delphi_primitives::{EpochEvent, Protocol};

use crate::engine::{RunReport, Simulation};
use crate::metrics::Metrics;

/// One simulation job: a configured [`Simulation`] plus a factory that
/// builds its nodes on the worker thread that runs it.
pub struct SimJob<O> {
    /// The configured simulation (topology, seed, fault set, caps).
    pub sim: Simulation,
    /// Builds the node set; invoked on the worker thread.
    #[allow(clippy::type_complexity)]
    pub make_nodes: Box<dyn FnOnce() -> Vec<Box<dyn Protocol<Output = O>>> + Send>,
}

impl<O> fmt::Debug for SimJob<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimJob").field("sim", &self.sim).finish_non_exhaustive()
    }
}

impl<O: Clone + fmt::Debug> SimJob<O> {
    /// Creates a job from a simulation and a node factory.
    pub fn new<F>(sim: Simulation, make_nodes: F) -> SimJob<O>
    where
        F: FnOnce() -> Vec<Box<dyn Protocol<Output = O>>> + Send + 'static,
    {
        SimJob { sim, make_nodes: Box::new(make_nodes) }
    }

    fn run(self) -> RunReport<O> {
        let nodes = (self.make_nodes)();
        self.sim.run(nodes)
    }
}

/// Runs `jobs` across up to `shards` worker threads, returning reports in
/// job order.
///
/// Jobs are distributed round-robin, so a deterministic job list yields a
/// deterministic report list regardless of the shard count — sharding is
/// pure wall-clock parallelism, never a semantics knob.
///
/// # Panics
///
/// Panics if `shards` is zero or a job's simulation panics (node-count
/// mismatch etc.); worker panics are propagated.
pub fn run_sharded<O: Clone + fmt::Debug + Send>(
    jobs: Vec<SimJob<O>>,
    shards: usize,
) -> Vec<RunReport<O>> {
    assert!(shards > 0, "need at least one shard");
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let mut buckets: Vec<Vec<(usize, SimJob<O>)>> =
        (0..shards.min(total)).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        let slot = i % buckets.len();
        buckets[slot].push((i, job));
    }
    let mut results: Vec<Option<RunReport<O>>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket.into_iter().map(|(i, job)| (i, job.run())).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, report) in worker.join().expect("shard worker panicked") {
                results[i] = Some(report);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every job produced a report")).collect()
}

/// Transport-cost comparison: per-asset unbatched runs vs one multiplexed
/// (batched) run of the same assets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSavings {
    /// Messages sent across all unbatched per-asset runs.
    pub unbatched_msgs: u64,
    /// Wire bytes across all unbatched per-asset runs.
    pub unbatched_wire_bytes: u64,
    /// Messages (frames) sent by the multiplexed run.
    pub batched_msgs: u64,
    /// Wire bytes sent by the multiplexed run.
    pub batched_wire_bytes: u64,
}

impl BatchSavings {
    /// Builds the comparison from per-asset metrics and the multiplexed
    /// run's metrics.
    pub fn compare<'a>(
        unbatched_per_asset: impl IntoIterator<Item = &'a Metrics>,
        batched: &Metrics,
    ) -> BatchSavings {
        let mut s = BatchSavings {
            batched_msgs: batched.total_msgs(),
            batched_wire_bytes: batched.total_wire_bytes(),
            ..BatchSavings::default()
        };
        for m in unbatched_per_asset {
            s.unbatched_msgs += m.total_msgs();
            s.unbatched_wire_bytes += m.total_wire_bytes();
        }
        s
    }

    /// Fraction of frames eliminated by batching, in `[0, 1]`.
    pub fn frames_saved(&self) -> f64 {
        saved_fraction(self.unbatched_msgs, self.batched_msgs)
    }

    /// Fraction of wire bytes eliminated by batching, in `[0, 1]`.
    pub fn bytes_saved(&self) -> f64 {
        saved_fraction(self.unbatched_wire_bytes, self.batched_wire_bytes)
    }
}

/// Sustained-throughput summary of one epoch-stream run: what the
/// `fig_throughput` sweep reports per configuration.
///
/// Built from an [`EpochProtocol`](delphi_primitives::EpochProtocol) run's
/// report: agreements come from the ordered event stream (the minimum
/// across honest nodes, so a skipped epoch on any node is not counted),
/// transport cost from the run's [`Metrics`], and time from the simulated
/// clock — deterministic, machine-independent numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochThroughput {
    /// `(epoch, asset)` agreements every honest node emitted.
    pub agreements: u64,
    /// Simulated seconds until the last honest node finished the stream.
    pub sim_seconds: f64,
    /// Transport frames (simulator messages) sent by all nodes.
    pub frames: u64,
    /// Wire bytes (payload + per-frame overhead) sent by all nodes.
    pub wire_bytes: u64,
}

impl EpochThroughput {
    /// Summarizes a finished epoch-stream run.
    ///
    /// Counting is per `(epoch, asset)` *value*, not per event: an epoch
    /// whose `Agreed` carries `k` values contributes `k` agreements. A
    /// vector-mode run (one multidimensional instance per epoch) hands
    /// its events over pre-flattened — `flatten_vector_events` turns the
    /// one basket slot into `dims` values — so its cost tags
    /// (bytes/frames per agreement) are directly comparable with the
    /// per-asset scalar sweep without any mode-specific plumbing here.
    pub fn from_report<O: Clone + fmt::Debug>(
        report: &RunReport<Vec<EpochEvent<O>>>,
    ) -> EpochThroughput {
        let agreements = report
            .honest_outputs()
            .map(|events| events.iter().map(|e| e.agreements().count() as u64).sum::<u64>())
            .min()
            .unwrap_or(0);
        let sim_seconds = report.completion_ns().unwrap_or(report.end_ns) as f64 / 1e9;
        EpochThroughput {
            agreements,
            sim_seconds,
            frames: report.metrics.total_msgs(),
            wire_bytes: report.metrics.total_wire_bytes(),
        }
    }

    /// Sustained agreements per simulated second.
    pub fn agreements_per_sec(&self) -> f64 {
        if self.sim_seconds == 0.0 {
            return 0.0;
        }
        self.agreements as f64 / self.sim_seconds
    }

    /// Wire bytes spent per agreement.
    pub fn bytes_per_agreement(&self) -> f64 {
        if self.agreements == 0 {
            return f64::NAN;
        }
        self.wire_bytes as f64 / self.agreements as f64
    }

    /// Transport frames spent per agreement.
    pub fn frames_per_agreement(&self) -> f64 {
        if self.agreements == 0 {
            return f64::NAN;
        }
        self.frames as f64 / self.agreements as f64
    }
}

impl fmt::Display for EpochThroughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} agreements in {:.3}s ({:.1}/s), {:.0} B and {:.2} frames per agreement",
            self.agreements,
            self.sim_seconds,
            self.agreements_per_sec(),
            self.bytes_per_agreement(),
            self.frames_per_agreement()
        )
    }
}

fn saved_fraction(unbatched: u64, batched: u64) -> f64 {
    if unbatched == 0 {
        return 0.0;
    }
    1.0 - batched as f64 / unbatched as f64
}

impl fmt::Display for BatchSavings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames {} -> {} ({:.1}% saved), wire bytes {} -> {} ({:.1}% saved)",
            self.unbatched_msgs,
            self.batched_msgs,
            100.0 * self.frames_saved(),
            self.unbatched_wire_bytes,
            self.batched_wire_bytes,
            100.0 * self.bytes_saved()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StopReason, Topology};
    use bytes::Bytes;
    use delphi_primitives::{Envelope, NodeId};

    /// Broadcasts once; outputs how many greetings arrived.
    struct Gossip {
        id: NodeId,
        n: usize,
        heard: usize,
    }

    impl Protocol for Gossip {
        type Output = usize;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            vec![Envelope::to_all(Bytes::from_static(b"hi"))]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.heard += 1;
            Vec::new()
        }
        fn output(&self) -> Option<usize> {
            (self.heard == self.n - 1).then_some(self.heard)
        }
    }

    fn gossip_job(n: usize, seed: u64) -> SimJob<usize> {
        SimJob::new(Simulation::new(Topology::lan(n)).seed(seed), move || {
            NodeId::all(n)
                .map(|id| Box::new(Gossip { id, n, heard: 0 }) as Box<dyn Protocol<Output = usize>>)
                .collect()
        })
    }

    #[test]
    fn sharded_runs_preserve_order_and_results() {
        let sizes = [3usize, 4, 5, 6, 7];
        for shards in [1, 2, 4, 16] {
            let jobs: Vec<_> =
                sizes.iter().enumerate().map(|(i, &n)| gossip_job(n, i as u64)).collect();
            let reports = run_sharded(jobs, shards);
            assert_eq!(reports.len(), sizes.len());
            for (report, &n) in reports.iter().zip(&sizes) {
                assert_eq!(report.stop, StopReason::AllHonestFinished, "shards={shards}");
                assert_eq!(report.outputs[0], Some(n - 1));
            }
        }
    }

    #[test]
    fn sharded_runs_match_sequential_runs_exactly() {
        let sequential: Vec<_> = (0..4).map(|seed| gossip_job(5, seed).run()).collect();
        let sharded = run_sharded((0..4).map(|seed| gossip_job(5, seed)).collect(), 3);
        for (a, b) in sequential.iter().zip(&sharded) {
            assert_eq!(a.completion_ns(), b.completion_ns());
            assert_eq!(a.events, b.events);
            assert_eq!(a.metrics.total_wire_bytes(), b.metrics.total_wire_bytes());
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let reports: Vec<RunReport<usize>> = run_sharded(Vec::new(), 4);
        assert!(reports.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = run_sharded(vec![gossip_job(3, 0)], 0);
    }

    /// Emits a canned flattened vector-mode event stream (the shape
    /// `flatten_vector_events` produces: one event per epoch, all basket
    /// dimensions as values) once every greeting arrived.
    struct VectorStream {
        id: NodeId,
        n: usize,
        heard: usize,
    }

    impl Protocol for VectorStream {
        type Output = Vec<EpochEvent<f64>>;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            vec![Envelope::to_all(Bytes::from_static(b"hi"))]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.heard += 1;
            Vec::new()
        }
        fn output(&self) -> Option<Self::Output> {
            use delphi_primitives::{EpochId, EpochOutcome};
            (self.heard == self.n - 1).then(|| {
                vec![
                    EpochEvent { epoch: EpochId(0), outcome: EpochOutcome::Agreed(vec![1.0; 3]) },
                    EpochEvent { epoch: EpochId(1), outcome: EpochOutcome::Agreed(vec![2.0; 3]) },
                    EpochEvent { epoch: EpochId(2), outcome: EpochOutcome::Skipped },
                ]
            })
        }
    }

    #[test]
    fn throughput_counts_every_dimension_of_flattened_vector_streams() {
        let n = 4;
        let nodes = NodeId::all(n)
            .map(|id| {
                Box::new(VectorStream { id, n, heard: 0 })
                    as Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>
            })
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(1).run(nodes);
        assert_eq!(report.stop, StopReason::AllHonestFinished);
        let t = EpochThroughput::from_report(&report);
        // 2 agreed epochs x 3 basket dimensions; the skipped epoch adds 0.
        assert_eq!(t.agreements, 6);
        assert!(t.bytes_per_agreement() > 0.0);
        assert!(t.frames_per_agreement() > 0.0);
    }

    #[test]
    fn batch_savings_arithmetic() {
        let mut unbatched_a = Metrics::new(1);
        unbatched_a.per_node[0].sent_msgs = 60;
        unbatched_a.per_node[0].sent_wire_bytes = 6_000;
        let mut unbatched_b = Metrics::new(1);
        unbatched_b.per_node[0].sent_msgs = 40;
        unbatched_b.per_node[0].sent_wire_bytes = 4_000;
        let mut batched = Metrics::new(1);
        batched.per_node[0].sent_msgs = 50;
        batched.per_node[0].sent_wire_bytes = 7_500;

        let s = BatchSavings::compare([&unbatched_a, &unbatched_b], &batched);
        assert_eq!(s.unbatched_msgs, 100);
        assert_eq!(s.batched_msgs, 50);
        assert!((s.frames_saved() - 0.5).abs() < 1e-12);
        assert!((s.bytes_saved() - 0.25).abs() < 1e-12);
        let display = s.to_string();
        assert!(display.contains("50.0% saved"), "{display}");

        assert_eq!(BatchSavings::default().frames_saved(), 0.0);
    }
}
