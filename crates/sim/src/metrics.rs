//! Byte- and message-accurate run metrics, and the throughput summary of
//! an epoch-stream run built on them.

use std::fmt;

use delphi_primitives::EpochEvent;

use crate::engine::RunReport;

/// Traffic counters for one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Messages sent (after broadcast expansion: one per destination).
    pub sent_msgs: u64,
    /// Payload bytes sent.
    pub sent_payload_bytes: u64,
    /// Payload + framing bytes sent (what the NIC carries).
    pub sent_wire_bytes: u64,
}

/// Aggregated metrics for a whole run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Per-node counters, indexed by node id.
    pub per_node: Vec<NodeMetrics>,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Metrics {
        Metrics { per_node: vec![NodeMetrics::default(); n] }
    }

    /// Total messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.per_node.iter().map(|m| m.sent_msgs).sum()
    }

    /// Total payload bytes sent across all nodes.
    pub fn total_payload_bytes(&self) -> u64 {
        self.per_node.iter().map(|m| m.sent_payload_bytes).sum()
    }

    /// Total wire bytes (payload + framing) sent across all nodes.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_node.iter().map(|m| m.sent_wire_bytes).sum()
    }

    /// Total wire traffic in mebibytes, the unit of Fig. 6b.
    pub fn total_wire_mib(&self) -> f64 {
        self.total_wire_bytes() as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "msgs={} payload={}B wire={}B ({:.2} MiB)",
            self.total_msgs(),
            self.total_payload_bytes(),
            self.total_wire_bytes(),
            self.total_wire_mib()
        )
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
    /// Summarizes a finished epoch-stream run, counting per `(epoch,
    /// asset)` value: an epoch whose `Agreed` carries `k` values counts
    /// `k`. The oracle hands its events over joined per asset
    /// (`delphi_core::oracle::flatten_vector_events`), whichever instances
    /// its basket mapped onto, so costs per agreement compare across
    /// basket sizes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, StopReason, Topology};
    use bytes::Bytes;
    use delphi_primitives::{Envelope, NodeId, Protocol};

    #[test]
    fn totals_sum_per_node() {
        let mut m = Metrics::new(2);
        m.per_node[0].sent_msgs = 3;
        m.per_node[0].sent_wire_bytes = 100;
        m.per_node[1].sent_msgs = 4;
        m.per_node[1].sent_wire_bytes = 200;
        m.per_node[1].sent_payload_bytes = 150;
        assert_eq!(m.total_msgs(), 7);
        assert_eq!(m.total_wire_bytes(), 300);
        assert_eq!(m.total_payload_bytes(), 150);
        assert!((m.total_wire_mib() - 300.0 / 1048576.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let m = Metrics::new(1);
        let s = m.to_string();
        assert!(s.contains("msgs=0"));
        assert!(s.contains("MiB"));
    }

    /// Emits a canned joined event stream (the shape
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
}
