//! Testbed topologies: latency, bandwidth, and CPU-cost models.
//!
//! Two presets mirror the paper's testbeds (§VI-C):
//!
//! - [`Topology::aws_geo`] — nodes spread round-robin across 8 AWS regions
//!   with a realistic one-way latency matrix and log-normal jitter;
//!   plentiful bandwidth, fast CPUs. Latency (i.e. round count) dominates,
//!   as the paper observes in Fig. 7 (left).
//! - [`Topology::cps`] — processes packed onto a small number of
//!   Raspberry-Pi-class hosts behind one switch: sub-millisecond latency,
//!   but *shared* per-host egress bandwidth and slow CPUs. Per-round
//!   communication volume dominates, as in Fig. 7 (right).

use crate::latency::{Jitter, LatencyMatrix};

/// Framing overhead added to every message on the wire, in bytes.
///
/// Matches `delphi-net`'s frame: 4-byte length, 2-byte sender id, 32-byte
/// HMAC tag, plus a 2-byte protocol tag — so simulated bandwidth equals
/// what the TCP transport would send.
pub const WIRE_OVERHEAD_BYTES: usize = 40;

/// Per-message receiver CPU cost model.
///
/// Approximates message-handling compute (deserialization, MAC
/// verification, protocol logic) as an affine function of message size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost per received message, nanoseconds.
    pub per_message_ns: u64,
    /// Marginal cost per received payload byte, nanoseconds.
    pub per_byte_ns: u64,
}

impl CostModel {
    /// A zero-cost model (pure network-latency studies).
    pub const FREE: CostModel = CostModel { per_message_ns: 0, per_byte_ns: 0 };

    /// Processing cost of a `len`-byte message.
    pub fn cost_ns(&self, len: usize) -> u64 {
        self.per_message_ns + self.per_byte_ns * len as u64
    }
}

/// A complete network/compute model for a simulated deployment.
#[derive(Clone, Debug)]
pub struct Topology {
    pub(crate) latency: LatencyMatrix,
    pub(crate) jitter: Jitter,
    /// Per-node egress bandwidth in bits/second (`u64::MAX` = unlimited).
    pub(crate) egress_bps: Vec<u64>,
    pub(crate) cost: CostModel,
    /// Per-pair FIFO delivery.
    pub(crate) fifo: bool,
}

/// One-way latencies between the 8 AWS regions used in the paper
/// (N. Virginia, Ohio, N. California, Oregon, Canada, Ireland, Singapore,
/// Tokyo), in milliseconds. Approximately half the public RTT figures.
const AWS_REGION_LATENCY_MS: [[u64; 8]; 8] = [
    [1, 6, 30, 35, 8, 38, 110, 75],
    [6, 1, 25, 30, 12, 42, 115, 80],
    [30, 25, 1, 10, 35, 70, 85, 55],
    [35, 30, 10, 1, 30, 65, 82, 50],
    [8, 12, 35, 30, 1, 35, 110, 80],
    [38, 42, 70, 65, 35, 1, 120, 105],
    [110, 115, 85, 82, 110, 120, 1, 35],
    [75, 80, 55, 50, 80, 105, 35, 1],
];

impl Topology {
    /// Uniform LAN: sub-millisecond constant latency, effectively unlimited
    /// bandwidth, free CPU. The default for unit tests.
    pub fn lan(n: usize) -> Topology {
        Topology {
            latency: LatencyMatrix::constant(n, 200_000), // 0.2 ms
            jitter: Jitter::Uniform { spread: 0.5 },
            egress_bps: vec![u64::MAX; n],
            cost: CostModel::FREE,
            fifo: false,
        }
    }

    /// Geo-distributed AWS-style testbed (§VI-C "AWS testbed").
    ///
    /// Nodes are assigned round-robin to the 8 regions of the paper;
    /// latencies follow [`AWS_REGION_LATENCY_MS`] with log-normal jitter;
    /// each t2.micro-class node gets 100 Mbit/s egress and a fast-CPU cost
    /// model.
    pub fn aws_geo(n: usize) -> Topology {
        let region = |i: usize| i % 8;
        let latency = LatencyMatrix::from_fn(n, |from, to| {
            AWS_REGION_LATENCY_MS[region(from)][region(to)] * 1_000_000
        });
        Topology {
            latency,
            jitter: Jitter::LogNormal { sigma: 0.15 },
            egress_bps: vec![100_000_000; n],
            cost: CostModel { per_message_ns: 20_000, per_byte_ns: 8 },
            fifo: false,
        }
    }

    /// Embedded CPS testbed (§VI-C "Embedded Device Testbed").
    ///
    /// `n` processes are packed round-robin onto `hosts` Raspberry-Pi-class
    /// devices behind one switch. Latency is sub-millisecond, but each
    /// device's 100 Mbit/s link is *shared* by its co-located processes
    /// (modelled as an even split of egress bandwidth) and the ARM-class
    /// CPU cost is an order of magnitude above AWS.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`.
    pub fn cps(n: usize, hosts: usize) -> Topology {
        assert!(hosts > 0, "need at least one host");
        let host = |i: usize| i % hosts;
        let latency = LatencyMatrix::from_fn(n, |from, to| {
            if host(from) == host(to) {
                100_000 // 0.1 ms loopback/switch-local
            } else {
                500_000 // 0.5 ms through the switch
            }
        });
        let procs_on_host = |h: usize| (n / hosts) + usize::from(h < n % hosts);
        let egress_bps =
            (0..n).map(|i| 100_000_000 / procs_on_host(host(i)).max(1) as u64).collect();
        Topology {
            latency,
            jitter: Jitter::Uniform { spread: 0.3 },
            egress_bps,
            cost: CostModel { per_message_ns: 150_000, per_byte_ns: 60 },
            fifo: false,
        }
    }

    /// Enables per-pair FIFO delivery (messages between a fixed pair arrive
    /// in send order). Off by default: the paper's adversary may reorder.
    pub fn with_fifo(mut self, fifo: bool) -> Topology {
        self.fifo = fifo;
        self
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.latency.n()
    }

    /// Nanoseconds needed to serialize `wire_bytes` onto `node`'s link.
    pub fn serialize_ns(&self, node: usize, wire_bytes: usize) -> u64 {
        let bps = self.egress_bps[node];
        if bps == u64::MAX {
            return 0;
        }
        // bits * 1e9 / bps, in u128 to avoid overflow.
        ((wire_bytes as u128 * 8 * 1_000_000_000) / bps as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_is_cheap_and_symmetric() {
        let t = Topology::lan(4);
        assert_eq!(t.n(), 4);
        assert_eq!(t.latency.base_ns(0, 1), 200_000);
        assert_eq!(t.serialize_ns(0, 1_000_000), 0, "unlimited bandwidth");
        assert_eq!(t.cost.cost_ns(100), 0);
    }

    #[test]
    fn aws_matrix_is_symmetric_and_regional() {
        for (a, row) in AWS_REGION_LATENCY_MS.iter().enumerate() {
            for (b, &ms) in row.iter().enumerate() {
                assert_eq!(ms, AWS_REGION_LATENCY_MS[b][a]);
            }
        }
        let t = Topology::aws_geo(16);
        // Nodes 0 and 8 share a region (round-robin): intra-region latency.
        assert_eq!(t.latency.base_ns(0, 8), 1_000_000);
        // Node 0 (N.Va) to node 6 (Singapore): long haul.
        assert_eq!(t.latency.base_ns(0, 6), 110_000_000);
    }

    #[test]
    fn cps_shares_bandwidth_between_colocated_processes() {
        let t = Topology::cps(30, 15); // 2 processes per host
        assert_eq!(t.egress_bps[0], 50_000_000);
        let t = Topology::cps(15, 15); // exclusive host
        assert_eq!(t.egress_bps[0], 100_000_000);
        // 16 processes, 15 hosts: host 0 has two.
        let t = Topology::cps(16, 15);
        assert_eq!(t.egress_bps[0], 50_000_000);
        assert_eq!(t.egress_bps[1], 100_000_000);
    }

    #[test]
    fn cps_colocated_latency_lower() {
        let t = Topology::cps(30, 15);
        assert!(t.latency.base_ns(0, 15) < t.latency.base_ns(0, 1));
    }

    #[test]
    fn serialize_ns_scales_with_bytes_and_bandwidth() {
        let mut t = Topology::lan(2);
        t.egress_bps = vec![8_000_000; 2]; // 1 MB/s
        assert_eq!(t.serialize_ns(0, 1000), 1_000_000); // 1 KB -> 1 ms
        assert_eq!(t.serialize_ns(0, 0), 0);
    }

    #[test]
    fn cost_model_affine() {
        let c = CostModel { per_message_ns: 100, per_byte_ns: 2 };
        assert_eq!(c.cost_ns(50), 200);
        assert_eq!(CostModel::FREE.cost_ns(1_000_000), 0);
    }

    #[test]
    fn builders_apply() {
        assert!(Topology::lan(3).with_fifo(true).fifo);
        assert!(!Topology::lan(3).fifo, "the adversary may reorder by default");
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn cps_zero_hosts_rejected() {
        let _ = Topology::cps(4, 0);
    }
}
