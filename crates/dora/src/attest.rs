//! ε-rounding and the attestation exchange.

use bytes::Bytes;
use delphi_core::DelphiNode;
use delphi_crypto::signing::{Signature, SigningKey, Verifier};
use delphi_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use delphi_primitives::{Envelope, NodeBitSet, NodeId, Protocol};

/// Rounds `value` to the index of the closest multiple of `epsilon`
/// (ties round half-up, deterministically across nodes).
///
/// # Panics
///
/// Panics if `epsilon` is not strictly positive or `value` is not finite.
///
/// # Example
///
/// ```
/// use delphi_dora::round_to_epsilon;
///
/// assert_eq!(round_to_epsilon(41_237.3, 2.0), 20_619); // 41 238 $
/// assert_eq!(round_to_epsilon(41_237.3, 2.0) as f64 * 2.0, 41_238.0);
/// assert_eq!(round_to_epsilon(-3.1, 0.5), -6);
/// ```
pub fn round_to_epsilon(value: f64, epsilon: f64) -> i64 {
    assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
    assert!(value.is_finite(), "value must be finite");
    (value / epsilon).round() as i64
}

/// A `t + 1`-signature certificate over an ε-multiple.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// The attested value as an index: `value = k · ε`.
    pub k: i64,
    /// The agreement distance used for rounding.
    pub epsilon: f64,
    /// The aggregated signatures (distinct signers, ≥ t + 1).
    pub signatures: Vec<Signature>,
}

impl Certificate {
    /// The attested real value `k · ε`.
    pub fn value(&self) -> f64 {
        self.k as f64 * self.epsilon
    }

    /// The byte string each signature covers.
    pub fn message_for(k: i64, epsilon: f64) -> Vec<u8> {
        Self::message_with_context(&[], k, epsilon)
    }

    /// The byte string each signature covers when the attestation is
    /// bound to a deployment-defined context (e.g. an `(epoch, asset)`
    /// address, so a feed certificate cannot be replayed for a different
    /// slot). An empty context reproduces [`Certificate::message_for`]
    /// byte for byte; callers must use fixed-width contexts to keep the
    /// encoding prefix-free.
    pub fn message_with_context(context: &[u8], k: i64, epsilon: f64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(b"delphi-dora-attest");
        w.put_raw(context);
        w.put_i64(k);
        w.put_f64(epsilon);
        w.into_vec()
    }

    /// Verifies the certificate: at least `t + 1` valid signatures from
    /// distinct in-range signers over this certificate's value.
    pub fn verify(&self, verifier: &Verifier, n: usize, t: usize) -> bool {
        self.verify_with_context(&[], verifier, n, t)
    }

    /// [`Certificate::verify`] over a context-bound message (see
    /// [`Certificate::message_with_context`]).
    pub fn verify_with_context(
        &self,
        context: &[u8],
        verifier: &Verifier,
        n: usize,
        t: usize,
    ) -> bool {
        let msg = Self::message_with_context(context, self.k, self.epsilon);
        let mut signers = NodeBitSet::new(n);
        let mut valid = 0usize;
        for sig in &self.signatures {
            if sig.signer.index() < n && verifier.verify(&msg, sig) && signers.insert(sig.signer) {
                valid += 1;
            }
        }
        valid > t
    }
}

impl Encode for Certificate {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(self.k);
        w.put_f64(self.epsilon);
        w.put_seq(&self.signatures);
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Certificate {
            k: r.get_i64()?,
            epsilon: {
                let e = r.get_f64()?;
                if !(e.is_finite() && e > 0.0) {
                    return Err(WireError::InvalidValue);
                }
                e
            },
            signatures: r.get_seq(1024)?,
        })
    }
}

/// A DORA wire message: inner Delphi traffic or an attestation.
#[derive(Clone, Debug, PartialEq)]
pub enum DoraMsg {
    /// Encapsulated Delphi bundle.
    Inner(Bytes),
    /// Signature over the sender's rounded output.
    Attest {
        /// The attested ε-multiple index.
        k: i64,
        /// The sender's signature over [`Certificate::message_for`].
        sig: Signature,
    },
}

impl Encode for DoraMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            DoraMsg::Inner(b) => {
                w.put_raw_u8(0);
                w.put_bytes(b);
            }
            DoraMsg::Attest { k, sig } => {
                w.put_raw_u8(1);
                w.put_i64(*k);
                w.put(sig);
            }
        }
    }
}

impl Decode for DoraMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_raw_u8()? {
            0 => Ok(DoraMsg::Inner(Bytes::copy_from_slice(r.get_bytes()?))),
            1 => Ok(DoraMsg::Attest { k: r.get_i64()?, sig: r.get()? }),
            d => Err(WireError::InvalidDiscriminant(u64::from(d))),
        }
    }
}

/// Signature-operation counters backing the Table III comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Signatures this node created.
    pub signs: u64,
    /// Signature verifications this node performed.
    pub verifications: u64,
}

/// A DORA oracle node: Delphi plus the attestation round.
///
/// Output is the [`Certificate`] this node assembled (ready for the SMR
/// channel). Honest nodes may assemble certificates for one of at most
/// two adjacent ε-multiples; the SMR channel orders them and the first
/// one wins (§V, Table III "Agreement").
///
/// # Example
///
/// ```
/// use delphi_core::DelphiConfig;
/// use delphi_dora::DoraNode;
/// use delphi_primitives::{NodeId, Protocol};
/// use delphi_sim::{Simulation, Topology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = DelphiConfig::builder(4)
///     .space(0.0, 1000.0).rho0(1.0).delta_max(16.0).epsilon(1.0)
///     .build()?;
/// let inputs = [500.2, 500.4, 499.9, 500.1];
/// let nodes = NodeId::all(4)
///     .map(|id| DoraNode::new(cfg.clone(), id, inputs[id.index()], b"seed").boxed())
///     .collect();
/// let report = Simulation::new(Topology::lan(4)).seed(2).run(nodes);
/// let cert = report.honest_outputs().next().expect("certified");
/// assert!(cert.signatures.len() >= 2); // t + 1 = 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DoraNode {
    inner: DelphiNode,
    key: SigningKey,
    verifier: Verifier,
    epsilon: f64,
    t: usize,
    /// Our rounded output, once the inner protocol finished.
    own_k: Option<i64>,
    /// Collected valid signatures per candidate multiple.
    collected: Vec<(i64, Vec<Signature>, NodeBitSet)>,
    /// Attestations that arrived before our own rounding was known.
    pending: Vec<(i64, Signature)>,
    certificate: Option<Certificate>,
    ops: OpCounts,
}

impl DoraNode {
    /// Creates a DORA node over a Delphi configuration; `seed` is the
    /// deployment's attestation-key seed.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the configuration.
    pub fn new(cfg: delphi_core::DelphiConfig, me: NodeId, value: f64, seed: &[u8]) -> DoraNode {
        let epsilon = cfg.epsilon();
        let t = cfg.t();
        DoraNode {
            inner: DelphiNode::new(cfg, me, value),
            key: SigningKey::derive(seed, me),
            verifier: Verifier::new(seed),
            epsilon,
            t,
            own_k: None,
            collected: Vec::new(),
            pending: Vec::new(),
            certificate: None,
            ops: OpCounts::default(),
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = Certificate>> {
        Box::new(self)
    }

    /// Signature-operation counters (Table III).
    pub fn op_counts(&self) -> OpCounts {
        self.ops
    }

    fn wrap_inner(envelopes: Vec<Envelope>) -> Vec<Envelope> {
        envelopes
            .into_iter()
            .map(|env| {
                let msg = DoraMsg::Inner(env.payload);
                Envelope { to: env.to, payload: msg.to_bytes() }
            })
            .collect()
    }

    /// An attestation is plausible only for the two multiples adjacent to
    /// our own (ε-agreement bounds honest roundings to that window).
    fn plausible_k(&self, k: i64) -> bool {
        match self.own_k {
            Some(own) => (k - own).abs() <= 1,
            None => true, // buffered until we know our own
        }
    }

    fn record_attestation(&mut self, k: i64, sig: Signature) {
        if self.certificate.is_some() || !self.plausible_k(k) {
            return;
        }
        if self.own_k.is_none() {
            if self.pending.len() < 4 * (self.t + 1).max(8) {
                self.pending.push((k, sig));
            }
            return;
        }
        // Verify before counting (the Table III verification column).
        self.ops.verifications += 1;
        let msg = Certificate::message_for(k, self.epsilon);
        if !self.verifier.verify(&msg, &sig) {
            return;
        }
        let n = self.inner.n();
        let entry = match self.collected.iter_mut().position(|(kk, _, _)| *kk == k) {
            Some(i) => &mut self.collected[i],
            None => {
                self.collected.push((k, Vec::new(), NodeBitSet::new(n)));
                self.collected.last_mut().expect("just pushed")
            }
        };
        if entry.2.insert(sig.signer) {
            entry.1.push(sig);
        }
        if entry.1.len() > self.t {
            self.certificate =
                Some(Certificate { k, epsilon: self.epsilon, signatures: entry.1.clone() });
        }
    }

    /// Called when the inner Delphi output appears: round, sign, attest.
    fn attest_own(&mut self) -> Vec<Envelope> {
        let Some(output) = self.inner.output() else {
            return Vec::new();
        };
        if self.own_k.is_some() {
            return Vec::new();
        }
        let k = round_to_epsilon(output, self.epsilon);
        self.own_k = Some(k);
        let msg = Certificate::message_for(k, self.epsilon);
        let sig = self.key.sign(&msg);
        self.ops.signs += 1;
        self.record_attestation(k, sig);
        // Drain buffered attestations now that plausibility is known.
        for (pk, psig) in std::mem::take(&mut self.pending) {
            self.record_attestation(pk, psig);
        }
        vec![Envelope::to_all(DoraMsg::Attest { k, sig }.to_bytes())]
    }
}

impl Protocol for DoraNode {
    type Output = Certificate;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        let mut out = Self::wrap_inner(self.inner.start());
        out.extend(self.attest_own());
        out
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        let Ok(msg) = DoraMsg::from_bytes(payload) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        match msg {
            DoraMsg::Inner(inner) => {
                out.extend(Self::wrap_inner(self.inner.on_message(from, &inner)));
                out.extend(self.attest_own());
            }
            DoraMsg::Attest { k, sig } => {
                if sig.signer == from {
                    self.record_attestation(k, sig);
                }
            }
        }
        out
    }

    fn output(&self) -> Option<Certificate> {
        self.certificate.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_core::DelphiConfig;
    use delphi_primitives::wire::roundtrip;
    use delphi_sim::adversary::Faulty;
    use delphi_sim::{Simulation, Topology};

    fn cfg(n: usize) -> DelphiConfig {
        DelphiConfig::builder(n)
            .space(0.0, 1000.0)
            .rho0(1.0)
            .delta_max(16.0)
            .epsilon(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn rounding_rules() {
        assert_eq!(round_to_epsilon(10.0, 2.0), 5);
        assert_eq!(round_to_epsilon(10.9, 2.0), 5);
        assert_eq!(round_to_epsilon(11.1, 2.0), 6);
        assert_eq!(round_to_epsilon(-10.9, 2.0), -5);
        assert_eq!(round_to_epsilon(0.25, 0.5), 1); // half-up
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rounding_rejects_bad_epsilon() {
        let _ = round_to_epsilon(1.0, 0.0);
    }

    #[test]
    fn certificate_roundtrip_and_verification() {
        let n = 4;
        let t = 1;
        let msg = Certificate::message_for(42, 1.0);
        let sigs: Vec<Signature> =
            (0..2u16).map(|i| SigningKey::derive(b"seed", NodeId(i)).sign(&msg)).collect();
        let cert = Certificate { k: 42, epsilon: 1.0, signatures: sigs };
        assert_eq!(roundtrip(&cert).unwrap(), cert);
        assert_eq!(cert.value(), 42.0);
        let verifier = Verifier::new(b"seed");
        assert!(cert.verify(&verifier, n, t));
        // Wrong seed fails.
        assert!(!cert.verify(&Verifier::new(b"other"), n, t));
        // Too few signatures fails.
        let thin = Certificate { signatures: cert.signatures[..1].to_vec(), ..cert.clone() };
        assert!(!thin.verify(&verifier, n, t));
    }

    #[test]
    fn duplicate_signers_dont_count_twice() {
        let msg = Certificate::message_for(7, 1.0);
        let sig = SigningKey::derive(b"seed", NodeId(0)).sign(&msg);
        let cert = Certificate { k: 7, epsilon: 1.0, signatures: vec![sig, sig] };
        assert!(!cert.verify(&Verifier::new(b"seed"), 4, 1));
    }

    #[test]
    fn dora_msg_roundtrip() {
        let m = DoraMsg::Inner(Bytes::from_static(b"bundle"));
        assert_eq!(roundtrip(&m).unwrap(), m);
        let sig = SigningKey::derive(b"s", NodeId(1)).sign(b"x");
        let m = DoraMsg::Attest { k: -9, sig };
        assert_eq!(roundtrip(&m).unwrap(), m);
    }

    fn run_dora(n: usize, inputs: &[f64], faulty: &[usize], seed: u64) -> Vec<Certificate> {
        let nodes: Vec<Box<dyn Protocol<Output = Certificate>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    Box::new(Faulty::crash(id, n)) as Box<dyn Protocol<Output = Certificate>>
                } else {
                    DoraNode::new(cfg(n), id, inputs[id.index()], b"seed").boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(report.all_honest_finished(), "DORA stalled: {:?}", report.stop);
        report.honest_outputs().cloned().collect()
    }

    #[test]
    fn certificates_form_and_verify() {
        let n = 4;
        let inputs = [500.2, 500.4, 499.9, 500.1];
        let certs = run_dora(n, &inputs, &[], 1);
        let verifier = Verifier::new(b"seed");
        let mut values = std::collections::BTreeSet::new();
        for cert in &certs {
            assert!(cert.verify(&verifier, n, 1));
            assert!(cert.signatures.len() >= 2);
            values.insert(cert.k);
            // Validity: within the honest range ± (δ + ε).
            assert!((498.0..=502.0).contains(&cert.value()), "value {}", cert.value());
        }
        // §V: at most two candidate outputs.
        assert!(values.len() <= 2, "candidates: {values:?}");
        if values.len() == 2 {
            let v: Vec<i64> = values.into_iter().collect();
            assert_eq!(v[1] - v[0], 1, "candidates must be adjacent");
        }
    }

    #[test]
    fn tolerates_crash_fault() {
        let n = 4;
        let inputs = [500.2, 500.4, 499.9, 0.0];
        let certs = run_dora(n, &inputs, &[3], 2);
        assert_eq!(certs.len(), 3);
        let verifier = Verifier::new(b"seed");
        for cert in &certs {
            assert!(cert.verify(&verifier, n, 1));
        }
    }

    #[test]
    fn forged_attestations_rejected() {
        let n = 4;
        let mut node = DoraNode::new(cfg(n), NodeId(0), 500.0, b"seed");
        let _ = node.start();
        // A signature from the wrong key must not count.
        let bad_sig = SigningKey::derive(b"wrong-seed", NodeId(2)).sign(b"whatever");
        let msg = DoraMsg::Attest { k: 500, sig: bad_sig };
        let _ = node.on_message(NodeId(2), &msg.to_bytes());
        assert_eq!(node.output(), None);
        // A signature relayed by a different node (signer != from) is
        // dropped before verification.
        let sig = SigningKey::derive(b"seed", NodeId(3)).sign(b"x");
        let msg = DoraMsg::Attest { k: 500, sig };
        let _ = node.on_message(NodeId(2), &msg.to_bytes());
        assert_eq!(node.output(), None);
    }

    #[test]
    fn op_counts_track_signing_work() {
        let n = 4;
        let inputs = [500.2, 500.4, 499.9, 500.1];
        let nodes: Vec<DoraNode> = NodeId::all(n)
            .map(|id| DoraNode::new(cfg(n), id, inputs[id.index()], b"seed"))
            .collect();
        // Before running: zero ops.
        for node in &nodes {
            assert_eq!(node.op_counts(), OpCounts::default());
        }
    }
}
