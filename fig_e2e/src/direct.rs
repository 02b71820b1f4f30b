//! The `direct` driver: `n` boxed sans-io services on one thread, moved
//! by a zero-delay FIFO router owned by the benchmark.
//!
//! No sockets, no MACs, no cost model, per-step flush and no timers, so
//! the order of calls — and with it every count — is a pure function of
//! the inputs. Only the clock readings differ between runs.
//!
//! The router sees a node through the `Protocol` trait alone, so it
//! learns of a decision the way a driver can: a node refills its pipeline
//! the moment an epoch resolves, so its `k`-th completion is its price
//! source's first call for epoch `depth + k − 1`; the last `depth`
//! completions have no refill and are marked when `is_finished()` turns
//! true.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;

use crate::lock;
use crate::procstat;
use crate::sut::{self, EpochEvent, Inputs, NodeId, SansIoNode, Shape};
use crate::trace::Tracer;

/// Router state at one instant, in router order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mark {
    /// Calls into the services so far: a logical clock that repeats.
    pub calls: u64,
    pub ns: u64,
    /// Envelope copies routed so far, after broadcast expansion.
    pub messages: u64,
    /// Their payload bytes.
    pub bytes: u64,
    /// Process CPU time, read only at the marks [`Router::sample_cpu_at`]
    /// names and at each node's finish; 0 elsewhere.
    pub cpu_s: f64,
}

/// The counters the price-source callbacks read; the router is their
/// only writer, and everything runs on one thread.
#[derive(Debug, Default)]
struct Shared {
    now: Mutex<Mark>,
    /// `spawns[node][epoch]`.
    spawns: Mutex<Vec<Vec<Option<Mark>>>>,
    /// Epochs whose spawn also reads the process CPU time.
    cpu_epochs: Mutex<Vec<u32>>,
}

#[derive(Debug)]
pub struct DirectRun {
    pub shape: Shape,
    /// `completions[node][k - 1]`: the node's `k`-th epoch completion.
    pub completions: Vec<Vec<Mark>>,
    /// `spawns[node][epoch]`.
    pub spawns: Vec<Vec<Mark>>,
    /// Every node's complete ordered stream.
    pub streams: Vec<Vec<EpochEvent<f64>>>,
    /// Set-up: input generation → every node has spawned epoch 0.
    pub setup_s: f64,
    pub total: Mark,
    /// Wall-clock spent inside `start`/`on_message`, all nodes.
    pub busy_ns: u64,
    /// Per-call durations in ns (traced pass only).
    pub call_ns: Vec<f64>,
    /// Entries carried by the routed batches (traced pass only).
    pub entries: u64,
    /// A sample of routed payloads for the codec probes (traced pass only).
    pub captured: Vec<Bytes>,
}

/// How many payloads the traced pass keeps for the probes.
const CAPTURE_LIMIT: usize = 4096;

/// The cluster after set-up: every node built and started, its start
/// bursts queued, nothing delivered yet.
pub struct Router<'t> {
    n: usize,
    origin: Instant,
    shared: Arc<Shared>,
    nodes: Vec<SansIoNode>,
    queue: VecDeque<(usize, usize, Bytes)>,
    now: Mark,
    run: DirectRun,
    tracer: Option<&'t mut Tracer>,
}

impl Router<'_> {
    fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// One service call — `start` when `payload` is `None` — and the
    /// routing of what it sent.
    fn call(&mut self, to: usize, from: usize, payload: Option<&Bytes>) -> Result<(), String> {
        self.now.calls += 1;
        *lock(&self.shared.now) = self.now;
        let t0 = self.elapsed_ns();
        let node = self.nodes.get_mut(to).ok_or("router addressed a node out of range")?;
        let out = match payload {
            Some(p) => node.on_message(NodeId(from as u16), p),
            None => node.start(),
        };
        let t1 = self.elapsed_ns();
        self.run.busy_ns += t1 - t0;
        let tracing = self.tracer.is_some();
        if let Some(tracer) = self.tracer.as_deref_mut() {
            self.run.call_ns.push((t1 - t0) as f64);
            let head = payload.and_then(|p| sut::batch_head(p));
            self.run.entries += head.map_or(0, |(_, count)| count as u64);
            let name = if payload.is_some() { "on_message" } else { "start" };
            tracer.push(name, head.map_or(0, |(epoch, _)| epoch), to as u16, 0, t0, t1);
        }
        for env in out {
            for dest in sut::destinations(&env, to, self.n) {
                self.now.messages += 1;
                self.now.bytes += env.payload.len() as u64;
                if tracing && to == 0 && self.run.captured.len() < CAPTURE_LIMIT {
                    self.run.captured.push(env.payload.clone());
                }
                self.queue.push_back((to, dest, env.payload.clone()));
            }
        }
        Ok(())
    }
}

/// Runs `shape.epochs` epochs to completion. `started` is when set-up
/// began (input generation included); a `tracer` turns the traced pass on.
pub fn run(
    shape: Shape,
    inputs: &Arc<Inputs>,
    started: Instant,
    tracer: Option<&mut Tracer>,
) -> Result<DirectRun, String> {
    set_up(shape, inputs, started, tracer)?.drain()
}

/// Builds and starts every node: all a set-up probe needs.
pub fn set_up<'t>(
    shape: Shape,
    inputs: &Arc<Inputs>,
    started: Instant,
    tracer: Option<&'t mut Tracer>,
) -> Result<Router<'t>, String> {
    let n = shape.n;
    let epochs = shape.epochs as usize;
    let origin = Instant::now();
    let shared = Arc::new(Shared::default());
    *lock(&shared.spawns) = vec![vec![None; epochs]; n];

    let mut nodes: Vec<SansIoNode> = Vec::with_capacity(n);
    for node in 0..n {
        let cell = shared.clone();
        let source = sut::price_source(inputs.clone(), node, move |epoch| {
            let cpu_s = match lock(&cell.cpu_epochs).contains(&epoch) {
                true => procstat::cpu_seconds().unwrap_or(0.0),
                false => 0.0,
            };
            let mark = Mark { ns: origin.elapsed().as_nanos() as u64, cpu_s, ..*lock(&cell.now) };
            let mut spawns = lock(&cell.spawns);
            if let Some(slot) = spawns.get_mut(node).and_then(|s| s.get_mut(epoch as usize)) {
                *slot = Some(mark);
            }
        });
        nodes.push(shape.sans_io(node, source)?);
    }

    let mut router = Router {
        n,
        origin,
        shared,
        nodes,
        queue: VecDeque::new(),
        now: Mark::default(),
        run: DirectRun {
            shape,
            completions: Vec::new(),
            spawns: Vec::new(),
            streams: Vec::new(),
            setup_s: 0.0,
            total: Mark::default(),
            busy_ns: 0,
            call_ns: Vec::new(),
            entries: 0,
            captured: Vec::new(),
        },
        tracer,
    };
    for node in 0..n {
        router.call(node, node, None)?;
    }
    router.run.setup_s = started.elapsed().as_secs_f64();
    Ok(router)
}

impl Router<'_> {
    pub fn setup_s(&self) -> f64 {
        self.run.setup_s
    }

    /// Has the mark of each node's `k`-th completion, for every `k` in
    /// `completions`, carry the process CPU time.
    pub fn sample_cpu_at(&self, completions: &[u32]) {
        // Completion `k` is the spawn of epoch `depth + k - 1`.
        let depth = self.run.shape.depth as u32;
        *lock(&self.shared.cpu_epochs) =
            completions.iter().map(|k| (depth + k).saturating_sub(1)).collect();
    }

    /// Delivers messages in FIFO order until none is left.
    pub fn drain(mut self) -> Result<DirectRun, String> {
        let mut finished: Vec<Option<Mark>> = vec![None; self.n];
        while let Some((from, to, payload)) = self.queue.pop_front() {
            self.call(to, from, Some(&payload))?;
            let done = finished.get_mut(to).ok_or("router addressed a node out of range")?;
            if done.is_none() && self.nodes.get(to).is_some_and(|node| node.is_finished()) {
                let cpu_s = procstat::cpu_seconds().unwrap_or(0.0);
                *done = Some(Mark { ns: self.elapsed_ns(), cpu_s, ..self.now });
            }
        }
        let total_ns = self.elapsed_ns();
        let Router { shared, nodes, now, mut run, .. } = self;
        let (shape, epochs) = (run.shape, run.shape.epochs as usize);
        run.total = Mark { ns: total_ns, ..now };
        let spawns = std::mem::take(&mut *lock(&shared.spawns));
        for (marks, finish) in spawns.into_iter().zip(finished) {
            let finish =
                finish.ok_or("direct run stalled: the queue drained before every node finished")?;
            let marks: Vec<Mark> = marks.into_iter().map(Option::unwrap_or_default).collect();
            // Completion k (1-based) refilled the pipeline with epoch
            // depth + k - 1; the last `depth` completions have no refill.
            let mut completions: Vec<Mark> = marks.iter().skip(shape.depth).copied().collect();
            completions.resize(epochs, finish);
            run.completions.push(completions);
            run.spawns.push(marks);
        }
        for node in &nodes {
            run.streams.push(node.output().unwrap_or_default());
        }
        Ok(run)
    }
}

impl DirectRun {
    /// The instant every node had completed `k` epochs (`k ≥ 1`), as the
    /// mark of the last node to get there in router order.
    pub fn all_completed(&self, k: usize) -> Option<Mark> {
        self.completions
            .iter()
            .map(|list| k.checked_sub(1).and_then(|i| list.get(i)).copied())
            .collect::<Option<Vec<Mark>>>()?
            .into_iter()
            .max_by_key(|m| m.calls)
    }

    /// Decide latencies in ms: epoch spawn → the completion that refilled
    /// its pipeline slot, pooled over nodes, for epochs `from..to`.
    pub fn decide_ms(&self, from: usize, to: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for (spawns, completions) in self.spawns.iter().zip(&self.completions) {
            for (spawn, done) in spawns.iter().zip(completions).take(to).skip(from) {
                out.push(done.ns.saturating_sub(spawn.ns) as f64 / 1e6);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;

    fn smoke_shape(vector: bool) -> Shape {
        Shape { n: 4, basket: 2, vector, depth: 2, adaptive: false, epochs: 5 }
    }

    #[test]
    fn direct_smoke_passes_the_gate_and_repeats_its_counts() {
        for vector in [false, true] {
            let shape = smoke_shape(vector);
            let inputs = Arc::new(Inputs::generate(3, shape.n, shape.basket, shape.epochs));
            let a = run(shape, &inputs, Instant::now(), None).expect("run a");
            let b = run(shape, &inputs, Instant::now(), None).expect("run b");
            let live: Vec<usize> = (0..shape.n).collect();
            let report = gate::check_streams(&inputs, &live, 2, shape.epochs, &a.streams);
            assert_eq!((report.attempted, report.failed), (5, 0), "{:?}", report.first_failure);
            assert_eq!(a.streams, b.streams);
            let counts = |r: &DirectRun| (r.total.calls, r.total.messages, r.total.bytes);
            assert_eq!(counts(&a), counts(&b), "the router's counts are exact");
            assert!(a.total.messages > 0 && a.total.bytes > 0 && a.busy_ns > 0);
            for k in 1..=5 {
                let (ma, mb) =
                    (a.all_completed(k).expect("mark"), b.all_completed(k).expect("mark"));
                assert_eq!((ma.calls, ma.bytes), (mb.calls, mb.bytes), "completion {k}");
            }
            let marks: Vec<u64> =
                (1..=5).filter_map(|k| a.all_completed(k)).map(|m| m.calls).collect();
            assert!(marks.windows(2).all(|w| w[0] <= w[1]), "completions are ordered: {marks:?}");
            assert_eq!(a.decide_ms(0, 5).len(), 4 * 5);
        }
    }

    #[test]
    fn traced_pass_records_a_span_per_call_and_captures_payloads() {
        let shape = smoke_shape(false);
        let inputs = Arc::new(Inputs::generate(3, shape.n, shape.basket, shape.epochs));
        let mut tracer = Tracer::default();
        let r = run(shape, &inputs, Instant::now(), Some(&mut tracer)).expect("run");
        assert_eq!(tracer.spans.len() as u64, r.total.calls);
        assert_eq!(r.call_ns.len() as u64, r.total.calls);
        assert_eq!(tracer.spans.iter().filter(|s| s.name == "start").count(), 4);
        assert!(!r.captured.is_empty() && r.entries >= r.total.messages);
        tracer.wrap_epochs();
        assert_eq!(tracer.spans.iter().filter(|s| s.name == "epoch").count(), 5);
    }
}
