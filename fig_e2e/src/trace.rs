//! In-memory spans, written as JSON lines when the traced pass ends.
//!
//! The spans are recorded from the benchmark's own files, around the
//! calls into each layer; the program under test carries none. One epoch
//! is one trace: every span of epoch `e` has `trace == e`, and the epoch
//! span is the parent of the per-call spans.

use std::io::Write;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    /// The span that caused this one, 0 for a root.
    pub parent: u32,
    /// The epoch this span belongs to.
    pub trace: u32,
    pub name: &'static str,
    pub node: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept per traced pass. `direct-n16` makes some 14 000 calls per
/// agreement; past the cap spans are counted, not kept.
const SPAN_CAP: usize = 200_000;

#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    /// Spans that arrived after the cap was reached.
    pub dropped: u64,
}

impl Tracer {
    /// Records a span and returns its id (0 once the cap is reached).
    pub fn push(
        &mut self,
        name: &'static str,
        trace: u32,
        node: u16,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            node,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Adds one root `epoch` span per trace id, stretched to cover every
    /// span recorded for that epoch so far, and re-parents those spans'
    /// roots onto it.
    pub fn wrap_epochs(&mut self) {
        let mut bounds: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
        for s in self.spans.iter().filter(|s| s.parent == 0) {
            let b = bounds.entry(s.trace).or_insert((s.start_ns, s.end_ns));
            *b = (b.0.min(s.start_ns), b.1.max(s.end_ns));
        }
        let first_new = self.spans.len() as u32 + 1;
        let ids: std::collections::BTreeMap<u32, u32> =
            bounds.keys().zip(first_new..).map(|(&trace, id)| (trace, id)).collect();
        for s in self.spans.iter_mut().filter(|s| s.parent == 0) {
            s.parent = ids.get(&s.trace).copied().unwrap_or(0);
        }
        // Not through `push`: the roots must exist even past the cap.
        for ((trace, (start_ns, end_ns)), id) in bounds.into_iter().zip(first_new..) {
            let root =
                Span { id, parent: 0, trace, name: "epoch", node: u16::MAX, start_ns, end_ns };
            self.spans.push(root);
        }
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(list) = (s.parent as usize).checked_sub(1).and_then(|p| children.get_mut(p))
            {
                list.push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes one JSON object per span, with its self time, then the
    /// `extra` lines (the sampler's observations).
    pub fn write_jsonl(&self, path: &str, extra: &[Json]) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let line = Json::obj([
                ("id", Json::Num(f64::from(s.id))),
                ("parent", Json::Num(f64::from(s.parent))),
                ("trace", Json::Num(f64::from(s.trace))),
                ("name", Json::str(s.name)),
                (
                    "node",
                    if s.node == u16::MAX { Json::Null } else { Json::Num(f64::from(s.node)) },
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(own as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        for line in extra {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let root = t.push("epoch", 0, 0, 0, 100, 200);
        t.push("a", 0, 0, root, 110, 130);
        t.push("b", 0, 0, root, 120, 150); // overlaps a: union is 110..150
        let c = t.push("c", 0, 0, root, 180, 260); // clipped to the parent's end
        t.push("leaf", 0, 0, c, 190, 200);
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 20, 20, 30, 70, 10]);
    }

    #[test]
    fn epoch_spans_nest_every_call_span() {
        let mut t = Tracer::default();
        t.push("on_message", 3, 1, 0, 50, 60);
        t.push("start", 3, 0, 0, 10, 20);
        t.push("on_message", 4, 2, 0, 55, 70);
        t.wrap_epochs();
        let epochs: Vec<&Span> = t.spans.iter().filter(|s| s.name == "epoch").collect();
        assert_eq!(epochs.len(), 2);
        for s in t.spans.iter().filter(|s| s.name != "epoch") {
            let parent = &t.spans[s.parent as usize - 1];
            assert_eq!(parent.name, "epoch");
            assert_eq!(parent.trace, s.trace);
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
        // Epoch 3's self time is its 50 ns extent minus the 20 ns covered.
        let e3 = epochs.iter().find(|s| s.trace == 3).map(|s| s.id as usize - 1);
        assert_eq!(e3.map(|i| t.self_times_ns()[i]), Some(30));
    }
}
