//! One workload, one process: calibrate, measure, gate, and turn what the
//! drivers recorded into the named metrics.

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use crate::direct::{self, DirectRun};
use crate::gate::{self, GateReport};
use crate::json::Json;
use crate::layers;
use crate::procstat;
use crate::spec::{Driver, Workload, END_TO_END};
use crate::stats;
use crate::sut::Inputs;
use crate::tcp::{self, Mode, TcpRun};
use crate::trace::Tracer;

/// Calibration probes per run; each also yields a set-up sample.
const PROBES: usize = 3;
/// Further probes that stream a single epoch: set-up samples only.
const SETUP_PROBES: usize = 12;
/// Steady-window segments; each time metric is the median segment's.
const SEGMENTS: u32 = 10;
/// `direct` counts come from this fixed range of completions, so they do
/// not depend on how many epochs the calibrated stream ran.
const COUNT_WINDOW: (usize, usize) = (4, 20);

#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    /// Fixed stream length: skips calibration (used for the untraced
    /// reference run of the traced pass, and by hand).
    pub epochs: Option<u32>,
    pub trace_out: Option<String>,
}

/// One run's result, as the last line of standard output reports it.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
                })),
            ),
        ])
    }
}

/// Warm-up: the first tenth of the stream, at least one epoch.
fn warmup_epochs(epochs: u32) -> u32 {
    epochs.div_ceil(10).max(1)
}

/// Epoch counts that cut the steady window `warmup..epochs` into
/// [`SEGMENTS`] runs of epochs.
fn segment_bounds(epochs: u32, warmup: u32) -> Vec<u32> {
    let steady = epochs.saturating_sub(warmup);
    (0..=SEGMENTS).map(|i| warmup + i * steady / SEGMENTS).collect()
}

/// The time metrics of one steady-window segment.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub agreements_per_s: f64,
    pub decide_p50_ms: f64,
    pub cpu_ms_per_agreement: f64,
}

/// Cuts a run into its segments. `done_s(k)` is when every live node had
/// decided `k` epochs, `cpu_s(i)` the process CPU time at boundary `i`,
/// and `decide_ms(a, b)` the decide latencies of epochs `a..b`.
fn segments(
    bounds: &[u32],
    basket: f64,
    done_s: impl Fn(u32) -> Option<f64>,
    cpu_s: impl Fn(usize) -> Option<f64>,
    decide_ms: impl Fn(u32, u32) -> Vec<f64>,
) -> Result<Vec<Segment>, String> {
    let short = || "steady window too short to cut into segments".to_string();
    let mut out = Vec::new();
    for (i, pair) in bounds.windows(2).enumerate() {
        let [a, b] = *pair else { continue };
        let agreements = f64::from(b.saturating_sub(a)) * basket;
        let wall_s = done_s(b).ok_or_else(short)? - done_s(a).ok_or_else(short)?;
        let cpu = cpu_s(i + 1).ok_or_else(short)? - cpu_s(i).ok_or_else(short)?;
        if agreements <= 0.0 || wall_s <= 0.0 {
            return Err(short());
        }
        out.push(Segment {
            agreements_per_s: agreements / wall_s,
            decide_p50_ms: stats::median(&decide_ms(a, b)).ok_or_else(short)?,
            cpu_ms_per_agreement: cpu * 1e3 / agreements,
        });
    }
    Ok(out)
}

/// What either driver's timed run boils down to.
pub struct Measured {
    pub epochs: u32,
    pub warmup: u32,
    /// The steady window's segments, in stream order.
    pub segments: Vec<Segment>,
    /// Sorted decide latencies of the steady window, ms.
    pub decide_ms: Vec<f64>,
    pub wire_bytes_per_agreement: f64,
    pub setup_s: f64,
    pub gate: GateReport,
    pub reads_attempted: u64,
    pub reads_failed: u64,
    pub tcp: Option<TcpRun>,
    pub direct: Option<DirectRun>,
}

impl Measured {
    /// A time metric as the run reports it: the median segment's.
    fn over_segments(&self, of: fn(&Segment) -> f64) -> f64 {
        let values: Vec<f64> = self.segments.iter().map(of).collect();
        stats::median(&values).unwrap_or(0.0)
    }

    pub fn agreements_per_s(&self) -> f64 {
        self.over_segments(|s| s.agreements_per_s)
    }

    pub fn decide_p50_ms(&self) -> f64 {
        self.over_segments(|s| s.decide_p50_ms)
    }

    pub fn cpu_ms_per_agreement(&self) -> f64 {
        self.over_segments(|s| s.cpu_ms_per_agreement)
    }
}

fn gate_tcp(w: &Workload, inputs: &Inputs, run: &TcpRun) -> GateReport {
    let basket = usize::from(w.basket);
    // What subscribers saw is what users get; `finish()` must agree.
    let mut report = gate::check_streams(inputs, &run.live, basket, run.epochs, &run.hub_streams);
    if run.hub_streams != run.finish_streams {
        let differing = (0..run.epochs as usize)
            .filter(|&e| {
                run.hub_streams.iter().zip(&run.finish_streams).any(|(h, f)| h.get(e) != f.get(e))
            })
            .count();
        report.failed = (report.failed + differing.max(1) as u64).min(report.attempted);
        report
            .first_failure
            .get_or_insert_with(|| "the hub stream differs from the finish() stream".to_string());
    }
    let stale: u64 = run.epoch_stats.iter().map(|s| s.stale_epochs).sum();
    if (stale > 0 || run.kicked > 0) && report.failed == 0 {
        report.failed = 1;
        report.first_failure =
            Some(format!("{stale} stale epochs, {} kicked subscribers", run.kicked));
    }
    report
}

/// The input pool of a timed run: sized by the workload and the run
/// length alone, so set-up does the same work however fast the code is.
fn input_pool(w: &Workload, opts: &Opts) -> Arc<Inputs> {
    Arc::new(Inputs::generate(opts.seed, w.n, w.basket, w.pool_epochs(opts.seconds)))
}

fn measure_tcp(w: &Workload, opts: &Opts, epochs: u32, mode: Mode) -> Result<Measured, String> {
    let started = Instant::now();
    let warmup = warmup_epochs(epochs);
    let bounds = segment_bounds(epochs, warmup);
    let inputs = input_pool(w, opts);
    let run = tcp::run(w, opts.seed, epochs, &bounds, &inputs, started, mode)?;
    let basket = f64::from(w.basket);

    let decide_of = |from: u32, to: u32| -> Vec<f64> {
        let mut out = Vec::new();
        for (spawns, decided) in run.spawn_ns.iter().zip(&run.decided_ns) {
            for (spawn, done) in spawns.iter().zip(decided).take(to as usize).skip(from as usize) {
                out.push(done.saturating_sub(*spawn) as f64 / 1e6);
            }
        }
        out
    };
    let edge = |i: usize| run.edges.get(i).copied().flatten();
    let segments = segments(
        &bounds,
        basket,
        |k| run.all_done_ns.get(k.checked_sub(1)? as usize).map(|&ns| ns as f64 / 1e9),
        |i| edge(i).map(|e| e.cpu_s),
        decide_of,
    )?;
    let mut decide_ms = decide_of(warmup, epochs);
    stats::sort(&mut decide_ms);

    let agreements = f64::from(epochs - warmup) * basket;
    let bytes = match (edge(0), edge(bounds.len() - 1)) {
        (Some(a), Some(b)) => b.net.sent_bytes.saturating_sub(a.net.sent_bytes) as f64 / agreements,
        _ => return Err("a steady-window edge was never reached".into()),
    };
    let gate = gate_tcp(w, &inputs, &run);
    Ok(Measured {
        epochs,
        warmup,
        segments,
        decide_ms,
        wire_bytes_per_agreement: bytes,
        setup_s: run.setup_s,
        gate,
        reads_attempted: run.readers.iter().map(|r| r.attempted).sum(),
        reads_failed: run.readers.iter().map(|r| r.failed).sum::<u64>()
            + run.stream.as_ref().map_or(0, |s| s.out_of_order),
        tcp: Some(run),
        direct: None,
    })
}

fn measure_direct(
    w: &Workload,
    inputs: &Arc<Inputs>,
    started: Instant,
    epochs: u32,
    tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let warmup = warmup_epochs(epochs);
    let bounds = segment_bounds(epochs, warmup);
    let router = direct::set_up(w.shape(epochs), inputs, started, tracer)?;
    router.sample_cpu_at(&bounds);
    let run = router.drain()?;
    let basket = f64::from(w.basket);
    let segments = segments(
        &bounds,
        basket,
        |k| run.all_completed(k as usize).map(|m| m.ns as f64 / 1e9),
        |i| run.all_completed(*bounds.get(i)? as usize).map(|m| m.cpu_s),
        |from, to| run.decide_ms(from as usize, to as usize),
    )?;
    let mut decide_ms = run.decide_ms(warmup as usize, epochs as usize);
    stats::sort(&mut decide_ms);

    // Counts over a fixed range of completions repeat exactly for a seed.
    let (from, to) = COUNT_WINDOW;
    let wire_bytes = match (run.all_completed(from), run.all_completed(to)) {
        (Some(a), Some(b)) if epochs as usize >= to + w.depth => {
            (b.bytes - a.bytes) as f64 / ((to - from) as f64 * basket)
        }
        _ => run.total.bytes as f64 / (f64::from(epochs) * basket),
    };
    let live = w.live_nodes();
    let gate = gate::check_streams(inputs, &live, usize::from(w.basket), epochs, &run.streams);
    Ok(Measured {
        epochs,
        warmup,
        segments,
        decide_ms,
        wire_bytes_per_agreement: wire_bytes,
        setup_s: run.setup_s,
        gate,
        reads_attempted: 0,
        reads_failed: 0,
        tcp: None,
        direct: Some(run),
    })
}

pub fn measure(
    w: &Workload,
    opts: &Opts,
    epochs: u32,
    tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    match w.driver {
        Driver::Tcp => {
            measure_tcp(w, opts, epochs, if tracer.is_some() { Mode::Traced } else { Mode::Timed })
        }
        Driver::Direct => {
            let started = Instant::now();
            measure_direct(w, &input_pool(w, opts), started, epochs, tracer)
        }
    }
}

/// A probe, run in a child process: sets the cluster up, streams
/// `probe_epochs`, prints its set-up time and epoch rate, and exits
/// without tearing anything down. With `--epochs 1` it is a set-up probe:
/// no rate and no stream.
pub fn probe(w: &Workload, opts: &Opts) -> Result<Json, String> {
    let started = Instant::now();
    let epochs = opts.epochs.unwrap_or(w.probe_epochs).max(1);
    let inputs = input_pool(w, opts);
    let (setup_s, done_ns): (f64, Vec<u64>) = match w.driver {
        Driver::Tcp => {
            let mode = if epochs == 1 { Mode::SetupProbe } else { Mode::Probe };
            let run = tcp::run(w, opts.seed, epochs, &[], &inputs, started, mode)?;
            (run.setup_s, run.all_done_ns)
        }
        Driver::Direct => {
            let router = direct::set_up(w.shape(epochs), &inputs, started, None)?;
            if epochs == 1 {
                (router.setup_s(), Vec::new())
            } else {
                let run = router.drain()?;
                let done = (1..=epochs as usize).filter_map(|k| run.all_completed(k));
                (run.setup_s, done.map(|m| m.ns).collect())
            }
        }
    };
    // Rate between the first third, which fills the pipeline, and the
    // last `depth` epochs, which drain it with fewer epochs in flight.
    // Both ends sit on multiples of `depth`: in-flight epochs tend to
    // complete together, and a range that splits such a group is off by
    // most of an epoch.
    let (total, d) = (epochs as usize, w.depth.max(1));
    let from = (total / 3).div_ceil(d).max(1) * d;
    let to = total.saturating_sub(d) / d * d;
    let rate = match (done_ns.get(from - 1), to.checked_sub(1).and_then(|i| done_ns.get(i))) {
        (Some(&a), Some(&b)) if b > a => (to - from) as f64 / ((b - a) as f64 / 1e9),
        _ => 0.0, // a set-up probe: no stream to time
    };
    Ok(Json::obj([("setup_s", Json::Num(setup_s)), ("epochs_per_s", Json::Num(rate))]))
}

/// Runs this binary again with `args` and returns the JSON object on the
/// last line of its standard output. The child has ended when this
/// returns.
pub fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    // A run that fails its gate still prints its result and exits 1: the
    // result is what the caller wants. No result line is the error.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    Json::parse(last)
        .map_err(|e| format!("child {args:?} ({}) printed no result: {e}", output.status))
}

pub fn base_args(w: &Workload, opts: &Opts) -> Vec<String> {
    ["--workload", w.name, "--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()]
        .map(String::from)
        .to_vec()
}

/// Stream length that fills `opts.seconds`, from child probes; also the
/// probes' set-up times.
fn calibrate(w: &Workload, opts: &Opts) -> Result<(u32, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut args = base_args(w, opts);
    args.push("--probe".into());
    let setup_of =
        |doc: &Json| doc.get("setup_s").and_then(Json::as_f64).ok_or("probe without setup_s");
    for _ in 0..PROBES {
        let doc = child(&args)?;
        setups.push(setup_of(&doc)?);
        rates.push(doc.get("epochs_per_s").and_then(Json::as_f64).ok_or("probe without a rate")?);
    }
    args.extend(["--epochs", "1"].map(String::from));
    for _ in 0..SETUP_PROBES {
        setups.push(setup_of(&child(&args)?)?);
    }
    let rate = stats::median(&rates).filter(|r| *r > 0.0).ok_or("no probe timed a stream")?;
    let epochs = (rate * f64::from(opts.seconds)) as u32;
    Ok((epochs.clamp(w.min_epochs, w.pool_epochs(opts.seconds)), setups))
}

/// Runs one workload and reports the metric set `opts.traced` selects.
pub fn run_workload(w: &Workload, opts: &Opts) -> Result<Outcome, String> {
    let (epochs, mut setups) = match opts.epochs {
        Some(epochs) => (epochs.clamp(w.min_epochs, w.pool_epochs(opts.seconds)), Vec::new()),
        None => calibrate(w, opts)?,
    };
    if opts.traced {
        // The pass streams twice, untraced and traced: half the length
        // each, so a traced run lasts as long as a timed one.
        return layers::traced_pass(w, opts, (epochs / 2).max(w.min_epochs));
    }
    let m = measure(w, opts, epochs, None)?;
    setups.push(m.setup_s);
    let measured = [
        ("agreements_per_s", m.agreements_per_s()),
        ("decide_p50_ms", m.decide_p50_ms()),
        ("cpu_ms_per_agreement", m.cpu_ms_per_agreement()),
        ("wire_bytes_per_agreement", m.wire_bytes_per_agreement),
        ("setup_s", stats::median(&setups).unwrap_or(m.setup_s)),
        ("peak_rss_mib", procstat::peak_rss_mib().unwrap_or(0.0)),
    ];
    let mut outcome = outcome_of(&m);
    outcome.metrics = declared(END_TO_END, &measured)?;
    outcome.notes.push(format!(
        "{} epochs ({} warm-up), {} decide samples, highest supported percentile p{}",
        m.epochs,
        m.warmup,
        m.decide_ms.len(),
        stats::highest_supported_percentile(m.decide_ms.len()).unwrap_or(50.0)
    ));
    outcome.notes.push(format!(
        "cores this process may use: {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    ));
    let row = |of: fn(&Segment) -> f64| -> String {
        m.segments.iter().map(|s| format!("{:.2}", of(s))).collect::<Vec<_>>().join(" ")
    };
    outcome.notes.push(format!("segments agreements_per_s: {}", row(|s| s.agreements_per_s)));
    outcome.notes.push(format!("segments decide_p50_ms: {}", row(|s| s.decide_p50_ms)));
    outcome
        .notes
        .push(format!("segments cpu_ms_per_agreement: {}", row(|s| s.cpu_ms_per_agreement)));
    Ok(outcome)
}

/// The declared metrics, in declaration order, each with its measured
/// value and its unit; a declared metric nobody measured is an error.
pub fn declared(
    declaration: &[(&'static str, &'static str)],
    measured: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    declaration
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            Ok((name, value.ok_or_else(|| format!("{name} was never measured"))?, unit))
        })
        .collect()
}

pub fn outcome_of(m: &Measured) -> Outcome {
    let attempted = m.gate.attempted + m.reads_attempted;
    let failed = m.gate.failed + m.reads_failed;
    let mut notes = Vec::new();
    if let Some(why) = &m.gate.first_failure {
        notes.push(format!("correctness gate: {why}"));
    }
    Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics: Vec::new(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_bounds_cut_the_steady_window_evenly() {
        let bounds = segment_bounds(110, 10);
        assert_eq!(bounds.len(), SEGMENTS as usize + 1);
        assert_eq!((bounds.first(), bounds.last()), (Some(&10), Some(&110)));
        assert!(bounds.windows(2).all(|w| w[1] - w[0] == 10));
        assert_eq!(warmup_epochs(105), 11);
        assert_eq!(warmup_epochs(3), 1);
    }

    #[test]
    fn the_median_segment_ignores_one_stall() {
        // Ten epochs of two agreements per segment, one second each,
        // except that the third segment stalls for ten.
        let bounds = segment_bounds(110, 10);
        let done_s = |k: u32| {
            let s = f64::from(k) / 10.0;
            Some(if k >= 40 { s + 9.0 } else { s })
        };
        let cut = segments(
            &bounds,
            2.0,
            done_s,
            |i| Some(i as f64 * 0.5),
            |a, _| vec![f64::from(a), f64::from(a) + 2.0, 1000.0],
        )
        .expect("segments");
        assert_eq!(cut.len(), SEGMENTS as usize);
        let rates: Vec<f64> = cut.iter().map(|s| s.agreements_per_s).collect();
        assert_eq!(rates.iter().filter(|r| (**r - 20.0).abs() < 1e-9).count(), 9);
        assert!(rates.get(2).is_some_and(|r| (*r - 2.0).abs() < 1e-9), "{rates:?}");
        assert_eq!(stats::median(&rates), Some(20.0));
        assert!(cut.iter().all(|s| (s.cpu_ms_per_agreement - 25.0).abs() < 1e-9));
        assert_eq!(cut.first().map(|s| s.decide_p50_ms), Some(12.0));
        // A boundary that was never reached is an error, not a rate.
        assert!(segments(&bounds, 2.0, |_| None, |_| Some(0.0), |_, _| vec![1.0]).is_err());
    }
}
