//! Runs one workload: set-ups, warm-up, the untimed-check closed loop, and
//! the optional traced pass; assembles every metric.

use crate::metrics::{self, Def};
use crate::stats::{highest_resolved, median, percentile, samples_beyond, MIN_TAIL_SAMPLES};
use crate::trace::Tracer;
use crate::workloads::{Model, Workload};
use elp2im_dram::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The timed loop runs in rounds, each on a freshly built system, so that
/// set-up samples and requests spread over the whole run rather than one
/// moment of a host whose speed drifts.
const ROUNDS: usize = 5;
/// Set-up samples per round: at least one, more until this much set-up
/// time is spent (at most [`MAX_SETUPS`]). `setup_s` is the median of all
/// of them, so cheap set-ups are sampled often enough to be steady.
const SETUP_SECONDS: f64 = 0.05;
const MAX_SETUPS: usize = 400;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Everything a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub attempted: usize,
    pub failed: usize,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    /// End-to-end metrics, then (traced runs) per-layer metrics.
    pub metrics: Vec<Metric>,
    pub traced: bool,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The full record: every metric with unit and sample count.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj()
                    .with("value", Json::Num(m.value))
                    .with("unit", Json::str(&m.unit))
                    .with("samples", Json::Num(m.samples as f64));
                (m.name.clone(), v)
            })
            .collect();
        Json::obj()
            .with("workload", Json::str(&self.workload))
            .with("seed", Json::Num(self.seed as f64))
            .with("traced", Json::Bool(self.traced))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("problems", Json::Arr(self.problems.iter().map(Json::str).collect()))
            .with("metrics", Json::Obj(metrics))
    }

    /// Parses [`Outcome::to_json`].
    pub fn from_json(doc: &Json) -> Option<Outcome> {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
        let Json::Obj(fields) = doc.get("metrics")? else {
            return None;
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                Some(Metric {
                    name: name.clone(),
                    value: m.get("value")?.as_f64()?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                    samples: m.get("samples")?.as_f64()? as usize,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: num("seed")? as u64,
            attempted: num("attempted")? as usize,
            failed: num("failed")? as usize,
            problems: doc
                .get("problems")?
                .as_array()?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            metrics,
            traced: matches!(doc.get("traced"), Some(Json::Bool(true))),
        })
    }

    /// The result line the benchmark contract asks for: host end-to-end
    /// metrics untraced, per-layer metrics traced.
    pub fn contract_line(&self) -> Json {
        let defs: Vec<Def> =
            if self.traced { metrics::per_layer() } else { metrics::HOST.to_vec() };
        let metrics = defs
            .iter()
            .map(|d| {
                let value = self.get(d.name).map_or(0.0, |m| m.value);
                let v = Json::obj().with("value", Json::Num(value)).with("unit", Json::str(d.unit));
                (d.name.to_string(), v)
            })
            .collect();
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("metrics", Json::Obj(metrics))
    }
}

fn metric(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
    Metric { name: name.to_string(), value, unit: unit.to_string(), samples }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Serves request `i` untraced, then checks it: the time the request took,
/// and what went wrong if anything did.
fn serve_checked<W: Workload>(w: &W, sut: &mut W::Sut, i: usize) -> (Duration, Result<(), String>) {
    let t = Instant::now();
    let reply = w.serve(sut, i, None);
    let took = t.elapsed();
    let verdict = match reply {
        Ok(r) => w.check(i, r).then_some(()).ok_or(format!("request {i}: wrong result")),
        Err(e) => Err(format!("request {i}: {e}")),
    };
    (took, verdict)
}

/// Builds fresh systems until a round's set-up samples are taken, timing
/// each into `samples`, and returns the last one.
fn fresh<W: Workload>(w: &W, samples: &mut Vec<f64>) -> Result<W::Sut, String> {
    let (mut spent, mut taken) = (0.0, 0);
    loop {
        let t = Instant::now();
        let sut = w.setup()?;
        let took = t.elapsed().as_secs_f64();
        samples.push(took);
        (spent, taken) = (spent + took, taken + 1);
        if spent >= SETUP_SECONDS || taken >= MAX_SETUPS {
            return Ok(sut);
        }
    }
}

/// Runs workload `w` under `opts`.
///
/// # Errors
///
/// A set-up that fails, or an error inside the traced pass.
pub fn run<W: Workload>(name: &str, w: &W, opts: Options) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    if let Err(e) = w.self_check() {
        problems.push(format!("self-check: {e}"));
    }
    let (warm, k) = (w.warmup(), w.model_requests());
    let budget = opts.seconds / if opts.trace { 2.0 } else { 1.0 } / ROUNDS as f64;
    let mut setup_s = Vec::new();
    let mut latencies = Vec::new();
    let mut prefix = Model::default();
    let mut failed = 0;
    let mut traced = opts.trace.then(Traced::default);
    for round in 0..ROUNDS {
        let mut sut = fresh(w, &mut setup_s)?;
        for i in 0..warm {
            if let Err(e) = serve_checked(w, &mut sut, i).1 {
                problems.push(format!("warm-up {e}"));
            }
        }
        // The closed loop: one caller, next request after the previous one
        // completes. Oracle checks run between requests, outside the timers.
        // The first round also serves the modeled prefix in full.
        let model_start = w.modeled(&mut sut);
        let first = latencies.len();
        let start = Instant::now();
        while (round == 0 && latencies.len() < k) || start.elapsed().as_secs_f64() < budget {
            let (took, verdict) = serve_checked(w, &mut sut, warm + latencies.len());
            latencies.push(took.as_secs_f64());
            if let Err(e) = verdict {
                if failed < 3 {
                    eprintln!("{name}: {e}");
                }
                failed += 1;
            }
            if round == 0 && latencies.len() == k {
                prefix = w.modeled(&mut sut).since(&model_start);
            }
        }
        drop(sut);
        // The traced replay of a round follows it directly, so both see the
        // same host conditions.
        if let Some(t) = traced.as_mut() {
            t.replay(w, round == 0, first, latencies.len() - first, &mut problems)?;
        }
    }
    let n = latencies.len();
    let busy: f64 = latencies.iter().sum();
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let mut m = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric("requests_per_s", n as f64 / busy, "req/s", n),
        metric("latency_p50_us", percentile(&sorted, 50.0) * 1e6, "us", n),
        metric("latency_p90_us", percentile(&sorted, 90.0) * 1e6, "us", n),
        metric("peak_rss_mb", rss, "MB", 1),
        metric("dram_ns_per_req", prefix.makespan_ns / k as f64, "modeled_ns", k),
    ];
    if prefix.dynamic_pj + prefix.background_pj > 0.0 {
        let nj = (prefix.dynamic_pj + prefix.background_pj) / 1000.0 / k as f64;
        m.push(metric("dram_nj_per_req", nj, "modeled_nJ", k));
    }
    m.push(metric("failed_frac", failed as f64 / n as f64, "fraction", n));
    if samples_beyond(n, 90.0) < MIN_TAIL_SAMPLES {
        let p = highest_resolved(n).map_or("none".into(), |p| format!("p{p}"));
        eprintln!("{name}: {n} requests leave latency_p90_us unresolved (highest resolved: {p})");
    }
    if failed as f64 > w.allowed_failures() * n as f64 {
        problems.push(format!("{failed} of {n} requests failed"));
    }

    let mut outcome = Outcome {
        workload: name.to_string(),
        seed: opts.seed,
        attempted: n,
        failed,
        problems,
        metrics: m,
        traced: opts.trace,
    };
    if let Some(t) = traced {
        t.finish(name, w, &mut outcome, busy, prefix)?;
    }
    Ok(outcome)
}

/// The traced pass: every untraced round replayed request for request on
/// a fresh system, with spans and the stall sink.
#[derive(Debug, Default)]
struct Traced {
    tracer: Tracer,
    /// Wall time of the replayed requests, oracle checks excluded.
    wall: f64,
    prefix: Model,
    /// Per-round layer counters, weighted by the round's requests.
    counters: BTreeMap<&'static str, f64>,
    requests: usize,
}

impl Traced {
    /// Replays requests `first..first + count` (after the warm-up).
    fn replay<W: Workload>(
        &mut self,
        w: &W,
        model_round: bool,
        first: usize,
        count: usize,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        let (warm, k) = (w.warmup(), w.model_requests());
        let mut sut = w.setup()?;
        w.install_sink(&mut sut);
        for i in 0..warm {
            serve_checked(w, &mut sut, i).1.map_err(|e| format!("traced warm-up {e}"))?;
        }
        let model_start = w.modeled(&mut sut);
        let mut outside = Duration::ZERO;
        let start = Instant::now();
        for j in 0..count {
            let i = warm + first + j;
            self.tracer.begin_request(i);
            let root = self.tracer.enter("bench.self", "request");
            // An error leaves spans open; the pass ends there.
            let reply = w
                .serve(&mut sut, i, Some(&mut self.tracer))
                .map_err(|e| format!("traced request {i}: {e}"))?;
            self.tracer.exit(root);
            self.tracer.end_request();
            let t = Instant::now();
            if !w.check(i, reply) {
                problems.push(format!("traced request {i}: wrong result"));
            }
            if model_round && j + 1 == k {
                self.prefix = w.modeled(&mut sut).since(&model_start);
            }
            outside += t.elapsed();
        }
        self.wall += (start.elapsed() - outside).as_secs_f64();
        for (key, v) in w.layer_counters(&sut, count) {
            *self.counters.entry(key).or_default() += v * count as f64;
        }
        self.requests += count;
        Ok(())
    }

    /// Appends the per-layer metrics and writes the trace file.
    fn finish<W: Workload>(
        self,
        name: &str,
        w: &W,
        out: &mut Outcome,
        untraced_busy: f64,
        untraced_prefix: Model,
    ) -> Result<(), String> {
        let (n, k, wall, prefix) = (self.requests, w.model_requests(), self.wall, self.prefix);
        if prefix.without_waits() != untraced_prefix {
            out.problems.push("the traced pass modeled different DRAM costs".into());
        }
        let coverage = self.tracer.root_time_ns() as f64 / 1e9 / wall;
        if (coverage - 1.0).abs() > 0.05 {
            out.problems
                .push(format!("per-layer self times cover {coverage:.3} of traced wall time"));
        }
        let mut values: BTreeMap<&str, f64> =
            self.counters.iter().map(|(&key, v)| (key, v / n as f64)).collect();
        let by_layer = self.tracer.self_time_by_layer();
        for (layer, share) in metrics::LAYERS {
            values.insert(share, by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e9 / wall);
        }
        let per = |x: f64| x / k as f64;
        let [bank, bus, refresh, pump] = prefix.waits_ps.map(|ps| per(ps as f64 / 1000.0));
        let overlap =
            if prefix.makespan_ns > 0.0 { prefix.busy_ns / prefix.makespan_ns } else { 0.0 };
        values.extend([
            ("dram.busy_ns", per(prefix.busy_ns)),
            ("dram.overlap", overlap),
            ("dram.pump_stall_ns", per(prefix.pump_stall_ns)),
            ("dram.stall_ns.bank", bank),
            ("dram.stall_ns.bus", bus),
            ("dram.stall_ns.refresh", refresh),
            ("dram.stall_ns.pump", pump),
            ("dram.commands", per(prefix.commands as f64)),
            ("dram.wordline_activations", per(prefix.activations as f64)),
            ("dram.dynamic_nj", per(prefix.dynamic_pj / 1000.0)),
            ("dram.background_nj", per(prefix.background_pj / 1000.0)),
            ("trace.overhead_frac", wall / untraced_busy - 1.0),
            ("trace.coverage", coverage),
        ]);
        for d in metrics::per_layer() {
            if out.get(d.name).is_none() {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                out.metrics.push(metric(d.name, v, d.unit, n));
            }
        }

        let dir = Path::new("target").join("benchmark");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!("{name}.trace.json"));
        std::fs::write(&file, self.tracer.to_json(name).to_string())
            .map_err(|e| format!("{}: {e}", file.display()))
    }
}
