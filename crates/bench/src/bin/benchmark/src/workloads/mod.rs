//! The five workloads and what they share.

pub mod bitmap;
pub mod certify;
pub mod fault_soak;
pub mod synth;
pub mod tablescan;

use crate::trace::{StallSink, Tracer};
use elp2im_core::batch::{BatchHandle, BatchRun, DeviceArray};
use elp2im_core::compile::LogicOp;
use elp2im_core::error::CoreError;
use elp2im_core::planlint::BatchPlan;
use elp2im_dram::command::CommandProfile;
use elp2im_dram::geometry::TopoPath;
use elp2im_dram::hierarchy::HierarchicalScheduler;
use elp2im_dram::stats::RunStats;
use std::collections::BTreeMap;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 5] = ["bitmap", "tablescan", "fault_soak", "synth", "certify"];

/// One benchmark workload: a system under test built by `setup` and a
/// stream of requests it serves one at a time (a closed loop with a single
/// caller).
pub trait Workload {
    /// The system under test.
    type Sut;
    /// What a request returns, checked against the oracle after the
    /// request's timer has stopped.
    type Reply;

    /// Builds a fresh system under test: everything done before the first
    /// request. Timed as `setup_s`; oracle work stays out of it.
    fn setup(&self) -> Result<Self::Sut, String>;

    /// Assertions on fresh systems, run once outside every timed region.
    fn self_check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Untimed requests served before timing starts, so caches fill.
    fn warmup(&self) -> usize;

    /// Leading timed requests whose modeled DRAM cost is averaged into the
    /// modeled metrics: a fixed prefix, so those repeat exactly whatever
    /// the host speed.
    fn model_requests(&self) -> usize;

    /// Serves request `i`, recording spans when `tr` is given.
    fn serve(
        &self,
        sut: &mut Self::Sut,
        i: usize,
        tr: Option<&mut Tracer>,
    ) -> Result<Self::Reply, String>;

    /// Whether the reply to request `i` matches the oracle.
    fn check(&self, i: usize, reply: Self::Reply) -> bool;

    /// Share of requests that may fail before the run counts as incorrect.
    fn allowed_failures(&self) -> f64 {
        0.0
    }

    /// Cumulative modeled DRAM totals of everything served so far.
    fn modeled(&self, sut: &mut Self::Sut) -> Model;

    /// Installs the metrics-only stall sink (traced pass).
    fn install_sink(&self, _sut: &mut Self::Sut) {}

    /// Per-layer counters over the `requests` traced requests.
    fn layer_counters(&self, sut: &Self::Sut, requests: usize) -> Vec<(&'static str, f64)>;
}

/// Cumulative modeled DRAM cost (simulated, not host time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    pub makespan_ns: f64,
    pub busy_ns: f64,
    pub pump_stall_ns: f64,
    pub dynamic_pj: f64,
    pub background_pj: f64,
    pub commands: u64,
    pub activations: u64,
    /// Per-cause waits from the stall sink: bank, bus, refresh, pump (ps).
    pub waits_ps: [u64; 4],
}

impl Model {
    /// Totals of a [`RunStats`] (waits are not part of it).
    pub fn of_stats(s: &RunStats) -> Model {
        Model {
            makespan_ns: s.makespan.as_f64(),
            busy_ns: s.busy_time.as_f64(),
            pump_stall_ns: s.pump_stall.as_f64(),
            dynamic_pj: s.energy.as_f64(),
            background_pj: s.background_energy.as_f64(),
            commands: s.total_commands(),
            activations: s.wordline_activations,
            waits_ps: [0; 4],
        }
    }

    /// What was added since `before`.
    pub fn since(&self, before: &Model) -> Model {
        let mut waits_ps = [0; 4];
        for (w, (a, b)) in waits_ps.iter_mut().zip(self.waits_ps.iter().zip(before.waits_ps)) {
            *w = a - b;
        }
        Model {
            makespan_ns: self.makespan_ns - before.makespan_ns,
            busy_ns: self.busy_ns - before.busy_ns,
            pump_stall_ns: self.pump_stall_ns - before.pump_stall_ns,
            dynamic_pj: self.dynamic_pj - before.dynamic_pj,
            background_pj: self.background_pj - before.background_pj,
            commands: self.commands - before.commands,
            activations: self.activations - before.activations,
            waits_ps,
        }
    }

    /// The same totals without the sink-only waits, for comparing a traced
    /// pass against an untraced one.
    pub fn without_waits(&self) -> Model {
        Model { waits_ps: [0; 4], ..*self }
    }
}

/// Modeled totals of an array: its cumulative [`RunStats`] plus the waits
/// its stall sink (if installed) has summed.
pub fn array_model(array: &mut DeviceArray) -> Model {
    let mut m = Model::of_stats(array.stats());
    if let Some(sink) = array.take_trace_sink() {
        if let Some(s) = sink.as_any().downcast_ref::<StallSink>() {
            m.waits_ps = s.waits_ps;
        }
        array.set_trace_sink(sink);
    }
    m
}

/// Times `f` as a leaf span when tracing.
pub fn timed<R>(
    tr: Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.time(layer, name, f),
        None => f(),
    }
}

/// Converts a core error into the benchmark's error text.
pub fn err(e: CoreError) -> String {
    e.to_string()
}

/// Per-operation placement counters of the traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    pub ops: u64,
    pub stripes: u64,
    pub banks: u64,
    pub channels: u64,
}

impl OpCounts {
    fn record(&mut self, stripes: usize, run: &BatchRun) {
        self.ops += 1;
        self.stripes += stripes as u64;
        self.banks += run.banks_used as u64;
        self.channels += run.channels_used as u64;
    }

    /// The placement counters every array workload reports.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per_op = |x: u64| if self.ops == 0 { 0.0 } else { x as f64 / self.ops as f64 };
        vec![
            ("batch.stripes_per_op", per_op(self.stripes)),
            ("batch.banks_used", per_op(self.banks)),
            ("batch.channels_used", per_op(self.channels)),
        ]
    }
}

/// The per-bank command streams of a plan, grouped exactly as
/// `DeviceArray` groups them before scheduling.
pub fn plan_streams(plan: &BatchPlan) -> Vec<(TopoPath, Vec<CommandProfile>)> {
    let mut by_stream: BTreeMap<TopoPath, Vec<CommandProfile>> = BTreeMap::new();
    for step in &plan.steps {
        by_stream.entry(step.stream).or_default().extend(step.program.profiles(&plan.timing));
    }
    by_stream.into_iter().collect()
}

/// Layer probes for `DeviceArray` operations. `binary` and `not` run
/// prepare, engine execution and scheduling inside one call; the traced
/// pass times a dry-run [`DeviceArray::plan`] (prepare) and a
/// [`HierarchicalScheduler::schedule`] of that plan's streams next to each
/// call, and charges the rest of the call to the engine.
#[derive(Debug)]
pub struct Probe {
    scheduler: HierarchicalScheduler,
    pub counts: OpCounts,
}

/// What one probe measured.
#[derive(Debug, Clone, Copy)]
pub struct Probed {
    pub prepare_ns: u64,
    pub schedule_ns: u64,
    pub stripes: usize,
}

impl Probe {
    pub fn new(array: &DeviceArray) -> Probe {
        Probe {
            scheduler: HierarchicalScheduler::new(array.config().budget.clone()),
            counts: OpCounts::default(),
        }
    }

    /// Times the prepare and schedule probes for `op(a, b)`.
    pub fn measure(
        &self,
        tr: &mut Tracer,
        array: &mut DeviceArray,
        op: LogicOp,
        a: BatchHandle,
        b: Option<BatchHandle>,
    ) -> Result<Probed, String> {
        let outer = tr.enter("trace.probe", "layer probes");
        let p = tr.enter("trace.probe", "DeviceArray::plan");
        let plan = array.plan(op, a, b).map_err(err)?;
        let prepare_ns = tr.exit(p);
        let streams = plan_streams(&plan);
        let s = tr.enter("trace.probe", "HierarchicalScheduler::schedule");
        self.scheduler.schedule(&streams).map_err(|e| e.to_string())?;
        let schedule_ns = tr.exit(s);
        tr.exit(outer);
        Ok(Probed { prepare_ns, schedule_ns, stripes: plan.steps.len() })
    }

    /// `array.binary(op, a, b)` (or `array.not(a)`) inside an engine span,
    /// preceded by its layer probes.
    pub fn op(
        &mut self,
        tr: &mut Tracer,
        array: &mut DeviceArray,
        op: LogicOp,
        a: BatchHandle,
        b: Option<BatchHandle>,
    ) -> Result<BatchHandle, String> {
        let probed = self.measure(tr, array, op, a, b)?;
        let name = if b.is_some() { "DeviceArray::binary" } else { "DeviceArray::not" };
        let id = tr.enter("engine.exec", name);
        let out = match b {
            Some(b) => array.binary(op, a, b),
            None => array.not(a),
        };
        tr.exit(id);
        tr.carve(id, "batch.prepare", probed.prepare_ns);
        tr.carve(id, "hierarchy.schedule", probed.schedule_ns);
        let (h, run) = out.map_err(err)?;
        self.counts.record(probed.stripes, &run);
        Ok(h)
    }
}
