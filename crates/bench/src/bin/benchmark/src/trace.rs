//! Bench-side tracing: spans around the benchmark's calls into public
//! functions, kept in memory and written out when the run ends, plus a
//! metrics-only [`TraceSink`] for modeled stall attribution.

use elp2im_dram::json::Json;
use elp2im_dram::telemetry::{CommandEvent, TraceSink};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call. `layer` names the module the call's self time is
/// charged to (as `<module>.<part>`); `name` is the public function called.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Portions of this span's self time attributed to other layers, as
    /// measured by probes (e.g. the prepare share of `DeviceArray::binary`).
    pub carve: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Requests whose spans are kept for the trace file; later requests only
/// add to the per-layer totals, so memory stays bounded on long runs.
pub const EXPORTED_REQUESTS: usize = 64;

/// Span recorder for the traced pass. Spans of the request in flight are
/// held until [`Tracer::end_request`] folds them into per-layer self-time
/// totals.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans of the request in flight; ids index this.
    spans: Vec<Span>,
    open: Vec<SpanId>,
    request: usize,
    /// Spans of the first [`EXPORTED_REQUESTS`] requests, parents rebased.
    kept: Vec<Span>,
    requests: usize,
    by_layer: BTreeMap<&'static str, u64>,
    root_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            kept: Vec::new(),
            requests: 0,
            by_layer: BTreeMap::new(),
            root_ns: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts request `request`: spans opened from now on carry its id.
    pub fn begin_request(&mut self, request: usize) {
        assert!(self.spans.is_empty(), "previous request not ended");
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            carve: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attributes `ns` of span `id`'s self time to `layer`.
    pub fn carve(&mut self, id: SpanId, layer: &'static str, ns: u64) {
        self.spans[id].carve.push((layer, ns));
    }

    /// Spans of the request in flight.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends the request in flight: adds its self times to the per-layer
    /// totals. A span's self time is its duration minus its children's;
    /// carved portions move to the named layers (scaled down if the probes
    /// overshoot the self time), so the totals always add up to the summed
    /// duration of the root spans.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn end_request(&mut self) {
        assert!(self.open.is_empty(), "request ended with open spans");
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            match s.parent {
                Some(p) => children[p] += s.duration_ns(),
                None => self.root_ns += s.duration_ns(),
            }
        }
        for (s, kids) in self.spans.iter().zip(children) {
            let own = s.duration_ns().saturating_sub(kids);
            let wanted: u64 = s.carve.iter().map(|(_, ns)| ns).sum();
            let scale = if wanted > own { own as f64 / wanted as f64 } else { 1.0 };
            let mut carved = 0;
            for &(layer, ns) in &s.carve {
                let part = (ns as f64 * scale) as u64;
                *self.by_layer.entry(layer).or_default() += part;
                carved += part;
            }
            *self.by_layer.entry(s.layer).or_default() += own - carved.min(own);
        }
        if self.requests < EXPORTED_REQUESTS {
            let base = self.kept.len();
            self.kept.extend(
                self.spans.drain(..).map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
            );
        }
        self.spans.clear();
        self.requests += 1;
    }

    /// Summed self time per layer over every ended request.
    pub fn self_time_by_layer(&self) -> &BTreeMap<&'static str, u64> {
        &self.by_layer
    }

    /// Summed duration of the root spans (one per request).
    pub fn root_time_ns(&self) -> u64 {
        self.root_ns
    }

    /// The kept spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .kept
            .iter()
            .map(|s| {
                let mut j = Json::obj()
                    .with("name", Json::str(s.name))
                    .with("layer", Json::str(s.layer))
                    .with("request", Json::Num(s.request as f64))
                    .with("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64)))
                    .with("start_ns", Json::Num(s.start_ns as f64))
                    .with("end_ns", Json::Num(s.end_ns as f64));
                if !s.carve.is_empty() {
                    let carve = s
                        .carve
                        .iter()
                        .map(|&(layer, ns)| (layer.to_string(), Json::Num(ns as f64)))
                        .collect();
                    j = j.with("carve_ns", Json::Obj(carve));
                }
                j
            })
            .collect();
        Json::obj()
            .with("format", Json::str("elp2im-benchmark-trace-v1"))
            .with("workload", Json::str(workload))
            .with("requests_traced", Json::Num(self.requests as f64))
            .with("requests_exported", Json::Num(self.requests.min(EXPORTED_REQUESTS) as f64))
            .with(
                "self_ns_by_layer",
                Json::Obj(
                    self.by_layer
                        .iter()
                        .map(|(l, ns)| (l.to_string(), Json::Num(*ns as f64)))
                        .collect(),
                ),
            )
            .with("spans", Json::Arr(spans))
    }
}

/// A trace sink that only sums the modeled per-cause waits; unlike
/// `MemorySink` it keeps no per-command events, so it costs no memory per
/// command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallSink {
    /// Summed waits in picoseconds: bank, bus, refresh, pump.
    pub waits_ps: [u64; 4],
}

impl TraceSink for StallSink {
    fn record(&mut self, e: &CommandEvent) {
        for (sum, wait) in
            self.waits_ps.iter_mut().zip([e.bank_wait, e.bus_wait, e.refresh_wait, e.pump_wait])
        {
            *sum += wait.0;
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span { layer, name: layer, request: 0, parent, start_ns: start, end_ns: end, carve: vec![] }
    }

    #[test]
    fn self_times_subtract_children_and_honour_carves() {
        let mut t = Tracer::default();
        let request = |t: &mut Tracer, carve: Vec<(&'static str, u64)>| {
            t.spans = vec![
                span("bench.self", None, 0, 100),
                span("engine.exec", Some(0), 10, 70),
                span("bitvec.count_ones", Some(0), 70, 90),
                span("batch.store", Some(1), 20, 30),
            ];
            t.spans[1].carve = carve;
            t.end_request();
        };
        request(&mut t, vec![("batch.prepare", 20), ("hierarchy.schedule", 10)]);
        let by = t.self_time_by_layer().clone();
        assert_eq!(by["bench.self"], 100 - 60 - 20);
        assert_eq!(by["engine.exec"], 60 - 10 - 30);
        assert_eq!(by["batch.prepare"], 20);
        assert_eq!(by["hierarchy.schedule"], 10);
        assert_eq!(by["bitvec.count_ones"], 20);
        assert_eq!(by.values().sum::<u64>(), t.root_time_ns());
        // Probes that overshoot the self time are scaled into it.
        request(&mut t, vec![("batch.prepare", 100), ("hierarchy.schedule", 100)]);
        let by = t.self_time_by_layer();
        assert_eq!(by["batch.prepare"] + by["hierarchy.schedule"], 30 + 50);
        assert_eq!(by.values().sum::<u64>(), t.root_time_ns());
        assert_eq!(t.root_time_ns(), 200);
    }

    #[test]
    fn spans_nest_and_only_early_requests_are_kept() {
        let mut t = Tracer::default();
        for r in 0..EXPORTED_REQUESTS + 3 {
            t.begin_request(r);
            let root = t.enter("bench.self", "request");
            t.time("synth.self", "synthesize", || std::hint::black_box(1 + 1));
            assert_eq!(t.spans()[1].parent, Some(root));
            t.exit(root);
            t.end_request();
        }
        assert_eq!(t.kept.len(), 2 * EXPORTED_REQUESTS);
        assert_eq!(t.kept[3].parent, Some(2));
        assert_eq!(t.kept[3].request, 1);
        let doc = t.to_json("synth");
        let spans = doc.get("spans").and_then(Json::as_array).map(<[Json]>::len);
        assert_eq!(spans, Some(2 * EXPORTED_REQUESTS));
    }
}
