//! The metric catalog. `BENCHMARK.json` lists the same names, units and
//! directions; a test keeps the two in step.

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics measured on the host, with a regression bound each
/// in `BENCHMARK.json`.
pub const HOST: [Def; 5] = [
    def("setup_s", "s", "lower"),
    def("requests_per_s", "req/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("latency_p90_us", "us", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// End-to-end metrics that repeat exactly for a given seed: modeled DRAM
/// cost and failures. They may not move at all under a host-only change.
pub const EXACT: [Def; 3] = [
    def("dram_ns_per_req", "modeled_ns", "lower"),
    def("dram_nj_per_req", "modeled_nJ", "lower"),
    def("failed_frac", "fraction", "lower"),
];

/// Host layers whose self time the traced pass attributes (span layer
/// names), each reported as the share of traced wall time in the paired
/// metric.
pub const LAYERS: [(&str, &str); 12] = [
    ("apps.self", "apps.self_share"),
    ("batch.store", "batch.store_share"),
    ("batch.prepare", "batch.prepare_share"),
    ("batch.load", "batch.load_share"),
    ("batch.release", "batch.release_share"),
    ("engine.exec", "engine.exec_share"),
    ("hierarchy.schedule", "hierarchy.schedule_share"),
    ("bitvec.count_ones", "bitvec.count_ones_share"),
    ("synth.self", "synth.self_share"),
    ("planlint.certify", "planlint.certify_share"),
    ("bench.self", "bench.self_share"),
    ("trace.probe", "trace.probe_share"),
];

/// Per-layer metrics other than the self-time shares: counts per request
/// (or per operation), ratios, and modeled DRAM totals per request.
pub const COUNTERS: [Def; 35] = [
    def("apps.ops_per_req", "count", "lower"),
    def("batch.stripes_per_op", "count", "lower"),
    def("batch.banks_used", "count", "higher"),
    def("batch.channels_used", "count", "higher"),
    def("analysis.cache_entries", "count", "lower"),
    def("faulty.verified_frac", "fraction", "higher"),
    def("faulty.verify_recomputes", "count", "lower"),
    def("faulty.verify_mismatches", "count", "lower"),
    def("faulty.retries", "count", "lower"),
    def("faulty.retries_exhausted", "count", "lower"),
    def("faulty.injected_flips", "count", "lower"),
    def("faulty.useful_frac", "fraction", "higher"),
    def("synth.egraph_nodes", "count", "lower"),
    def("synth.iterations", "count", "lower"),
    def("synth.unsaturated_frac", "fraction", "lower"),
    def("synth.gates", "count", "lower"),
    def("synth.primitives", "count", "lower"),
    def("planlint.steps", "count", "lower"),
    def("planlint.accepted_frac", "fraction", "higher"),
    def("dram_ns_per_req", "modeled_ns", "lower"),
    def("dram_nj_per_req", "modeled_nJ", "lower"),
    def("failed_frac", "fraction", "lower"),
    def("dram.busy_ns", "modeled_ns", "lower"),
    def("dram.overlap", "ratio", "higher"),
    def("dram.pump_stall_ns", "modeled_ns", "lower"),
    def("dram.stall_ns.bank", "modeled_ns", "lower"),
    def("dram.stall_ns.bus", "modeled_ns", "lower"),
    def("dram.stall_ns.refresh", "modeled_ns", "lower"),
    def("dram.stall_ns.pump", "modeled_ns", "lower"),
    def("dram.commands", "count", "lower"),
    def("dram.wordline_activations", "count", "lower"),
    def("dram.dynamic_nj", "modeled_nJ", "lower"),
    def("dram.background_nj", "modeled_nJ", "lower"),
    def("trace.overhead_frac", "fraction", "lower"),
    def("trace.coverage", "fraction", "higher"),
];

/// Every per-layer metric, shares first.
pub fn per_layer() -> Vec<Def> {
    LAYERS.iter().map(|&(_, share)| def(share, "fraction", "lower")).chain(COUNTERS).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elp2im_dram::json::Json;

    fn defs(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("metric field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn own(list: &[Def]) -> Vec<(String, String, String)> {
        list.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(defs(&doc, "end_to_end"), own(&HOST));
        assert_eq!(defs(&doc, "per_layer"), own(&per_layer()));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        for d in EXACT {
            assert!(COUNTERS.contains(&d), "{} is recorded by the traced run", d.name);
        }
    }
}
