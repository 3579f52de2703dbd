//! Criterion benchmarks of the bank-parallel batch execution engine.
//!
//! The headline measurement is makespan scaling: the same bulk AND over
//! operands striped across 1, 2, 4, or 8 banks. The modeled wall-clock
//! makespan shrinks nearly linearly with banks (printed once per run for
//! inspection). On the host, banks run on at most one worker per core,
//! and only when an op carries enough work to repay a thread; the
//! `run_banks_calibration` group measures the spawn cost and the
//! per-word cost that set that threshold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elp2im_core::batch::{BatchConfig, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, Topology};

const STRIPES: usize = 8;

fn bench_geometry(banks: usize) -> Geometry {
    Geometry { banks, subarrays_per_bank: 8, rows_per_subarray: 64, row_bytes: 1024 }
}

fn array_with_banks(banks: usize) -> DeviceArray {
    DeviceArray::new(BatchConfig {
        topology: Topology::module(bench_geometry(banks)),
        budget: PumpBudget::unconstrained(),
        ..BatchConfig::default()
    })
}

fn operands(bits: usize) -> (BitVec, BitVec) {
    let a = (0..bits).map(|i| i % 3 == 0).collect();
    let b = (0..bits).map(|i| i % 7 == 0).collect();
    (a, b)
}

/// One bulk AND over `STRIPES` row-sized stripes, sharded over 1..=8
/// banks. Reports both the host simulation rate (criterion timing) and
/// the modeled DRAM makespan (printed).
fn bench_makespan_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_bulk_and");
    for &banks in &[1usize, 2, 4, 8] {
        let bits = array_with_banks(banks).row_bits() * STRIPES;
        let (a, b) = operands(bits);
        group.throughput(Throughput::Elements(bits as u64));

        // Report the modeled scaling once, outside the timed loop.
        let mut array = array_with_banks(banks);
        let ha = array.store(&a).unwrap();
        let hb = array.store(&b).unwrap();
        let (_, run) = array.binary(LogicOp::And, ha, hb).unwrap();
        let s = run.stats();
        println!(
            "batch_bulk_and/{banks}-bank model: makespan {}, serial busy {}, speedup {:.2}x",
            s.makespan,
            s.busy_time,
            s.busy_time.as_f64() / s.makespan.as_f64()
        );

        group.bench_with_input(BenchmarkId::new("banks", banks), &banks, |bch, &banks| {
            bch.iter(|| {
                let mut array = array_with_banks(banks);
                let ha = array.store(&a).unwrap();
                let hb = array.store(&b).unwrap();
                let (hc, run) = array.binary(LogicOp::And, ha, hb).unwrap();
                std::hint::black_box((hc, run.stats().makespan));
            });
        });
    }
    group.finish();
}

/// Topology scaling: the same total bulk-AND work (64 stripes, every
/// unit of the 4-channel array busy) scheduled hierarchically on 1, 2,
/// or 4 channels × 2 ranks × 8 banks under the JEDEC pump budget.
/// Criterion times the host simulation; the modeled makespan (printed)
/// shrinks near-linearly with channels — the BENCH_008 invariant.
fn bench_topology_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_topology");
    let geometry = bench_geometry(8);
    let bits = geometry.row_bits() * 4 * 2 * geometry.banks;
    let (a, b) = operands(bits);
    for &channels in &[1usize, 2, 4] {
        group.throughput(Throughput::Elements(bits as u64));
        let make = || {
            DeviceArray::new(BatchConfig {
                topology: Topology::new(channels, 2, geometry),
                budget: PumpBudget::jedec_ddr3_1600(),
                ..BatchConfig::default()
            })
        };

        // Report the modeled scaling once, outside the timed loop.
        let mut array = make();
        let ha = array.store(&a).unwrap();
        let hb = array.store(&b).unwrap();
        let (_, run) = array.binary(LogicOp::And, ha, hb).unwrap();
        let s = run.stats();
        println!(
            "batch_topology/{channels}-channel model: makespan {}, pump stall {}, {} channels used",
            s.makespan, s.pump_stall, run.channels_used
        );

        group.bench_with_input(BenchmarkId::new("channels", channels), &channels, |bch, _| {
            bch.iter(|| {
                let mut array = make();
                let ha = array.store(&a).unwrap();
                let hb = array.store(&b).unwrap();
                let (hc, run) = array.binary(LogicOp::And, ha, hb).unwrap();
                std::hint::black_box((hc, run.stats().makespan));
            });
        });
    }
    group.finish();
}

/// Calibration of the host worker rule in `DeviceArray::run_banks`
/// (`PARALLEL_MIN_WORDS`): the fixed cost of one extra worker (a scoped
/// thread spawn + join around an empty body), and one bulk AND + release
/// on a 2-bank array of 8 KB rows at growing sizes, with its
/// primitive-word count (primitives × 64-bit words per row) printed so
/// the time per word follows. A worker pays off once its share of the
/// words costs well over a spawn.
fn bench_worker_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_banks_calibration");
    group.bench_function("spawn_join", |bch| {
        bch.iter(|| std::thread::scope(|scope| scope.spawn(|| std::hint::black_box(0)).join()));
    });
    for &stripes in &[2usize, 8, 32, 64, 128, 256] {
        let mut array = DeviceArray::new(BatchConfig {
            budget: PumpBudget::unconstrained(),
            ..BatchConfig::with_banks(2)
        });
        let bits = array.row_bits() * stripes;
        let (a, b) = operands(bits);
        let ha = array.store(&a).unwrap();
        let hb = array.store(&b).unwrap();
        let (hc, _) = array.binary(LogicOp::And, ha, hb).unwrap();
        array.release(hc).unwrap();
        let plan = array.last_plan().unwrap();
        let primitives: usize = plan.steps.iter().map(|s| s.program.primitives().len()).sum();
        println!(
            "run_banks_calibration/words/{stripes}: {} primitive-words",
            primitives * array.row_bits().div_ceil(64)
        );
        group.throughput(Throughput::Elements(bits as u64));
        group.bench_with_input(BenchmarkId::new("words", stripes), &stripes, |bch, _| {
            bch.iter(|| {
                let (hc, run) = array.binary(LogicOp::And, ha, hb).unwrap();
                array.release(hc).unwrap();
                std::hint::black_box(run.stats().makespan);
            });
        });
    }
    group.finish();
}

/// The interleaved scheduler alone (no functional simulation): per-bank
/// streams of mixed ELP2IM commands under the JEDEC pump budget.
fn bench_scheduler(c: &mut Criterion) {
    use elp2im_dram::command::CommandProfile;
    use elp2im_dram::interleave::InterleavedScheduler;
    use elp2im_dram::timing::Ddr3Timing;

    let t = Ddr3Timing::ddr3_1600();
    let mut group = c.benchmark_group("interleaved_scheduler");
    for &banks in &[2usize, 8] {
        let streams: Vec<_> = (0..banks)
            .map(|b| {
                let mut v = Vec::new();
                for _ in 0..64 {
                    v.push(CommandProfile::aap(&t));
                    v.push(CommandProfile::app(&t));
                    v.push(CommandProfile::ap(&t));
                }
                (b, v)
            })
            .collect();
        let total: usize = streams.iter().map(|(_, v)| v.len()).sum();
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("banks", banks), &banks, |bch, _| {
            let sched = InterleavedScheduler::new(PumpBudget::jedec_ddr3_1600());
            bch.iter(|| std::hint::black_box(sched.schedule(&streams).unwrap()));
        });
    }
    group.finish();
}

/// Telemetry overhead on the hot scheduling path: the same 8-bank mixed
/// stream scheduled with no sink argument, with the zero-cost
/// [`NullSink`], and with a recording [`MemorySink`]. The first two must
/// be indistinguishable (the generic `schedule_with` monomorphizes the
/// no-op recorder away); the third pays for event storage.
fn bench_sink_overhead(c: &mut Criterion) {
    use elp2im_dram::command::CommandProfile;
    use elp2im_dram::interleave::InterleavedScheduler;
    use elp2im_dram::telemetry::{MemorySink, NullSink};
    use elp2im_dram::timing::Ddr3Timing;

    let t = Ddr3Timing::ddr3_1600();
    let streams: Vec<_> = (0..8usize)
        .map(|b| {
            let mut v = Vec::new();
            for _ in 0..64 {
                v.push(CommandProfile::aap(&t));
                v.push(CommandProfile::app(&t));
                v.push(CommandProfile::ap(&t));
            }
            (b, v)
        })
        .collect();
    let total: usize = streams.iter().map(|(_, v)| v.len()).sum();
    let sched = InterleavedScheduler::new(PumpBudget::jedec_ddr3_1600());

    let mut group = c.benchmark_group("scheduler_sink");
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("untraced", |bch| {
        bch.iter(|| std::hint::black_box(sched.schedule(&streams).unwrap()));
    });
    group.bench_function("null_sink", |bch| {
        bch.iter(|| {
            std::hint::black_box(sched.schedule_with(&streams, &mut NullSink).unwrap());
        });
    });
    group.bench_function("memory_sink", |bch| {
        bch.iter(|| {
            let mut sink = MemorySink::new();
            let s = sched.schedule_with(&streams, &mut sink).unwrap();
            std::hint::black_box((s, sink.len()));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_makespan_scaling,
    bench_topology_scaling,
    bench_worker_calibration,
    bench_scheduler,
    bench_sink_overhead
);
criterion_main!(benches);
