//! Criterion microbenchmarks of the application studies and the
//! DRAM scheduler.

use criterion::{criterion_group, criterion_main, Criterion};
use elp2im_apps::backend::PimBackend;
use elp2im_apps::bitmap::BitmapStudy;
use elp2im_apps::dracc::{table2_networks, DraccStudy};
use elp2im_apps::tablescan::TableScanStudy;
use elp2im_dram::command::CommandProfile;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::TopoPath;
use elp2im_dram::hierarchy::HierarchicalScheduler;
use elp2im_dram::timing::Ddr3Timing;

fn bench_studies(c: &mut Criterion) {
    c.bench_function("bitmap_study_full_sweep", |b| {
        let study = BitmapStudy::paper_setup(4);
        b.iter(|| {
            let mut acc = 0.0;
            for rows in [4usize, 6, 8, 10] {
                acc += study.system_improvement(&PimBackend::ambit_with_reserved(rows));
            }
            acc += study.system_improvement(&PimBackend::elp2im_high_throughput());
            acc
        })
    });
    c.bench_function("tablescan_study_all_widths", |b| {
        let study = TableScanStudy::paper_setup();
        let e = PimBackend::elp2im_high_throughput();
        b.iter(|| {
            TableScanStudy::widths().iter().map(|&w| study.system_improvement(&e, w)).sum::<f64>()
        })
    });
    c.bench_function("dracc_table2_full", |b| {
        let study = DraccStudy::paper_setup();
        let ambit = PimBackend::ambit().without_power_constraint();
        b.iter(|| table2_networks().iter().map(|n| study.fps(n, &ambit)).sum::<f64>())
    });
}

fn bench_controller(c: &mut Criterion) {
    c.bench_function("controller_8banks_512_commands", |b| {
        let t = Ddr3Timing::ddr3_1600();
        let streams: Vec<_> = (0..8)
            .map(|bank| (TopoPath::flat_bank(bank), vec![CommandProfile::ap(&t); 64]))
            .collect();
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        b.iter(|| sched.schedule(&streams).unwrap())
    });
}

criterion_group!(benches, bench_studies, bench_controller);
criterion_main!(benches);
