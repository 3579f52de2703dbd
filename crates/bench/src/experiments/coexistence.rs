//! PIM / regular-access coexistence — the §1 motivation made measurable.
//!
//! "When a memory array is performing a logic operation, there is little
//! to no power left for other banks to perform regular memory accesses."
//!
//! Four banks run a PIM operation stream (per design) while the other
//! four serve regular activate-precharge accesses, all sharing the JEDEC
//! charge-pump budget of one rank. The table reports how much
//! regular-access throughput survives next to each design.

use crate::report::{num, ratio, Table};
use elp2im_apps::backend::{OpKind, PimBackend};
use elp2im_core::compile::LogicOp;
use elp2im_dram::command::CommandProfile;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::TopoPath;
use elp2im_dram::hierarchy::HierarchicalScheduler;
use elp2im_dram::timing::Ddr3Timing;
use elp2im_dram::units::Ps;

/// Result of one coexistence run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coexistence {
    /// Regular accesses completed per microsecond while PIM runs.
    pub access_rate_per_us: f64,
    /// PIM commands completed per microsecond.
    pub pim_rate_per_us: f64,
}

/// Schedules `accesses` regular APs spread over banks 4–7 alongside banks
/// 0–3 each repeating the `pim` command stream for as many commands as an
/// access bank holds, and measures both completion rates up to the last
/// access. The scheduler issues whichever bank frees first, as the batch
/// executor does.
pub fn run_coexistence(pim: &[CommandProfile], accesses: usize) -> Coexistence {
    let per_bank = accesses / 4;
    let ap = CommandProfile::ap(&Ddr3Timing::ddr3_1600());
    let pim_stream: Vec<_> = pim.iter().cycle().take(per_bank).cloned().collect();
    let streams: Vec<_> = (0..8)
        .map(|b| {
            let stream = if b < 4 { pim_stream.clone() } else { vec![ap.clone(); per_bank] };
            (TopoPath::flat_bank(b), stream)
        })
        .collect();
    let s = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600())
        .schedule(&streams)
        .expect("flat bank paths are valid");
    let last_access = s.bank_done.iter().filter(|(p, _)| p.bank >= 4).map(|&(_, done)| done);
    let last_access = last_access.max().unwrap_or(Ps::ZERO);
    let pim_done = s.commands.iter().filter(|c| c.bank() < 4 && c.done <= last_access).count();
    let us = last_access.to_ns().as_f64() / 1000.0;
    Coexistence {
        access_rate_per_us: (4 * per_bank) as f64 / us,
        pim_rate_per_us: pim_done as f64 / us,
    }
}

/// Regenerates the coexistence comparison.
pub fn run() -> Table {
    let mut table = Table::new(
        "Coexistence: regular accesses on 4 banks while 4 banks compute (JEDEC pump budget)",
        &["PIM design", "access rate (/us)", "vs idle rank", "PIM commands (/us)"],
    );
    // Baseline: the same accesses alone on banks 4–7.
    let ap = CommandProfile::ap(&Ddr3Timing::ddr3_1600());
    let streams: Vec<_> = (4..8).map(|b| (TopoPath::flat_bank(b), vec![ap.clone(); 250])).collect();
    let s = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600())
        .schedule(&streams)
        .expect("flat bank paths are valid")
        .stats;
    let idle_rate = 1000.0 / (s.makespan.as_f64() / 1000.0);
    table.push(vec!["(idle)".into(), num(idle_rate), ratio(1.0), num(0.0)]);

    let designs: Vec<(&str, Vec<CommandProfile>)> = vec![
        (
            "ELP2IM (in-place AND)",
            PimBackend::elp2im_high_throughput().kind_profiles(OpKind::InPlace(LogicOp::And)),
        ),
        ("ELP2IM (fresh AND)", PimBackend::elp2im_high_throughput().op_profiles(LogicOp::And)),
        ("Ambit (AND)", PimBackend::ambit().op_profiles(LogicOp::And)),
        ("Drisa_nor (AND)", PimBackend::drisa().op_profiles(LogicOp::And)),
    ];
    for (name, profiles) in designs {
        let c = run_coexistence(&profiles, 1000);
        table.push(vec![
            name.into(),
            num(c.access_rate_per_us),
            ratio(c.access_rate_per_us / idle_rate),
            num(c.pim_rate_per_us),
        ]);
    }
    table.note(
        "the paper's motivation (section 1): TRA-based computation leaves regular banks starved",
    );
    // Raw numbers for the idle-rank reference run (makespan, pump stalls,
    // dynamic + background energy) back the formatted rates above.
    table.attach_stats(&s);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambit_starves_regular_accesses_more_than_elp2im() {
        let elp = PimBackend::elp2im_high_throughput().kind_profiles(OpKind::InPlace(LogicOp::And));
        let ambit = PimBackend::ambit().op_profiles(LogicOp::And);
        let ce = run_coexistence(&elp, 400);
        let ca = run_coexistence(&ambit, 400);
        assert!(
            ce.access_rate_per_us > ca.access_rate_per_us * 1.3,
            "accesses beside ELP2IM {:.1}/us vs beside Ambit {:.1}/us",
            ce.access_rate_per_us,
            ca.access_rate_per_us
        );
    }

    #[test]
    fn table_reports_idle_first() {
        let t = run();
        assert_eq!(t.rows[0][0], "(idle)");
        assert!(t.rows.len() == 5);
        // Every design leaves less access throughput than the idle rank.
        let parse = |s: &str| -> f64 { s.trim_end_matches('x').parse().unwrap() };
        for row in &t.rows[1..] {
            assert!(parse(&row[2]) <= 1.01, "{}: {}", row[0], row[2]);
        }
    }
}
