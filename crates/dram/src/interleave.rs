//! Single-rank issue-rule tests: per-bank streams embedded at `c0.r0`
//! ([`TopoPath::flat_bank`]) and scheduled by
//! [`crate::hierarchy::HierarchicalScheduler`] — the view the golden
//! traces and the single-module device pin.

#[cfg(test)]
mod tests {
    use crate::command::{CommandClass, CommandProfile};
    use crate::constraint::PumpBudget;
    use crate::geometry::TopoPath;
    use crate::hierarchy::HierarchicalScheduler;
    use crate::power::PowerModel;
    use crate::telemetry::StallReason;
    use crate::timing::Ddr3Timing;
    use crate::units::{Ns, Ps};

    fn t() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    /// Lifts flat `(bank, stream)` pairs to `c0.r0` paths.
    fn flat(streams: &[(usize, Vec<CommandProfile>)]) -> Vec<(TopoPath, Vec<CommandProfile>)> {
        streams.iter().map(|(b, v)| (TopoPath::flat_bank(*b), v.clone())).collect()
    }

    #[test]
    fn single_bank_serializes_and_makespan_equals_busy() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let s = sched.schedule(&flat(&[(0, vec![CommandProfile::ap(&t()); 5])])).unwrap();
        assert_eq!(s.commands.len(), 5);
        assert!((s.stats.makespan.as_f64() - s.stats.busy_time.as_f64()).abs() < 1e-9);
        // Back-to-back, no gaps.
        for w in s.commands.windows(2) {
            assert_eq!(w[0].done, w[1].start);
        }
    }

    #[test]
    fn banks_overlap_when_unconstrained() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![CommandProfile::ap(&t()); 4])).collect();
        let s = sched.schedule(&flat(&streams)).unwrap();
        let expect = CommandProfile::ap(&t()).duration.as_f64() * 4.0;
        assert!((s.stats.makespan.as_f64() - expect).abs() < 0.01);
        assert!((s.stats.busy_time.as_f64() - expect * 8.0).abs() < 0.01);
        assert_eq!(s.stats.pump_stall, Ns::ZERO);
    }

    #[test]
    fn issue_order_round_robins_by_bank_index() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        // Input deliberately out of order: the schedule must not care.
        let streams = vec![
            (2, vec![CommandProfile::ap(&t()); 2]),
            (0, vec![CommandProfile::ap(&t()); 2]),
            (1, vec![CommandProfile::ap(&t()); 2]),
        ];
        let s = sched.schedule(&flat(&streams)).unwrap();
        let order: Vec<usize> = s.commands.iter().map(|c| c.bank()).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn identical_inputs_produce_identical_schedules() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![CommandProfile::aap(&t()); 6])).collect();
        let a = sched.schedule(&flat(&streams)).unwrap();
        let b = sched.schedule(&flat(&streams)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pump_constraint_inserts_recorded_stalls() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![CommandProfile::ap(&t()); 8])).collect();
        let s = sched.schedule(&flat(&streams)).unwrap();
        assert!(s.stats.pump_stall.as_f64() > 0.0);
        let first = s.first_stall().expect("8 concurrent AP streams must stall");
        // The JEDEC budget admits 4 activates per 40 ns window; the fifth
        // command is the first deferred one.
        assert_eq!(first.seq, 4);
        // Sum of per-command stalls must equal the aggregate.
        let total: f64 = s.commands.iter().map(|c| c.pump_stall.to_ns().as_f64()).sum();
        assert!((total - s.stats.pump_stall.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn duplicate_bank_entries_merge_in_order() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let ap = CommandProfile::ap(&t());
        let app = CommandProfile::app(&t());
        let s = sched.schedule(&flat(&[(0, vec![ap.clone()]), (0, vec![app.clone()])])).unwrap();
        assert_eq!(s.commands.len(), 2);
        assert_eq!(s.commands[0].class, CommandClass::Ap);
        assert_eq!(s.commands[1].class, CommandClass::App);
        // One bank: fully serialized.
        assert_eq!(s.commands[1].start, s.commands[0].done);
    }

    #[test]
    fn bank_done_omits_banks_without_work() {
        // The `bank_done` doc promises "banks without work are absent":
        // an explicitly empty stream must not materialize a (bank, 0)
        // entry, whether it stands alone or rides along a duplicate.
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let s = sched
            .schedule(&flat(&[
                (0, vec![CommandProfile::ap(&t())]),
                (3, vec![]),
                (1, vec![CommandProfile::ap(&t())]),
            ]))
            .unwrap();
        let banks: Vec<usize> = s.bank_done.iter().map(|(p, _)| p.bank).collect();
        assert_eq!(banks, vec![0, 1]);
        // An empty duplicate of a working bank must not disturb it either.
        let s = sched
            .schedule(&flat(&[(2, vec![]), (2, vec![CommandProfile::ap(&t())]), (2, vec![])]))
            .unwrap();
        assert_eq!(s.bank_done.len(), 1);
        assert_eq!(s.bank_done[0].0, TopoPath::flat_bank(2));
        assert!(s.bank_done[0].1 > Ps::ZERO);
        // A schedule of only empty streams reports no banks at all.
        let s = sched.schedule(&flat(&[(0, vec![]), (1, vec![])])).unwrap();
        assert!(s.bank_done.is_empty());
        assert_eq!(s.stats.total_commands(), 0);
    }

    #[test]
    fn traced_schedule_matches_untraced_and_fills_sink() {
        use crate::telemetry::MemorySink;
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let streams: Vec<_> = (0..8).map(|b| (b, vec![CommandProfile::ap(&t()); 6])).collect();
        let plain = sched.schedule(&flat(&streams)).unwrap();
        let mut sink = MemorySink::new();
        let traced = sched.schedule_traced(&flat(&streams), &mut sink).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(sink.len(), traced.commands.len());
        for (event, cmd) in sink.events.iter().zip(traced.commands.iter()) {
            assert_eq!(event.seq as usize, cmd.seq);
            assert_eq!(event.path, cmd.path);
            assert_eq!(event.start, cmd.start);
            assert_eq!(event.done, cmd.done);
        }
        // The pump-constrained run must attribute some stalls to the pump.
        assert!(sink.metrics.stalls_by_reason.contains_key("pump"));
    }

    #[test]
    fn bus_and_pump_waits_split_exactly() {
        // Regression for the stall-misattribution bug: a command delayed
        // by both the shared bus and the pump window used to report the
        // whole wait under `pump` in the trace. The split components must
        // now reconcile exactly (integer picoseconds) with the total, and
        // the metrics registry's per-reason sums with its total.
        use crate::telemetry::MemorySink;
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        // 12 banks, one AP each: seqs 0–3 issue at t = 0, seq 4 is pump-
        // deferred to 40 ns, seqs 5–7 bus-wait to 40 ns, and seq 8 hits
        // BOTH — the bus clamp to 40 ns and a again-full pump window
        // pushing it to 80 ns.
        let streams: Vec<_> = (0..12).map(|b| (b, vec![CommandProfile::ap(&t()); 2])).collect();
        let mut sink = MemorySink::new();
        let s = sched.schedule_traced(&flat(&streams), &mut sink).unwrap();

        // Both causes must actually occur in this workload, including at
        // least one command that waits on both at once.
        assert!(sink.events.iter().any(|e| e.bus_wait > Ps::ZERO && e.pump_wait > Ps::ZERO));
        for (e, c) in sink.events.iter().zip(s.commands.iter()) {
            assert!(e.waits_reconcile(), "seq {}: waits do not sum to stall", e.seq);
            assert_eq!(e.pump_wait, c.pump_stall);
            assert_eq!(e.bus_wait, c.bus_wait);
            // Dominance: a pump-deferred command reports `pump` even when
            // it also waited on the bus; a bus-only wait reports `bus`.
            assert_eq!(e.reason, e.dominant_reason());
            if e.reason == StallReason::Bus {
                assert_eq!(e.pump_wait, Ps::ZERO);
            }
        }
        // Exact reconciliation in integer picoseconds, no f64 drift.
        assert!(sink.metrics.total_stall_ps > 0);
        assert!(sink.metrics.stalls_reconcile());
        let pump_ps: u64 = s.commands.iter().map(|c| c.pump_stall.0).sum();
        let bus_ps: u64 = s.commands.iter().map(|c| c.bus_wait.0).sum();
        assert_eq!(sink.metrics.stall_ps_for(StallReason::Pump), pump_ps);
        assert_eq!(sink.metrics.stall_ps_for(StallReason::Bus), bus_ps);
        assert_eq!(sink.metrics.total_stall_ps, pump_ps + bus_ps);
    }

    #[test]
    fn schedule_stamps_background_energy() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let s = sched.schedule(&flat(&[(0, vec![CommandProfile::ap(&t()); 4])])).unwrap();
        let expect = PowerModel::micron_ddr3_1600().background_energy(s.stats.makespan, 1.0);
        assert!((s.stats.background_energy.as_f64() - expect.as_f64()).abs() < 1e-6);
        assert!(s.stats.average_power_mw() > s.stats.dynamic_power_mw());
    }

    #[test]
    fn empty_input_is_empty_schedule() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let s = sched.schedule(&flat(&[])).unwrap();
        assert!(s.commands.is_empty());
        assert_eq!(s.stats.total_commands(), 0);
        assert_eq!(s.stats.makespan, Ns::ZERO);
    }
}
