//! Deterministic scheduling of per-bank command streams across channels,
//! ranks, and banks — the one place the JEDEC issue rules live.
//!
//! The batch execution layer (`elp2im-core::batch`) shards a bulk bitwise
//! operation across banks and needs to know what the command buses
//! actually do with the resulting per-bank primitive streams: the true
//! wall-clock **makespan** under the charge-pump/tFAW window (§6.3), not
//! the per-bank serial `busy_time`. [`HierarchicalScheduler`] produces
//! exactly that, plus an exact per-command trace ([`ScheduledCommand`]) a
//! logic analyzer on the bus would record — which the golden-sequence
//! tests pin down cycle by cycle.
//!
//! Real systems stack three levels (§6.3 and the system-integration
//! discussion in the bulk-bitwise survey): banks of one **rank** share a
//! charge-pump delivery network, **ranks** on the same channel share the
//! command bus, and **channels** share nothing. Streams are addressed by
//! [`TopoPath`]:
//!
//! * each `(channel, rank)` pair gets its own [`PumpWindow`] — the
//!   tFAW-style activation budget constrains ranks independently;
//! * each channel gets its own in-order bus cursor — commands to any rank
//!   of one channel serialize their *issue instants*;
//! * channels are fully independent — a schedule over `c` channels with
//!   identical per-channel work has the makespan of one channel;
//! * optionally, an all-bank refresh blackout of `duration` opens at the
//!   start of every `interval` ([`HierarchicalScheduler::with_refresh`]);
//!   no command starts inside one.
//!
//! A single-rank module is the embedding at `c0.r0`
//! ([`TopoPath::flat_bank`]). The scheduler is stateless: every call
//! starts from an idle array at t = 0 and is a pure function of its
//! inputs.
//!
//! # Determinism
//!
//! Streams merge in input order per path and sort by `(channel, rank,
//! bank)`; at every step the pending command with the earliest bank-free
//! time issues, ties going to the lowest path; the per-channel bus clamp
//! applies at issue, then refresh alignment and the per-rank pump window
//! defer it, alternating until both admit the start. The selection loop
//! runs on a binary heap keyed by bank-free time, so each step is
//! `O(log banks)`.

use crate::command::{CommandClass, CommandProfile};
use crate::constraint::{PumpBudget, PumpWindow};
use crate::error::DramError;
use crate::geometry::{TopoPath, Topology};
use crate::power::PowerModel;
use crate::stats::RunStats;
use crate::telemetry::{CommandEvent, NullSink, StallReason, TraceSink};
use crate::units::{Ns, Ps};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One command as actually issued on a channel's bus.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCommand {
    /// Global issue order (0-based).
    pub seq: usize,
    /// Bank the command executes on. Flat single-rank schedules report
    /// `c0.r0.b<bank>`.
    pub path: TopoPath,
    /// Position within that bank's stream.
    pub index_in_bank: usize,
    /// Command classification.
    pub class: CommandClass,
    /// Issue instant.
    pub start: Ps,
    /// Completion instant.
    pub done: Ps,
    /// Delay inserted before this command because its rank's
    /// charge-pump/tFAW window was exhausted.
    pub pump_stall: Ps,
    /// Delay inserted before this command by in-order issue on its
    /// channel's shared bus (zero when the bank itself was the limiter).
    pub bus_wait: Ps,
}

impl ScheduledCommand {
    /// Flat bank index, for single-rank traces.
    pub fn bank(&self) -> usize {
        self.path.bank
    }
}

/// The full outcome of scheduling one batch of per-bank streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Exact bus trace, in issue order.
    pub commands: Vec<ScheduledCommand>,
    /// Aggregate statistics: `busy_time` is the per-bank serial sum,
    /// `makespan` the true wall clock, `pump_stall` the summed deferrals.
    pub stats: RunStats,
    /// Completion time of each bank that had work, keyed by path and
    /// sorted by it (banks without work are absent).
    pub bank_done: Vec<(TopoPath, Ps)>,
    /// Per-rank statistics, keyed by `(channel, rank)` and sorted by it;
    /// ranks without work are absent. Each entry is the stats of that
    /// rank's sub-trace (its own makespan and standby accrual), so a
    /// [`RunStats::merge_parallel`] fold over the entries reproduces the
    /// whole-schedule `stats`. Flat schedules have at most one entry,
    /// keyed `(0, 0)`.
    pub rank_stats: Vec<((usize, usize), RunStats)>,
}

impl Schedule {
    /// Wall-clock makespan of the batch.
    pub fn makespan(&self) -> Ns {
        self.stats.makespan
    }

    /// The trace restricted to one flat bank (channel 0, rank 0), in
    /// issue order.
    pub fn bank_trace(&self, bank: usize) -> Vec<&ScheduledCommand> {
        self.trace_for(TopoPath::flat_bank(bank))
    }

    /// The trace restricted to one bank path, in issue order.
    pub fn trace_for(&self, path: TopoPath) -> Vec<&ScheduledCommand> {
        self.commands.iter().filter(|c| c.path == path).collect()
    }

    /// The statistics of one rank's sub-trace, if it had work.
    pub fn rank_stats_for(&self, channel: usize, rank: usize) -> Option<&RunStats> {
        self.rank_stats.iter().find(|(id, _)| *id == (channel, rank)).map(|(_, s)| s)
    }

    /// Wall-clock makespan of one channel's sub-trace (zero when the
    /// channel had no work).
    pub fn channel_makespan(&self, channel: usize) -> Ns {
        self.rank_stats
            .iter()
            .filter(|((c, _), _)| *c == channel)
            .map(|(_, s)| s.makespan)
            .fold(Ns::ZERO, |a, b| Ns(a.as_f64().max(b.as_f64())))
    }

    /// The first command that was stalled by the pump window, if any.
    pub fn first_stall(&self) -> Option<&ScheduledCommand> {
        self.commands.iter().find(|c| c.pump_stall > Ps::ZERO)
    }

    /// The schedule as a list of claims — `(path, start)` in bus issue
    /// order — the form [`crate::verify::verify_claims`] checks. A
    /// schedule produced by [`HierarchicalScheduler`] always verifies
    /// clean against its own input streams, budget and refresh window.
    pub fn claims(&self) -> Vec<crate::verify::ClaimedCommand> {
        self.commands
            .iter()
            .map(|c| crate::verify::ClaimedCommand { path: c.path, start: c.start })
            .collect()
    }
}

/// Checks a refresh blackout `(interval, duration)`: a window of
/// `duration` opens at the start of every `interval`, so it needs a
/// non-zero interval and some time outside the blackout.
///
/// # Errors
///
/// [`DramError::InvalidRefresh`] if `interval` is zero or `duration` is
/// at least `interval` (every instant would be blacked out).
pub fn check_refresh(refresh: Option<(Ps, Ps)>) -> Result<(), DramError> {
    match refresh {
        Some((interval, duration)) if interval == Ps::ZERO || duration >= interval => {
            Err(DramError::InvalidRefresh { interval, duration })
        }
        _ => Ok(()),
    }
}

/// End of the refresh blackout `t` falls into, if it falls into one.
/// The window must have passed [`check_refresh`].
pub(crate) fn blackout_end((interval, duration): (Ps, Ps), t: Ps) -> Option<Ps> {
    let offset = t.0 % interval.0;
    (offset < duration.0).then(|| Ps(t.0 - offset + duration.0))
}

/// Deterministic, stateless scheduler for [`TopoPath`]-addressed command
/// streams over a channel/rank/bank hierarchy.
///
/// ```
/// use elp2im_dram::command::CommandProfile;
/// use elp2im_dram::constraint::PumpBudget;
/// use elp2im_dram::geometry::TopoPath;
/// use elp2im_dram::hierarchy::HierarchicalScheduler;
/// use elp2im_dram::timing::Ddr3Timing;
///
/// let t = Ddr3Timing::ddr3_1600();
/// let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
/// // The same two-bank workload on each of four channels…
/// let mut streams = Vec::new();
/// for c in 0..4 {
///     for b in 0..2 {
///         streams.push((TopoPath::new(c, 0, b), vec![CommandProfile::ap(&t); 3]));
///     }
/// }
/// let s = sched.schedule(&streams).unwrap();
/// // …takes exactly as long as one channel alone: channels share nothing.
/// let one: Vec<_> = streams.iter().filter(|(p, _)| p.channel == 0).cloned().collect();
/// assert_eq!(s.stats.makespan, sched.schedule(&one).unwrap().stats.makespan);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalScheduler {
    budget: PumpBudget,
    power: PowerModel,
    refresh: Option<(Ps, Ps)>,
}

impl HierarchicalScheduler {
    /// A scheduler giving every rank its own copy of `budget`, with the
    /// default Micron power model and no refresh.
    pub fn new(budget: PumpBudget) -> Self {
        HierarchicalScheduler { budget, power: PowerModel::micron_ddr3_1600(), refresh: None }
    }

    /// Replaces the power model used for energy accounting.
    pub fn with_power_model(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Sets the all-bank refresh blackout `(interval, duration)` — e.g.
    /// DDR3-1600's tREFI × tRFC, 7.8 µs × 260 ns — or `None` to model no
    /// refresh (the paper's evaluation ignores it). Scheduling rejects a
    /// degenerate window ([`check_refresh`]).
    pub fn with_refresh(mut self, refresh: Option<(Ps, Ps)>) -> Self {
        self.refresh = refresh;
        self
    }

    /// The per-rank budget.
    pub fn budget(&self) -> &PumpBudget {
        &self.budget
    }

    /// Schedules `streams` (pairs of path and that bank's in-order
    /// command stream) from an idle array at t = 0.
    ///
    /// # Errors
    ///
    /// [`DramError::BankOutOfRange`] if a path component is at or above
    /// `usize::MAX / 2` (a sentinel for obviously corrupt indices; any
    /// path is otherwise legal — see [`HierarchicalScheduler::schedule_for`]
    /// for topology-validated scheduling), and
    /// [`DramError::InvalidRefresh`] for a degenerate refresh window.
    pub fn schedule(
        &self,
        streams: &[(TopoPath, Vec<CommandProfile>)],
    ) -> Result<Schedule, DramError> {
        self.schedule_with(streams, &mut NullSink)
    }

    /// [`HierarchicalScheduler::schedule`], validating every path against
    /// `topology` first.
    ///
    /// # Errors
    ///
    /// [`DramError::PathOutOfRange`] if a stream's path is outside
    /// `topology`; otherwise as [`HierarchicalScheduler::schedule`].
    pub fn schedule_for(
        &self,
        topology: &Topology,
        streams: &[(TopoPath, Vec<CommandProfile>)],
    ) -> Result<Schedule, DramError> {
        for (path, _) in streams {
            if !topology.contains(*path) {
                return Err(DramError::PathOutOfRange {
                    path: *path,
                    channels: topology.channels,
                    ranks: topology.ranks_per_channel,
                    banks: topology.geometry.banks,
                });
            }
        }
        self.schedule(streams)
    }

    /// [`HierarchicalScheduler::schedule`] with a dynamic trace sink.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchicalScheduler::schedule`].
    pub fn schedule_traced(
        &self,
        streams: &[(TopoPath, Vec<CommandProfile>)],
        sink: &mut dyn TraceSink,
    ) -> Result<Schedule, DramError> {
        self.schedule_with(streams, sink)
    }

    /// Schedules `streams` while reporting every issued command to `sink`.
    /// This is the scheduling core; see the module docs for the issue
    /// rules. Generic over the sink so the [`NullSink`] instantiation is
    /// zero cost (pinned by the `scheduler_sink` criterion group in
    /// `elp2im-bench`).
    ///
    /// # Errors
    ///
    /// Same as [`HierarchicalScheduler::schedule`].
    pub fn schedule_with<S: TraceSink + ?Sized>(
        &self,
        streams: &[(TopoPath, Vec<CommandProfile>)],
        sink: &mut S,
    ) -> Result<Schedule, DramError> {
        check_refresh(self.refresh)?;
        let (budget, power) = (&self.budget, &self.power);
        // Merge duplicate paths in input order; the BTreeMap both dedups in
        // O(n log n) and yields entries sorted by path for the tie-break.
        // Empty streams are dropped here — `Schedule::bank_done` promises
        // "banks without work are absent".
        let mut merged: BTreeMap<TopoPath, Vec<&CommandProfile>> = BTreeMap::new();
        for (path, cmds) in streams {
            for component in [path.channel, path.rank, path.bank] {
                if component >= usize::MAX / 2 {
                    return Err(DramError::BankOutOfRange {
                        bank: component,
                        banks: usize::MAX / 2,
                    });
                }
            }
            if cmds.is_empty() {
                continue;
            }
            merged.entry(*path).or_default().extend(cmds.iter());
        }
        let entries: Vec<(TopoPath, Vec<&CommandProfile>)> = merged.into_iter().collect();

        // One pump window per (channel, rank); one bus cursor per channel.
        let mut rank_of = BTreeMap::new();
        let mut channel_of = BTreeMap::new();
        for (path, _) in &entries {
            let next = rank_of.len();
            rank_of.entry(path.rank_id()).or_insert(next);
            let next = channel_of.len();
            channel_of.entry(path.channel).or_insert(next);
        }
        let mut pumps: Vec<PumpWindow> =
            (0..rank_of.len()).map(|_| PumpWindow::new(budget.clone())).collect();
        let mut rank_stats: Vec<RunStats> = (0..rank_of.len()).map(|_| RunStats::new()).collect();
        let mut last_issue: Vec<Ps> = vec![Ps::ZERO; channel_of.len()];

        let mut bank_free: Vec<Ps> = vec![Ps::ZERO; entries.len()];
        let mut cursors = vec![0usize; entries.len()];
        let mut stats = RunStats::new();
        let mut commands = Vec::with_capacity(entries.iter().map(|(_, v)| v.len()).sum());

        // Ready queue keyed by bank-free time, then path order (entries are
        // path-sorted, so the index is the tie-break). A bank's free time
        // only changes when it issues, at which point it is re-pushed with
        // its new key — so the heap top is always the pending command with
        // the earliest bank-free time.
        let mut ready: BinaryHeap<Reverse<(Ps, usize)>> =
            (0..entries.len()).map(|i| Reverse((Ps::ZERO, i))).collect();

        while let Some(Reverse((free, i))) = ready.pop() {
            let (path, cmds) = &entries[i];
            let profile = cmds[cursors[i]];
            let rank = rank_of[&path.rank_id()];
            let channel = channel_of[&path.channel];

            // In-order issue on this channel's bus, then refresh alignment
            // and per-rank pump admission, alternating until both admit the
            // start. Each hop's deferral is charged to its cause; the hops
            // telescope to exactly `start - requested`.
            let requested = free.max(last_issue[channel]);
            let cost = budget.command_cost(profile);
            let mut start = requested;
            let (mut refresh_wait, mut pump_wait) = (Ps::ZERO, Ps::ZERO);
            loop {
                if let Some(end) = self.refresh.and_then(|w| blackout_end(w, start)) {
                    refresh_wait += end.saturating_sub(start);
                    start = end;
                }
                match pumps[rank].try_admit(start, cost) {
                    Ok(()) => break,
                    Err(retry) => {
                        pump_wait += retry.saturating_sub(start);
                        start = retry;
                    }
                }
            }
            let bus_wait = requested.saturating_sub(free);
            last_issue[channel] = start;
            let done = start + profile.duration.to_ps();
            bank_free[i] = done;

            let energy = power.command_energy(profile);
            for s in [&mut stats, &mut rank_stats[rank]] {
                s.record(profile.class, profile.duration, profile.total_wordline_events, energy);
                s.pump_stall += pump_wait.to_ns();
                s.makespan = Ns(s.makespan.as_f64().max(done.to_ns().as_f64()));
            }

            // The request is born at the bank-free instant, so the wait
            // splits exactly into the bus clamp, refresh and pump deferrals.
            let mut event = CommandEvent {
                seq: commands.len() as u64,
                path: *path,
                class: profile.class,
                issue: free,
                start,
                done,
                stall: start.saturating_sub(free),
                bank_wait: Ps::ZERO,
                bus_wait,
                refresh_wait,
                pump_wait,
                reason: StallReason::None,
                energy,
            };
            event.reason = event.dominant_reason();
            sink.record(&event);

            commands.push(ScheduledCommand {
                seq: commands.len(),
                path: *path,
                index_in_bank: cursors[i],
                class: profile.class,
                start,
                done,
                pump_stall: pump_wait,
                bus_wait,
            });
            cursors[i] += 1;
            if cursors[i] < cmds.len() {
                ready.push(Reverse((done, i)));
            }
        }

        // Stamp standby accrual: the whole schedule over its wall clock, and
        // each rank over its own (so per-rank entries are themselves valid
        // schedules whose parallel merge reproduces the whole — the law
        // checked in `tests/stats_properties.rs`).
        stats.background_energy = power.background_energy(stats.makespan, 1.0);
        for s in rank_stats.iter_mut() {
            s.background_energy = power.background_energy(s.makespan, 1.0);
        }

        let bank_done =
            entries.iter().enumerate().map(|(i, (path, _))| (*path, bank_free[i])).collect();
        let rank_stats =
            rank_of.into_iter().map(|(id, idx)| (id, rank_stats[idx].clone())).collect();
        Ok(Schedule { commands, stats, bank_done, rank_stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MemorySink;
    use crate::timing::Ddr3Timing;

    fn t() -> Ddr3Timing {
        Ddr3Timing::ddr3_1600()
    }

    fn per_channel_streams(
        channels: usize,
        ranks: usize,
        banks: usize,
        per_bank: usize,
    ) -> Vec<(TopoPath, Vec<CommandProfile>)> {
        let mut out = Vec::new();
        for c in 0..channels {
            for r in 0..ranks {
                for b in 0..banks {
                    out.push((TopoPath::new(c, r, b), vec![CommandProfile::ap(&t()); per_bank]));
                }
            }
        }
        out
    }

    /// `banks` flat single-rank streams, each `n` copies of `profile`.
    fn flat(
        banks: usize,
        profile: &CommandProfile,
        n: usize,
    ) -> Vec<(TopoPath, Vec<CommandProfile>)> {
        (0..banks).map(|b| (TopoPath::flat_bank(b), vec![profile.clone(); n])).collect()
    }

    /// A 500 ns tREFI with DDR3's 260 ns tRFC: blackouts every few commands.
    fn short_refresh() -> Option<(Ps, Ps)> {
        Some((Ps(500_000), t().t_rfc.to_ps()))
    }

    fn ddr3_refresh() -> Option<(Ps, Ps)> {
        Some((t().t_refi.to_ps(), t().t_rfc.to_ps()))
    }

    #[test]
    fn channels_overlap_fully() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let one = sched.schedule(&per_channel_streams(1, 1, 8, 6)).unwrap();
        let four = sched.schedule(&per_channel_streams(4, 1, 8, 6)).unwrap();
        // Same per-channel work on four channels: identical makespan,
        // four times the commands and dynamic energy.
        assert_eq!(one.stats.makespan, four.stats.makespan);
        assert_eq!(four.stats.total_commands(), 4 * one.stats.total_commands());
        assert!((four.stats.energy.as_f64() - 4.0 * one.stats.energy.as_f64()).abs() < 1e-6);
    }

    #[test]
    fn ranks_have_independent_pump_windows_but_share_the_bus() {
        // Workload sized so one rank's pump window saturates: a second
        // rank on the same channel must not inherit the deferrals (its
        // own window is fresh), but its issues serialize on the bus.
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let one_rank = sched.schedule(&per_channel_streams(1, 1, 8, 8)).unwrap();
        let two_ranks = sched.schedule(&per_channel_streams(1, 2, 8, 8)).unwrap();
        // Two ranks double the pump capacity of the channel; the combined
        // pump stall cannot exceed double a single rank's and the
        // per-rank entries must each see their own window.
        assert_eq!(two_ranks.rank_stats.len(), 2);
        for ((_, _), rs) in &two_ranks.rank_stats {
            assert!(rs.pump_stall.as_f64() <= one_rank.stats.pump_stall.as_f64() + 1e-9);
        }
        // The bus serializes: total makespan exceeds the one-rank run.
        assert!(two_ranks.stats.makespan.as_f64() > one_rank.stats.makespan.as_f64());
    }

    #[test]
    fn rank_stats_match_each_rank_scheduled_alone() {
        // With one rank per channel the rank owns both its bus and its
        // pump window, so the hierarchy adds no coupling: each rank's
        // slice equals that rank's streams scheduled alone.
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let streams = per_channel_streams(4, 1, 8, 6);
        let s = sched.schedule(&streams).unwrap();
        assert_eq!(s.rank_stats.len(), 4);
        for ((channel, rank), rs) in &s.rank_stats {
            let alone: Vec<_> =
                streams.iter().filter(|(p, _)| p.rank_id() == (*channel, *rank)).cloned().collect();
            assert_eq!(rs, &sched.schedule(&alone).unwrap().stats, "rank c{channel}.r{rank}");
        }
    }

    #[test]
    fn rank_stats_parallel_merge_reproduces_whole() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let s = sched.schedule(&per_channel_streams(3, 2, 4, 5)).unwrap();
        let mut folded = RunStats::new();
        for (_, rs) in &s.rank_stats {
            folded.merge_parallel(rs);
        }
        assert_eq!(folded.commands, s.stats.commands);
        assert_eq!(folded.makespan, s.stats.makespan);
        assert!((folded.energy.as_f64() - s.stats.energy.as_f64()).abs() < 1e-6);
        assert!((folded.pump_stall.as_f64() - s.stats.pump_stall.as_f64()).abs() < 1e-6);
        assert_eq!(folded.background_energy, s.stats.background_energy);
    }

    #[test]
    fn schedule_for_validates_paths() {
        let topo = Topology::new(2, 1, crate::geometry::Geometry::tiny());
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let bad = vec![(TopoPath::new(2, 0, 0), vec![CommandProfile::ap(&t())])];
        match sched.schedule_for(&topo, &bad) {
            Err(DramError::PathOutOfRange { path, channels, .. }) => {
                assert_eq!(path, TopoPath::new(2, 0, 0));
                assert_eq!(channels, 2);
            }
            other => panic!("expected PathOutOfRange, got {other:?}"),
        }
        let good = vec![(TopoPath::new(1, 0, 1), vec![CommandProfile::ap(&t())])];
        assert!(sched.schedule_for(&topo, &good).is_ok());
    }

    #[test]
    fn bank_out_of_range_is_an_error() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let corrupt = vec![(TopoPath::flat_bank(usize::MAX), vec![CommandProfile::ap(&t())])];
        assert_eq!(
            sched.schedule(&corrupt).unwrap_err(),
            DramError::BankOutOfRange { bank: usize::MAX, banks: usize::MAX / 2 }
        );
    }

    #[test]
    fn stall_split_reconciles_exactly_in_picoseconds() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let mut sink = MemorySink::new();
        sched.schedule_traced(&per_channel_streams(2, 2, 8, 8), &mut sink).unwrap();
        assert!(sink.metrics.total_stall_ps > 0);
        assert!(sink.metrics.stalls_reconcile());
        for e in &sink.events {
            assert!(e.waits_reconcile());
        }
    }

    #[test]
    fn pump_constraint_throttles_parallelism() {
        // 8 banks of back-to-back APs under the JEDEC budget: only ~4 ACTs
        // per 40 ns fit, so makespan roughly doubles vs unconstrained.
        let streams = flat(8, &CommandProfile::ap(&t()), 16);
        let sf = HierarchicalScheduler::new(PumpBudget::unconstrained()).schedule(&streams);
        let st = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600()).schedule(&streams);
        let (sf, st) = (sf.unwrap().stats, st.unwrap().stats);
        assert!(
            st.makespan.as_f64() > sf.makespan.as_f64() * 1.5,
            "constrained {} vs free {}",
            st.makespan,
            sf.makespan
        );
        assert!(st.pump_stall.as_f64() > 0.0);
    }

    #[test]
    fn tra_streams_throttle_harder_than_ap_streams() {
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let n = 16;
        // Per-command slowdown factor must be clearly worse for TRA.
        let slowdown = |p: CommandProfile| {
            let s = sched.schedule(&flat(8, &p, n)).unwrap();
            s.stats.makespan.as_f64() / (p.duration.as_f64() * n as f64)
        };
        let slow_ap = slowdown(CommandProfile::ap(&t()));
        let slow_tra = slowdown(CommandProfile::ambit_tra_aap(&t()));
        assert!(slow_tra > slow_ap * 1.5, "ap x{slow_ap:.2} vs tra x{slow_tra:.2}");
    }

    #[test]
    fn background_energy_tracks_makespan() {
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let streams = flat(1, &CommandProfile::ap(&t()), 2);
        let s1 = sched.schedule(&streams).unwrap().stats;
        let s2 = sched.schedule(&streams).unwrap().stats;
        let expect = PowerModel::micron_ddr3_1600().background_energy(s1.makespan, 1.0).as_f64();
        assert!((s1.background_energy.as_f64() - expect).abs() < 1e-6, "{s1}");
        // Identical runs accrue identical background energy.
        assert_eq!(s1.background_energy, s2.background_energy);
        // Average power now exceeds the dynamic-only figure.
        assert!(s1.average_power_mw() > s1.dynamic_power_mw());
    }

    #[test]
    fn sink_observes_every_command_with_reasons() {
        let streams = flat(8, &CommandProfile::ap(&t()), 8);
        let mut mem = MemorySink::new();
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let stats = sched.schedule_traced(&streams, &mut mem).unwrap().stats;
        assert_eq!(mem.len() as u64, stats.total_commands());
        assert!(mem.metrics.stalls_by_reason.contains_key("pump"), "{:?}", mem.metrics);
        for e in &mem.events {
            assert!(e.done > e.start);
            assert_eq!(e.stall, e.start.saturating_sub(e.issue));
            assert!(e.waits_reconcile(), "seq {}: waits do not sum to stall", e.seq);
            assert_eq!(e.reason, e.dominant_reason());
        }
        assert!(mem.metrics.stalls_reconcile());
    }

    #[test]
    fn stall_split_reconciles_under_refresh_and_pump() {
        // Frequent refresh + a tight pump budget: commands get delayed by
        // the bus, refresh blackouts, and pump deferrals within the same
        // run — the split must still sum exactly to the total stall,
        // command by command and in aggregate.
        let streams = flat(8, &CommandProfile::ap(&t()), 12);
        let sched =
            HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600()).with_refresh(short_refresh());
        let mut mem = MemorySink::new();
        sched.schedule_traced(&streams, &mut mem).unwrap();
        for e in &mem.events {
            assert!(e.waits_reconcile(), "seq {}: waits do not sum to stall", e.seq);
            assert_eq!(e.reason, e.dominant_reason());
        }
        let m = &mem.metrics;
        assert!(m.stalls_reconcile());
        // All three causes actually occur in this workload; the scheduler
        // requests each command at its bank-free instant, so no bank wait.
        for reason in [StallReason::Bus, StallReason::Refresh, StallReason::Pump] {
            assert!(m.stall_ps_for(reason) > 0, "no {} time attributed", reason.label());
        }
        assert_eq!(m.stall_ps_for(StallReason::Bank), 0);
    }

    #[test]
    fn refresh_blackouts_delay_commands() {
        let streams = flat(1, &CommandProfile::ap(&t()), 40);
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let sp = sched.schedule(&streams).unwrap();
        let sr = sched.clone().with_refresh(short_refresh()).schedule(&streams).unwrap();
        // tRFC 260 ns per 500 ns interval: roughly half the time is lost.
        let slowdown = sr.stats.makespan.as_f64() / sp.stats.makespan.as_f64();
        assert!((1.3..=2.2).contains(&slowdown), "slowdown {slowdown}");
        // No command starts inside a blackout.
        for c in &sr.commands {
            assert_eq!(blackout_end(short_refresh().unwrap(), c.start), None, "{c:?}");
        }
    }

    #[test]
    fn realistic_refresh_costs_a_few_percent() {
        let streams = flat(4, &CommandProfile::ap(&t()), 400);
        let sched = HierarchicalScheduler::new(PumpBudget::unconstrained());
        let sp = sched.schedule(&streams).unwrap();
        let sr = sched.clone().with_refresh(ddr3_refresh()).schedule(&streams).unwrap();
        let overhead = sr.stats.makespan.as_f64() / sp.stats.makespan.as_f64() - 1.0;
        assert!((0.0..=0.08).contains(&overhead), "refresh overhead {overhead}");
    }

    #[test]
    fn degenerate_refresh_windows_are_errors() {
        let streams = flat(2, &CommandProfile::ap(&t()), 3);
        for (interval, duration) in [(0, 350_000), (0, 0), (350_000, 350_000), (100, 7_800)] {
            let window = (Ps(interval), Ps(duration));
            let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600())
                .with_refresh(Some(window));
            assert_eq!(
                sched.schedule(&streams).unwrap_err(),
                DramError::InvalidRefresh { interval: window.0, duration: window.1 }
            );
        }
        // A zero-length blackout is legal and changes nothing.
        let sched = HierarchicalScheduler::new(PumpBudget::jedec_ddr3_1600());
        let plain = sched.schedule(&streams).unwrap();
        let zero = sched.with_refresh(Some((Ps(500_000), Ps::ZERO))).schedule(&streams).unwrap();
        assert_eq!(plain, zero);
    }

    /// Cross-check: the scheduler should agree with the analytic
    /// steady-state estimate of `PumpBudget::max_parallel_banks`.
    #[test]
    fn analytic_estimate_matches_simulation() {
        let budget = PumpBudget::jedec_ddr3_1600();
        let timing = t();
        let stream = vec![
            CommandProfile::aap(&timing),
            CommandProfile::app(&timing),
            CommandProfile::ap(&timing),
        ];
        let analytic = budget.max_parallel_banks(&stream, 8);
        let reps = 64;
        let streams: Vec<_> = (0..8)
            .map(|b| {
                (TopoPath::flat_bank(b), stream.iter().cloned().cycle().take(3 * reps).collect())
            })
            .collect();
        let s = HierarchicalScheduler::new(budget).schedule(&streams).unwrap().stats;
        // Effective parallelism = total busy time / makespan.
        let eff = s.busy_time.as_f64() / s.makespan.as_f64();
        assert!(
            (eff - analytic).abs() / analytic < 0.15,
            "analytic {analytic:.2} vs simulated {eff:.2}"
        );
    }
}
