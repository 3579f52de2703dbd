//! `fault_soak`: the fault-aware batch executor on a multi-channel array.
//! Each request is one `DeviceArray::binary_checked` (verify on, up to 8
//! retries) of a random AND, OR or XOR over two stored bases, then a load
//! and a compare. A mid-grade chip profile puts fault models on half the
//! units; the reliability ranking places narrow bases on clean units, so
//! they skip verification, while full-width bases touch faulty units and
//! verify by recompute. Read-back heavy, and the only workload where a
//! speedup that weakens verification shows up as failed requests.

use super::{array_model, err, timed, Model, Probe, Workload};
use crate::gen::Rng;
use crate::trace::{StallSink, Tracer};
use elp2im_circuit::profile::{ChipProfile, ProfileConfig};
use elp2im_core::batch::{BatchConfig, BatchHandle, CheckedRun, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::{CompileMode, LogicOp};
use elp2im_core::faulty::{ColumnFaultModel, FaultPolicy};
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, Topology};

/// The chip: its seed is part of the hardware, not of the workload, so
/// every workload seed runs on the same chip.
const CHIP_SEED: u64 = 0xE1F2_1A0D;
/// Process-variation scale of the chip profile: retries occur, and no
/// verified result comes back wrong.
const SIGMA: f64 = 0.17;
const POLICY: FaultPolicy = FaultPolicy { verify: true, max_retries: 8 };
/// Stored bases of each kind.
const BASES: usize = 8;
/// Distinct requests drawn per seed; one in four is narrow.
const REQUESTS: usize = 256;

fn config() -> BatchConfig {
    BatchConfig {
        topology: Topology::new(
            4,
            2,
            Geometry { banks: 8, subarrays_per_bank: 8, rows_per_subarray: 64, row_bytes: 1024 },
        ),
        reserved_rows: 1,
        mode: CompileMode::LowLatency,
        budget: PumpBudget::jedec_ddr3_1600(),
    }
}

/// One request: `op` over two bases of the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    op: LogicOp,
    wide: bool,
    a: usize,
    b: usize,
}

#[derive(Debug)]
pub struct FaultSoak {
    narrow: Vec<BitVec>,
    wide: Vec<BitVec>,
    requests: Vec<Request>,
    /// Oracle: each request's result computed with plain word operations.
    expect: Vec<BitVec>,
}

#[derive(Debug)]
pub struct Sut {
    array: DeviceArray,
    narrow: Vec<BatchHandle>,
    wide: Vec<BatchHandle>,
    probe: Probe,
    counts: Counts,
}

/// Traced-pass counters of the fault-aware executor.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    checked: u64,
    verified: u64,
    executed_ops: u64,
    recomputes: u64,
    mismatches: u64,
    retries: u64,
    exhausted: u64,
    flips: u64,
}

/// A checked result, loaded.
#[derive(Debug)]
pub struct Reply {
    bits: BitVec,
    verified: bool,
    attempts: u32,
}

impl FaultSoak {
    pub fn new(seed: u64) -> FaultSoak {
        let mut rng = Rng::new(seed, 3);
        let g = config().topology;
        let row_bits = g.geometry.row_bits();
        let narrow: Vec<BitVec> = (0..BASES).map(|_| rng.bits(row_bits / 2)).collect();
        let wide: Vec<BitVec> = (0..BASES).map(|_| rng.bits(row_bits * g.total_banks())).collect();
        // Fixed shares of each kind and operation, so seeds differ in data
        // and order, not in cost.
        let mut requests: Vec<Request> = (0..REQUESTS)
            .map(|k| {
                let op = [LogicOp::And, LogicOp::Or, LogicOp::Xor][k / 4 % 3];
                let a = rng.below(BASES);
                let b = (a + 1 + rng.below(BASES - 1)) % BASES;
                Request { op, wide: k % 4 != 0, a, b }
            })
            .collect();
        rng.shuffle(&mut requests);
        let expect = requests
            .iter()
            .map(|r| {
                let bases = if r.wide { &wide } else { &narrow };
                let (a, b) = (&bases[r.a], &bases[r.b]);
                match r.op {
                    LogicOp::And => a.and(b),
                    LogicOp::Or => a.or(b),
                    _ => a.xor(b),
                }
            })
            .collect();
        FaultSoak { narrow, wide, requests, expect }
    }

    fn request(&self, i: usize) -> Request {
        self.requests[i % self.requests.len()]
    }
}

/// Fault models for half the units (the odd ones, so every rank has clean
/// and faulty banks), from a mid-grade chip profile.
fn fault_models(units: usize, columns: usize) -> Vec<Option<ColumnFaultModel>> {
    let profile = ChipProfile::sample(ProfileConfig {
        sigma: SIGMA,
        ..ProfileConfig::mid_grade(CHIP_SEED, units, columns)
    });
    (0..units)
        .map(|u| {
            (u % 2 == 1)
                .then(|| ColumnFaultModel::new(CHIP_SEED, u, profile.column_probabilities(u)))
        })
        .collect()
}

impl Workload for FaultSoak {
    type Sut = Sut;
    type Reply = Reply;

    fn setup(&self) -> Result<Sut, String> {
        let mut array = DeviceArray::new(config());
        array.set_fault_models(fault_models(array.banks(), array.row_bits()));
        let mut store = |bases: &[BitVec]| {
            bases.iter().map(|v| array.store(v)).collect::<Result<Vec<_>, _>>().map_err(err)
        };
        let narrow = store(&self.narrow)?;
        let wide = store(&self.wide)?;
        let probe = Probe::new(&array);
        Ok(Sut { array, narrow, wide, probe, counts: Counts::default() })
    }

    /// Narrow requests must skip verification and full-width ones must
    /// verify, or the workload is not exercising what it claims to.
    fn self_check(&self) -> Result<(), String> {
        let mut sut = self.setup()?;
        let mut seen = [false; 2];
        for i in 0..self.requests.len() {
            let wide = self.request(i).wide;
            if i >= 16 && seen == [true; 2] {
                break;
            }
            seen[usize::from(wide)] = true;
            let recomputes = sut.array.reliability_metrics().counter("verify_recomputes");
            let r = self.serve(&mut sut, i, None)?;
            let verified =
                sut.array.reliability_metrics().counter("verify_recomputes") > recomputes;
            if wide != verified || (!wide && (r.verified || r.attempts != 1)) {
                return Err(format!(
                    "request {i} ({} bases) verified: {verified}",
                    if wide { "full-width" } else { "narrow" }
                ));
            }
        }
        Ok(())
    }

    fn warmup(&self) -> usize {
        16
    }

    fn model_requests(&self) -> usize {
        64
    }

    fn serve(&self, sut: &mut Sut, i: usize, mut tr: Option<&mut Tracer>) -> Result<Reply, String> {
        let r = self.request(i);
        let bases = if r.wide { &sut.wide } else { &sut.narrow };
        let (a, b) = (bases[r.a], bases[r.b]);
        let (checked, span) = match tr.as_deref_mut() {
            Some(t) => {
                let probed = sut.probe.measure(t, &mut sut.array, r.op, a, Some(b))?;
                let before = Snapshot::of(&sut.array);
                let id = t.enter("engine.exec", "DeviceArray::binary_checked");
                let checked = sut.array.binary_checked(r.op, a, b, &POLICY);
                t.exit(id);
                let checked = checked.map_err(err)?;
                sut.counts.add(&before, &Snapshot::of(&sut.array), &checked);
                sut.probe.counts.record(probed.stripes, &checked.run);
                (checked, Some((id, probed)))
            }
            None => (sut.array.binary_checked(r.op, a, b, &POLICY).map_err(err)?, None),
        };
        let bits = timed(tr.as_deref_mut(), "batch.load", "DeviceArray::load", || {
            sut.array.load(checked.handle)
        })
        .map_err(err)?;
        if let (Some(t), Some((id, probed))) = (tr.as_deref_mut(), span) {
            // One probe pair covers one inner `binary`; the checked call
            // runs `executed` of them and reads back `loads` results the
            // same size as the load just timed.
            let (executed, loads) = executed_ops(&checked);
            let load_ns = t.spans().last().map_or(0, |s| s.duration_ns());
            t.carve(id, "batch.prepare", executed * probed.prepare_ns);
            t.carve(id, "hierarchy.schedule", executed * probed.schedule_ns);
            t.carve(id, "batch.load", loads * load_ns);
        }
        timed(tr, "batch.release", "DeviceArray::release", || sut.array.release(checked.handle))
            .map_err(err)?;
        Ok(Reply { bits, verified: checked.verified, attempts: checked.attempts })
    }

    fn check(&self, i: usize, reply: Reply) -> bool {
        reply.bits == self.expect[i % self.expect.len()]
    }

    /// Faults the verifier cannot catch (both runs of a round flipping the
    /// same column) may deliver a wrong result now and then.
    fn allowed_failures(&self) -> f64 {
        0.05
    }

    fn modeled(&self, sut: &mut Sut) -> Model {
        array_model(&mut sut.array)
    }

    fn install_sink(&self, sut: &mut Sut) {
        sut.array.set_trace_sink(Box::new(StallSink::default()));
    }

    fn layer_counters(&self, sut: &Sut, requests: usize) -> Vec<(&'static str, f64)> {
        let c = &sut.counts;
        let per_req = |x: u64| x as f64 / requests as f64;
        let mut out = sut.probe.counts.metrics();
        out.extend([
            ("analysis.cache_entries", sut.array.analysis_cache().len() as f64),
            ("faulty.verified_frac", per_req(c.verified)),
            ("faulty.verify_recomputes", per_req(c.recomputes)),
            ("faulty.verify_mismatches", per_req(c.mismatches)),
            ("faulty.retries", per_req(c.retries)),
            ("faulty.retries_exhausted", per_req(c.exhausted)),
            ("faulty.injected_flips", per_req(c.flips)),
            ("faulty.useful_frac", c.checked as f64 / c.executed_ops.max(1) as f64),
        ]);
        out
    }
}

/// Inner `binary` calls and result loads a checked operation performed:
/// one unverified run; two runs and two loads per verify round; and one
/// more run when the retries were exhausted.
fn executed_ops(c: &CheckedRun) -> (u64, u64) {
    let attempts = u64::from(c.attempts);
    match (c.verified, attempts) {
        (true, n) => (2 * n, 2 * n),
        (false, 1) => (1, 0),
        (false, n) => (2 * (n - 1) + 1, 2 * (n - 1)),
    }
}

/// The executor's cumulative counters at one instant.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    recomputes: u64,
    mismatches: u64,
    retries: u64,
    exhausted: u64,
    flips: u64,
}

impl Snapshot {
    fn of(array: &DeviceArray) -> Snapshot {
        let m = array.reliability_metrics();
        Snapshot {
            recomputes: m.counter("verify_recomputes"),
            mismatches: m.counter("verify_mismatches"),
            retries: m.counter("retries"),
            exhausted: m.counter("retries_exhausted"),
            flips: array.injected_flips(),
        }
    }
}

impl Counts {
    fn add(&mut self, before: &Snapshot, after: &Snapshot, checked: &CheckedRun) {
        self.checked += 1;
        self.verified += u64::from(checked.verified);
        self.executed_ops += executed_ops(checked).0;
        self.recomputes += after.recomputes - before.recomputes;
        self.mismatches += after.mismatches - before.mismatches;
        self.retries += after.retries - before.retries;
        self.exhausted += after.exhausted - before.exhausted;
        self.flips += after.flips - before.flips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_follow_the_seed() {
        let a = FaultSoak::new(2);
        let b = FaultSoak::new(2);
        assert_eq!((&a.requests, &a.expect), (&b.requests, &b.expect));
        assert_ne!(a.requests, FaultSoak::new(3).requests);
        assert_eq!(a.requests.iter().filter(|r| !r.wide).count(), REQUESTS / 4);
    }
}
