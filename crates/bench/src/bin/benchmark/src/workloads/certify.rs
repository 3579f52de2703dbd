//! `certify`: one `planlint::certify` per request over batch plans prepared
//! at set-up by `DeviceArray::plan` on 1×1, 2×2 and 4×2 topologies (8
//! banks per rank), with 1, 16 or 2×units stripes, for AND, OR, XOR, NAND
//! and NOT, plus seeded mutants whose verdict is known to be a rejection.
//! The only workload where `planlint` and `dram::verify` do the work;
//! neither is on the execution path of a release build.

use super::{err, Model, Workload};
use crate::gen::Rng;
use crate::trace::Tracer;
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::{CompileMode, LogicOp};
use elp2im_core::planlint::{certify, BatchPlan};
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, TopoPath, Topology};
use std::collections::BTreeMap;

/// (channels, ranks per channel) of the three arrays.
const TOPOLOGIES: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 2)];
const OPS: [LogicOp; 5] = [LogicOp::And, LogicOp::Or, LogicOp::Xor, LogicOp::Nand, LogicOp::Not];
/// One subarray per bank, so plans with more stripes than units put two
/// steps on one subarray: the groups the mutants break.
const GEOMETRY: Geometry =
    Geometry { banks: 8, subarrays_per_bank: 1, rows_per_subarray: 64, row_bytes: 1024 };

fn config(channels: usize, ranks: usize) -> BatchConfig {
    BatchConfig {
        topology: Topology::new(channels, ranks, GEOMETRY),
        reserved_rows: 1,
        mode: CompileMode::LowLatency,
        budget: PumpBudget::jedec_ddr3_1600(),
    }
}

/// The expected verdict of one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Accepted with this proven makespan (the scheduler's, when the
    /// operation is executed).
    Accept(f64),
    /// Rejected: a mutant.
    Reject,
}

/// How one plan is built: which array, which operation over which stored
/// operands, and (for mutants) which step moves to which stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spec {
    array: usize,
    op: LogicOp,
    stripes: usize,
    mutation: Option<(usize, TopoPath)>,
}

#[derive(Debug)]
pub struct Certify {
    /// Operand bits per (array, stripe count).
    data: Vec<((usize, usize), BitVec, BitVec)>,
    specs: Vec<Spec>,
    expect: Vec<Expect>,
    /// Request `i` certifies plan `order[i % len]`.
    order: Vec<usize>,
}

#[derive(Debug)]
pub struct Sut {
    plans: Vec<BatchPlan>,
    model: Model,
    steps: u64,
    accepted: u64,
}

/// The stored operands of every (array, stripe count).
type Operands = BTreeMap<(usize, usize), (BatchHandle, BatchHandle)>;

/// Stripe counts planned on an array of `units` bank units.
fn stripe_counts(units: usize) -> Vec<usize> {
    let mut s = vec![1, 16, 2 * units];
    s.dedup();
    s
}

/// Random operand bits for every (array, stripe count).
fn operand_data(seed: u64) -> Vec<((usize, usize), BitVec, BitVec)> {
    let mut rng = Rng::new(seed, 5);
    let mut out = Vec::new();
    for (k, &(c, r)) in TOPOLOGIES.iter().enumerate() {
        let t = Topology::new(c, r, GEOMETRY);
        for stripes in stripe_counts(t.total_banks()) {
            let bits = stripes * GEOMETRY.row_bits();
            out.push(((k, stripes), rng.bits(bits), rng.bits(bits)));
        }
    }
    out
}

/// Builds the arrays and stores every operand pair.
fn arrays(
    data: &[((usize, usize), BitVec, BitVec)],
) -> Result<(Vec<DeviceArray>, Operands), String> {
    let mut arrays: Vec<DeviceArray> =
        TOPOLOGIES.iter().map(|&(c, r)| DeviceArray::new(config(c, r))).collect();
    let mut operands = BTreeMap::new();
    for (key, a, b) in data {
        let array = &mut arrays[key.0];
        let handles = (array.store(a).map_err(err)?, array.store(b).map_err(err)?);
        operands.insert(*key, handles);
    }
    Ok((arrays, operands))
}

fn plan(arrays: &mut [DeviceArray], operands: &Operands, s: &Spec) -> Result<BatchPlan, String> {
    let (a, b) = operands[&(s.array, s.stripes)];
    let b = (s.op != LogicOp::Not).then_some(b);
    let mut plan = arrays[s.array].plan(s.op, a, b).map_err(err)?;
    if let Some((step, stream)) = s.mutation {
        plan.steps[step].stream = stream;
    }
    Ok(plan)
}

impl Certify {
    pub fn new(seed: u64) -> Result<Certify, String> {
        let data = operand_data(seed);
        let (mut arrays, operands) = arrays(&data)?;
        let mut rng = Rng::new(seed, 6);
        let mut specs = Vec::new();
        let mut expect = Vec::new();
        for (k, array) in arrays.iter_mut().enumerate() {
            for stripes in stripe_counts(array.banks()) {
                for op in OPS {
                    let spec = Spec { array: k, op, stripes, mutation: None };
                    // Oracle: the scheduler's makespan of the executed
                    // operation is what certification must prove.
                    let (a, b) = operands[&(k, stripes)];
                    let (h, run) = match op {
                        LogicOp::Not => array.not(a),
                        _ => array.binary(op, a, b),
                    }
                    .map_err(err)?;
                    array.release(h).map_err(err)?;
                    specs.push(spec);
                    expect.push(Expect::Accept(run.stats().makespan.as_f64()));
                }
            }
        }
        // Mutants: in a plan whose subarray carries two steps, move the
        // later step onto a sibling bank's stream. Every compiled program
        // writes the subarray's reserved row, so the two steps then race
        // on it from unordered streams: a cross-stream hazard.
        for s in specs.clone() {
            let p = plan(&mut arrays, &operands, &s)?;
            let mut seen = BTreeMap::new();
            let pairs: Vec<usize> = (0..p.steps.len())
                .filter(|&k| seen.insert((p.steps[k].unit, p.steps[k].subarray), k).is_some())
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let step = pairs[rng.below(pairs.len())];
            let path = p.steps[step].stream;
            let bank = (path.bank + 1 + rng.below(GEOMETRY.banks - 1)) % GEOMETRY.banks;
            specs.push(Spec { mutation: Some((step, TopoPath { bank, ..path })), ..s });
            expect.push(Expect::Reject);
        }
        let order = rng.permutation(specs.len());
        Ok(Certify { data, specs, expect, order })
    }

    fn index(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }
}

/// A certification verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    accepted: bool,
    makespan_ns: Option<f64>,
}

impl Workload for Certify {
    type Sut = Sut;
    type Reply = Verdict;

    fn setup(&self) -> Result<Sut, String> {
        let (mut arrays, operands) = arrays(&self.data)?;
        let plans = self
            .specs
            .iter()
            .map(|s| plan(&mut arrays, &operands, s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Sut { plans, model: Model::default(), steps: 0, accepted: 0 })
    }

    fn warmup(&self) -> usize {
        0
    }

    fn model_requests(&self) -> usize {
        self.specs.len()
    }

    fn serve(&self, sut: &mut Sut, i: usize, tr: Option<&mut Tracer>) -> Result<Verdict, String> {
        let plan = &sut.plans[self.index(i)];
        let report = super::timed(tr, "planlint.certify", "planlint::certify", || certify(plan));
        let accepted = report.is_accepted();
        // Only an accepted plan's makespan is proven.
        let makespan_ns = report.makespan().filter(|_| accepted).map(|m| m.as_f64());
        sut.model.makespan_ns += makespan_ns.unwrap_or(0.0);
        sut.steps += plan.steps.len() as u64;
        sut.accepted += u64::from(accepted);
        Ok(Verdict { accepted, makespan_ns })
    }

    fn check(&self, i: usize, v: Verdict) -> bool {
        match (self.expect[self.index(i)], v.makespan_ns) {
            (Expect::Accept(want), Some(got)) => v.accepted && (got - want).abs() < 1e-6,
            (Expect::Reject, _) => !v.accepted,
            (Expect::Accept(_), None) => false,
        }
    }

    fn modeled(&self, sut: &mut Sut) -> Model {
        sut.model
    }

    fn layer_counters(&self, sut: &Sut, requests: usize) -> Vec<(&'static str, f64)> {
        vec![
            ("planlint.steps", sut.steps as f64 / requests as f64),
            ("planlint.accepted_frac", sut.accepted as f64 / requests as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_follows_the_seed() {
        let a = Certify::new(11).unwrap();
        let b = Certify::new(11).unwrap();
        assert_eq!((&a.specs, &a.expect, &a.order), (&b.specs, &b.expect, &b.order));
        let c = Certify::new(12).unwrap();
        assert!(a.specs != c.specs || a.order != c.order);
        let rejects = a.expect.iter().filter(|e| **e == Expect::Reject).count();
        assert_eq!(rejects, 3 * OPS.len(), "one mutant per two-step plan");
    }

    #[test]
    fn verdicts_and_modeled_makespans_repeat_exactly() {
        let w = Certify::new(5).unwrap();
        let (mut x, mut y) = (w.setup().unwrap(), w.setup().unwrap());
        for i in 0..w.model_requests() {
            let (vx, vy) = (w.serve(&mut x, i, None).unwrap(), w.serve(&mut y, i, None).unwrap());
            assert_eq!(vx, vy);
            assert!(w.check(i, vx), "request {i} disagrees with the oracle");
        }
        assert_eq!(w.modeled(&mut x), w.modeled(&mut y));
        assert!(w.modeled(&mut x).makespan_ns > 0.0);
    }
}
