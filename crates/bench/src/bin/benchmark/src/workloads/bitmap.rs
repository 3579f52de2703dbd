//! `bitmap`: the §6.3.1 bitmap-index study, executed. Each request runs
//! both queries over 16 Mi users (every one of 4 weeks; male and every
//! week) with `bitmap::run_queries_batch`, then loads and counts both
//! results. Every AND spans 256 row stripes, so per-bank engine
//! simulation dominates host time and the single rank's pump window sets
//! the modeled makespan.

use super::{array_model, err, timed, Model, Probe, Workload};
use crate::gen::Rng;
use crate::trace::{StallSink, Tracer};
use elp2im_apps::bitmap::run_queries_batch;
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;

/// Tracked users (the paper's 16 million).
pub const USERS: usize = 16 << 20;
/// Weeks of history `w`.
pub const WEEKS: usize = 4;

#[derive(Debug)]
pub struct Bitmap {
    weeks: Vec<BitVec>,
    gender: BitVec,
    /// Oracle: (active every week, male and active every week), computed
    /// with plain word operations at generation time.
    expect_all: BitVec,
    expect_male: BitVec,
}

#[derive(Debug)]
pub struct Sut {
    array: DeviceArray,
    weeks: Vec<BatchHandle>,
    gender: BatchHandle,
    probe: Probe,
}

/// Both query results, loaded, with their population counts.
#[derive(Debug)]
pub struct Reply {
    all: BitVec,
    male: BitVec,
    counts: (usize, usize),
}

impl Bitmap {
    pub fn new(seed: u64) -> Bitmap {
        Bitmap::with_users(seed, USERS)
    }

    fn with_users(seed: u64, users: usize) -> Bitmap {
        let mut rng = Rng::new(seed, 1);
        let weeks: Vec<BitVec> = (0..WEEKS).map(|_| rng.dense_bits(users)).collect();
        let gender = rng.bits(users);
        let mut expect_all = weeks[0].clone();
        for w in &weeks[1..] {
            expect_all.and_assign(w);
        }
        let expect_male = expect_all.and(&gender);
        Bitmap { weeks, gender, expect_all, expect_male }
    }

    /// `run_queries_batch`, re-issued call by call so each call gets a
    /// span (the app function takes the array and cannot be wrapped).
    fn queries_traced(
        &self,
        sut: &mut Sut,
        tr: &mut Tracer,
    ) -> Result<(BatchHandle, BatchHandle), String> {
        let app = tr.enter("apps.self", "bitmap::run_queries_batch");
        let mut all = sut.weeks[0];
        let mut owned = false;
        for &w in &sut.weeks[1..] {
            let next = sut.probe.op(tr, &mut sut.array, LogicOp::And, all, Some(w))?;
            if owned {
                tr.time("batch.release", "DeviceArray::release", || sut.array.release(all))
                    .map_err(err)?;
            }
            all = next;
            owned = true;
        }
        let male = sut.probe.op(tr, &mut sut.array, LogicOp::And, all, Some(sut.gender))?;
        tr.exit(app);
        Ok((all, male))
    }
}

impl Workload for Bitmap {
    type Sut = Sut;
    type Reply = Reply;

    fn setup(&self) -> Result<Sut, String> {
        let mut array = DeviceArray::new(BatchConfig::default());
        let weeks = self
            .weeks
            .iter()
            .map(|w| array.store(w))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let gender = array.store(&self.gender).map_err(err)?;
        let probe = Probe::new(&array);
        Ok(Sut { array, weeks, gender, probe })
    }

    /// The traced pass re-issues the app function's calls itself; both
    /// forms must give bit-identical results and modeled statistics.
    fn self_check(&self) -> Result<(), String> {
        let mut app = self.setup()?;
        let mut traced = self.setup()?;
        let a = self.serve(&mut app, 0, None)?;
        let b = self.serve(&mut traced, 0, Some(&mut Tracer::default()))?;
        if a.all != b.all || a.male != b.male || a.counts != b.counts {
            return Err("traced bitmap queries differ from run_queries_batch".into());
        }
        if app.array.stats() != traced.array.stats() {
            return Err("traced bitmap queries model different DRAM statistics".into());
        }
        Ok(())
    }

    fn warmup(&self) -> usize {
        2
    }

    fn model_requests(&self) -> usize {
        8
    }

    fn serve(
        &self,
        sut: &mut Sut,
        _i: usize,
        mut tr: Option<&mut Tracer>,
    ) -> Result<Reply, String> {
        let (all, male) = match tr.as_deref_mut() {
            Some(t) => self.queries_traced(sut, t)?,
            None => {
                let (all, male, _) =
                    run_queries_batch(&mut sut.array, &sut.weeks, sut.gender).map_err(err)?;
                (all, male)
            }
        };
        let array = &sut.array;
        let load = |tr: Option<&mut Tracer>, h| {
            timed(tr, "batch.load", "DeviceArray::load", || array.load(h))
        };
        let all_bits = load(tr.as_deref_mut(), all).map_err(err)?;
        let male_bits = load(tr.as_deref_mut(), male).map_err(err)?;
        let counts = timed(tr.as_deref_mut(), "bitvec.count_ones", "BitVec::count_ones", || {
            (all_bits.count_ones(), male_bits.count_ones())
        });
        for h in [all, male] {
            timed(tr.as_deref_mut(), "batch.release", "DeviceArray::release", || {
                sut.array.release(h)
            })
            .map_err(err)?;
        }
        Ok(Reply { all: all_bits, male: male_bits, counts })
    }

    fn check(&self, _i: usize, r: Reply) -> bool {
        r.all == self.expect_all
            && r.male == self.expect_male
            && r.counts == (self.expect_all.count_ones(), self.expect_male.count_ones())
    }

    fn modeled(&self, sut: &mut Sut) -> Model {
        array_model(&mut sut.array)
    }

    fn install_sink(&self, sut: &mut Sut) {
        sut.array.set_trace_sink(Box::new(StallSink::default()));
    }

    fn layer_counters(&self, sut: &Sut, requests: usize) -> Vec<(&'static str, f64)> {
        let mut out = sut.probe.counts.metrics();
        out.push(("apps.ops_per_req", sut.probe.counts.ops as f64 / requests as f64));
        out.push(("analysis.cache_entries", sut.array.analysis_cache().len() as f64));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = Bitmap::with_users(4, 4096);
        let b = Bitmap::with_users(4, 4096);
        assert_eq!((&a.weeks, &a.gender, &a.expect_male), (&b.weeks, &b.gender, &b.expect_male));
        assert_ne!(a.weeks, Bitmap::with_users(5, 4096).weeks);
    }
}
