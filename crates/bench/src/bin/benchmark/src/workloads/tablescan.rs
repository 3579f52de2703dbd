//! `tablescan`: the §6.3.2 BitWeaving/V table scan, executed. Each request
//! evaluates `(col_i < c1) AND (col_j >= c2)` with two
//! `bitweaving::compare_on_array` calls and one AND, then loads and counts
//! the result. Columns are narrow (2^18 lanes, 4 stripes per bit plane)
//! and each plane bit costs a few operations plus temporary stores, so
//! per-operation fixed costs (prepare, allocation, scheduling, release)
//! dominate and the engine is a small share: the counterpart of `bitmap`.

use super::{array_model, err, timed, Model, Probe, Workload};
use crate::gen::Rng;
use crate::trace::{StallSink, Tracer};
use elp2im_apps::bitweaving::{compare_on_array, Predicate, VerticalLayout};
use elp2im_core::batch::{BatchConfig, BatchHandle, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::LogicOp;

/// Code widths of the four columns.
pub const WIDTHS: [u32; 4] = [4, 8, 12, 16];
/// Rows per column.
pub const LANES: usize = 1 << 18;
/// Distinct queries drawn per seed.
pub const QUERIES: usize = 512;

/// `(col_i < c1) AND (col_j >= c2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub lt_col: usize,
    pub lt_const: u64,
    pub ge_col: usize,
    pub ge_const: u64,
}

/// A random `width`-bit constant with exactly half its bits set.
fn half_set(rng: &mut Rng, width: u32) -> u64 {
    let mut bits: Vec<u32> = (0..width).collect();
    rng.shuffle(&mut bits);
    bits[..width as usize / 2].iter().fold(0, |c, b| c | 1 << b)
}

#[derive(Debug)]
pub struct Tablescan {
    lanes: usize,
    columns: Vec<Vec<u64>>,
    queries: Vec<Query>,
    /// Oracle: each query evaluated lane by lane on the raw values.
    expect: Vec<BitVec>,
}

#[derive(Debug)]
pub struct Sut {
    array: DeviceArray,
    planes: Vec<Vec<BatchHandle>>,
    probe: Probe,
}

impl Tablescan {
    pub fn new(seed: u64) -> Tablescan {
        Tablescan::with_lanes(seed, LANES, QUERIES)
    }

    fn with_lanes(seed: u64, lanes: usize, queries: usize) -> Tablescan {
        let mut rng = Rng::new(seed, 2);
        let columns: Vec<Vec<u64>> = WIDTHS
            .iter()
            .map(|&w| (0..lanes).map(|_| rng.next_u64() >> (64 - w)).collect())
            .collect();
        // Every ordered column pair equally often, and constants with half
        // their bits set: each plane bit's operation count depends on the
        // constant's bit, so seeds then differ in values, not in cost.
        let pairs: Vec<(usize, usize)> = (0..WIDTHS.len())
            .flat_map(|i| (0..WIDTHS.len()).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let mut queries: Vec<Query> = (0..queries)
            .map(|q| {
                let (lt_col, ge_col) = pairs[q % pairs.len()];
                Query {
                    lt_col,
                    lt_const: half_set(&mut rng, WIDTHS[lt_col]),
                    ge_col,
                    ge_const: half_set(&mut rng, WIDTHS[ge_col]),
                }
            })
            .collect();
        rng.shuffle(&mut queries);
        let expect = queries
            .iter()
            .map(|q| {
                let (a, b) = (&columns[q.lt_col], &columns[q.ge_col]);
                (0..lanes).map(|l| a[l] < q.lt_const && b[l] >= q.ge_const).collect()
            })
            .collect();
        Tablescan { lanes, columns, queries, expect }
    }

    fn query(&self, i: usize) -> Query {
        self.queries[i % self.queries.len()]
    }

    /// `compare_on_array` for `<` and `>=`, re-issued call by call so each
    /// call gets a span (the app function takes the array and cannot be
    /// wrapped).
    fn compare_traced(
        &self,
        sut: &mut Sut,
        tr: &mut Tracer,
        column: usize,
        pred: Predicate,
        constant: u64,
    ) -> Result<BatchHandle, String> {
        let app = tr.enter("apps.self", "bitweaving::compare_on_array");
        let Sut { array, planes, probe } = sut;
        let planes = &planes[column];
        let width = planes.len() as u32;
        let store = |tr: &mut Tracer, array: &mut DeviceArray, v: &BitVec| {
            tr.time("batch.store", "DeviceArray::store", || array.store(v)).map_err(err)
        };
        let release = |tr: &mut Tracer, array: &mut DeviceArray, h| {
            tr.time("batch.release", "DeviceArray::release", || array.release(h)).map_err(err)
        };
        let mut lt = store(tr, array, &BitVec::zeros(self.lanes))?;
        let mut eq = store(tr, array, &BitVec::ones(self.lanes))?;
        for (i, &plane) in planes.iter().enumerate() {
            let c_bit = (constant >> (width - 1 - i as u32)) & 1 == 1;
            let not_a = probe.op(tr, array, LogicOp::Not, plane, None)?;
            if c_bit {
                let t = probe.op(tr, array, LogicOp::And, eq, Some(not_a))?;
                let new_lt = probe.op(tr, array, LogicOp::Or, lt, Some(t))?;
                let new_eq = probe.op(tr, array, LogicOp::And, eq, Some(plane))?;
                for h in [t, lt, eq] {
                    release(tr, array, h)?;
                }
                lt = new_lt;
                eq = new_eq;
            } else {
                let new_eq = probe.op(tr, array, LogicOp::And, eq, Some(not_a))?;
                release(tr, array, eq)?;
                eq = new_eq;
            }
            release(tr, array, not_a)?;
        }
        let result = match pred {
            Predicate::Lt => {
                release(tr, array, eq)?;
                lt
            }
            Predicate::Ge => {
                let r = probe.op(tr, array, LogicOp::Not, lt, None)?;
                release(tr, array, lt)?;
                release(tr, array, eq)?;
                r
            }
            other => return Err(format!("the traced scan does not issue {other:?}")),
        };
        tr.exit(app);
        Ok(result)
    }
}

impl Workload for Tablescan {
    type Sut = Sut;
    type Reply = BitVec;

    fn setup(&self) -> Result<Sut, String> {
        let mut array = DeviceArray::new(BatchConfig::default());
        let planes = self
            .columns
            .iter()
            .zip(WIDTHS)
            .map(|(values, w)| {
                let layout = VerticalLayout::from_values(values, w);
                layout.planes().iter().map(|p| array.store(p)).collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let probe = Probe::new(&array);
        Ok(Sut { array, planes, probe })
    }

    /// The traced pass re-issues `compare_on_array`'s calls itself; both
    /// forms must give bit-identical results and modeled statistics.
    fn self_check(&self) -> Result<(), String> {
        let mut app = self.setup()?;
        let mut traced = self.setup()?;
        for i in 0..4 {
            let a = self.serve(&mut app, i, None)?;
            let b = self.serve(&mut traced, i, Some(&mut Tracer::default()))?;
            if a != b {
                return Err(format!("traced scan {i} differs from compare_on_array"));
            }
        }
        if app.array.stats() != traced.array.stats() {
            return Err("traced scans model different DRAM statistics".into());
        }
        Ok(())
    }

    fn warmup(&self) -> usize {
        16
    }

    fn model_requests(&self) -> usize {
        self.queries.len()
    }

    fn serve(
        &self,
        sut: &mut Sut,
        i: usize,
        mut tr: Option<&mut Tracer>,
    ) -> Result<BitVec, String> {
        let q = self.query(i);
        let (lt, ge) = match tr.as_deref_mut() {
            Some(t) => (
                self.compare_traced(sut, t, q.lt_col, Predicate::Lt, q.lt_const)?,
                self.compare_traced(sut, t, q.ge_col, Predicate::Ge, q.ge_const)?,
            ),
            None => {
                let mut scan = |col: usize, pred, c| {
                    compare_on_array(&mut sut.array, &sut.planes[col], pred, c, self.lanes)
                        .map_err(err)
                };
                (
                    scan(q.lt_col, Predicate::Lt, q.lt_const)?,
                    scan(q.ge_col, Predicate::Ge, q.ge_const)?,
                )
            }
        };
        let both = match tr.as_deref_mut() {
            Some(t) => sut.probe.op(t, &mut sut.array, LogicOp::And, lt, Some(ge))?,
            None => sut.array.binary(LogicOp::And, lt, ge).map_err(err)?.0,
        };
        for h in [lt, ge] {
            timed(tr.as_deref_mut(), "batch.release", "DeviceArray::release", || {
                sut.array.release(h)
            })
            .map_err(err)?;
        }
        let bits =
            timed(tr.as_deref_mut(), "batch.load", "DeviceArray::load", || sut.array.load(both))
                .map_err(err)?;
        let count = timed(tr.as_deref_mut(), "bitvec.count_ones", "BitVec::count_ones", || {
            bits.count_ones()
        });
        std::hint::black_box(count);
        timed(tr, "batch.release", "DeviceArray::release", || sut.array.release(both))
            .map_err(err)?;
        Ok(bits)
    }

    fn check(&self, i: usize, reply: BitVec) -> bool {
        reply == self.expect[i % self.expect.len()]
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
    fn queries_follow_the_seed_and_the_oracle_is_exact() {
        let a = Tablescan::with_lanes(9, 256, 32);
        let b = Tablescan::with_lanes(9, 256, 32);
        assert_eq!((&a.columns, &a.queries, &a.expect), (&b.columns, &b.queries, &b.expect));
        assert_ne!(a.queries, Tablescan::with_lanes(10, 256, 32).queries);
        for (q, want) in a.queries.iter().zip(&a.expect) {
            assert_ne!(q.lt_col, q.ge_col);
            assert_eq!(q.lt_const.count_ones(), WIDTHS[q.lt_col] / 2);
            let lt = VerticalLayout::from_values(&a.columns[q.lt_col], WIDTHS[q.lt_col])
                .compare_reference(Predicate::Lt, q.lt_const);
            let ge = VerticalLayout::from_values(&a.columns[q.ge_col], WIDTHS[q.ge_col])
                .compare_reference(Predicate::Ge, q.ge_const);
            assert_eq!(&lt.and(&ge), want);
        }
    }
}
