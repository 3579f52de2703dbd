//! `synth`: one `synth::synthesize` call per request over a fixed corpus:
//! the BENCH_009 functions, SIMDRAM-style blocks, random read-once DAGs,
//! and a few tiny DAGs with repeated variables that stop at the
//! saturation limits. The only workload that runs `synth` and `egraph`;
//! the limit-bound DAGs make up most of the host time, so saturation
//! fixes move `requests_per_s`, while `latency_p50_us` tracks per-call
//! overhead.
//!
//! The corpus structure is fixed; the workload seed renames every
//! function's variables and orders the requests, so each seed synthesizes
//! different expressions of the same cost profile.

use super::{Model, Workload};
use crate::gen::Rng;
use crate::trace::Tracer;
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::CompileMode;
use elp2im_core::engine::SubarrayEngine;
use elp2im_core::expr::Expr;
use elp2im_core::isa::Program;
use elp2im_core::primitive::RowRef;
use elp2im_core::synth::{synthesize, SynthOperands};
use elp2im_dram::power::PowerModel;
use elp2im_dram::timing::Ddr3Timing;

const MODE: CompileMode = CompileMode::LowLatency;
const RESERVED_ROWS: usize = 2;
const TEMP_ROWS: usize = 12;
/// Seed of the corpus structure (not of the workload).
const CORPUS_SEED: u64 = 0x5EED_C0DE;
const RANDOM_DAGS: usize = 36;

/// One function to synthesize.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub outputs: Vec<Expr>,
    pub vars: usize,
}

/// The fixed corpus, before renaming.
pub fn corpus() -> Vec<Function> {
    let v = Expr::var;
    let f = |name: &str, outputs: Vec<Expr>, vars: usize| Function {
        name: name.to_string(),
        outputs,
        vars,
    };
    let maj = Expr::maj;
    let mut out = vec![
        // BENCH_009.
        f("xor2-sop", vec![(v(0) & !v(1)) | (!v(0) & v(1))], 2),
        f("and2", vec![v(0) & v(1)], 2),
        f("nand2", vec![!(v(0) & v(1))], 2),
        f("maj3", vec![maj(v(0), v(1), v(2))], 3),
        f("mux2", vec![Expr::mux(v(0), v(1), v(2))], 3),
        f("and-xor", vec![(v(0) & v(1)) ^ v(2)], 3),
        f("full-adder", vec![v(0) ^ v(1) ^ v(2), maj(v(0), v(1), v(2))], 3),
        // SIMDRAM-style building blocks.
        f("parity4", vec![v(0) ^ v(1) ^ v(2) ^ v(3)], 4),
        f("comparator-bit", vec![(v(0) & !v(1)) | (!(v(0) ^ v(1)) & v(2))], 3),
        f("adder2-sum", vec![v(0) ^ v(2), v(1) ^ v(3) ^ (v(0) & v(2))], 4),
        f(
            "maj5",
            vec![maj(
                v(4),
                maj(v(0), v(1), maj(v(2), v(3), v(4))),
                maj(v(2), v(3), maj(v(0), v(1), v(4))),
            )],
            5,
        ),
        f(
            "mux4",
            vec![Expr::mux(v(1), Expr::mux(v(0), v(5), v(4)), Expr::mux(v(0), v(3), v(2)))],
            6,
        ),
        // Repeated variables: saturation stops at a limit (iterations or
        // nodes) before reaching a fixpoint.
        f("rep-or-maj", vec![v(1) | (maj(v(2), v(2), v(3)) | (v(1) | v(0)))], 4),
        f("rep-and-xor", vec![v(2) & (v(2) ^ (v(1) & v(0)))], 3),
        f("rep-maj-xor", vec![(maj(v(0), v(0), v(2)) ^ (v(1) & v(1))) | v(0)], 3),
        f("rep-xor-or", vec![((v(2) ^ v(1)) | (v(2) & v(2))) ^ (!v(0) & (v(1) | v(1)))], 3),
    ];
    let mut rng = Rng::new(CORPUS_SEED, 0);
    for k in 0..RANDOM_DAGS {
        let vars = 3 + rng.below(2);
        let e = loop {
            let mut pool: Vec<usize> = (0..vars).collect();
            let e = read_once(&mut rng, &mut pool, 3);
            if gates(&e) >= 2 {
                break e;
            }
        };
        out.push(f(&format!("dag{k}"), vec![e], vars));
    }
    out
}

/// A random read-once formula (each variable at most once) of depth at
/// most `depth`.
fn read_once(rng: &mut Rng, pool: &mut Vec<usize>, depth: usize) -> Expr {
    if depth == 0 || pool.len() == 1 || rng.below(4) == 0 {
        let v = Expr::var(pool.swap_remove(rng.below(pool.len())));
        return if rng.below(3) == 0 { !v } else { v };
    }
    let a = read_once(rng, pool, depth - 1);
    if pool.is_empty() {
        return a;
    }
    let b = read_once(rng, pool, depth - 1);
    let e = match rng.below(3) {
        0 => a & b,
        1 => a | b,
        _ => a ^ b,
    };
    if rng.below(4) == 0 {
        !e
    } else {
        e
    }
}

/// Binary gates in an expression tree.
fn gates(e: &Expr) -> usize {
    match e {
        Expr::Var(_) => 0,
        Expr::Not(x) => gates(x),
        Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => 1 + gates(a) + gates(b),
        Expr::Maj(a, b, c) | Expr::Ite(a, b, c) => 1 + gates(a) + gates(b) + gates(c),
    }
}

/// `e` with variable `i` renamed to `perm[i]`.
fn rename(e: &Expr, perm: &[usize]) -> Expr {
    let r = |x: &Expr| rename(x, perm);
    match e {
        Expr::Var(i) => Expr::var(perm[*i]),
        Expr::Not(x) => !r(x),
        Expr::And(a, b) => r(a) & r(b),
        Expr::Or(a, b) => r(a) | r(b),
        Expr::Xor(a, b) => r(a) ^ r(b),
        Expr::Maj(a, b, c) => Expr::maj(r(a), r(b), r(c)),
        Expr::Ite(a, b, c) => Expr::ite(r(a), r(b), r(c)),
    }
}

#[derive(Debug)]
pub struct Synth {
    /// The corpus with this seed's variable names.
    functions: Vec<Function>,
    /// Request `i` synthesizes `functions[order[i % len]]`.
    order: Vec<usize>,
    timing: Ddr3Timing,
    power: PowerModel,
}

/// Staged requests plus traced-pass counters.
#[derive(Debug)]
pub struct Sut {
    requests: Vec<(Vec<Expr>, SynthOperands)>,
    model: Model,
    counts: Counts,
}

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    nodes: u64,
    iterations: u64,
    unsaturated: u64,
    gates: u64,
    primitives: u64,
}

impl Synth {
    pub fn new(seed: u64) -> Synth {
        let mut rng = Rng::new(seed, 4);
        let functions: Vec<Function> = corpus()
            .into_iter()
            .map(|f| {
                let perm = rng.permutation(f.vars);
                Function { outputs: f.outputs.iter().map(|e| rename(e, &perm)).collect(), ..f }
            })
            .collect();
        let order = rng.permutation(functions.len());
        Synth {
            functions,
            order,
            timing: Ddr3Timing::ddr3_1600(),
            power: PowerModel::micron_ddr3_1600(),
        }
    }

    fn index(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    fn function(&self, i: usize) -> &Function {
        &self.functions[self.index(i)]
    }
}

/// Inputs in rows `0..vars`, outputs next, temporaries after them.
fn operands(f: &Function) -> SynthOperands {
    let (vars, outs) = (f.vars, f.outputs.len());
    SynthOperands {
        inputs: (0..vars).collect(),
        dsts: (vars..vars + outs).collect(),
        temps: (vars + outs..vars + outs + TEMP_ROWS).collect(),
    }
}

impl Workload for Synth {
    type Sut = Sut;
    type Reply = Program;

    fn setup(&self) -> Result<Sut, String> {
        let requests = self.functions.iter().map(|f| (f.outputs.clone(), operands(f))).collect();
        Ok(Sut { requests, model: Model::default(), counts: Counts::default() })
    }

    fn warmup(&self) -> usize {
        0
    }

    fn model_requests(&self) -> usize {
        self.functions.len()
    }

    fn serve(&self, sut: &mut Sut, i: usize, tr: Option<&mut Tracer>) -> Result<Program, String> {
        let (outputs, rows) = &sut.requests[self.index(i)];
        let s = super::timed(tr, "synth.self", "synth::synthesize", || {
            synthesize(outputs, rows, MODE, RESERVED_ROWS)
        })
        .map_err(super::err)?;
        let latency = s.program.latency(&self.timing).as_f64();
        let m = &mut sut.model;
        m.makespan_ns += latency;
        m.busy_ns += latency;
        m.dynamic_pj += s.program.energy(&self.timing, &self.power).as_f64();
        m.commands += s.program.len() as u64;
        m.activations += s.program.wordline_events(&self.timing);
        let c = &mut sut.counts;
        c.nodes += s.saturation.nodes as u64;
        c.iterations += s.saturation.iterations as u64;
        c.unsaturated += u64::from(!s.saturation.saturated);
        c.gates += s.gates as u64;
        c.primitives += s.program.len() as u64;
        Ok(s.program)
    }

    /// Runs the program on a subarray engine over every input pattern (one
    /// column per pattern) and compares each output row with
    /// `Expr::eval_bitvec`, independently of synthesis' own validation.
    fn check(&self, i: usize, program: Program) -> bool {
        let f = self.function(i);
        let rows = operands(f);
        let patterns = 1usize << f.vars;
        let inputs: Vec<BitVec> =
            (0..f.vars).map(|j| (0..patterns).map(|c| (c >> j) & 1 == 1).collect()).collect();
        let data_rows = rows.temps.last().map_or(0, |t| t + 1);
        let mut engine = SubarrayEngine::new(patterns, data_rows, RESERVED_ROWS);
        let ran = inputs
            .iter()
            .enumerate()
            .try_for_each(|(j, bits)| engine.write_row(j, bits.clone()))
            .and_then(|()| engine.run(program.primitives()));
        ran.is_ok()
            && f.outputs.iter().zip(&rows.dsts).all(|(e, &dst)| {
                engine.row(RowRef::Data(dst)).is_ok_and(|got| got == e.eval_bitvec(&inputs))
            })
    }

    fn modeled(&self, sut: &mut Sut) -> Model {
        sut.model
    }

    fn layer_counters(&self, sut: &Sut, requests: usize) -> Vec<(&'static str, f64)> {
        let c = &sut.counts;
        let per_req = |x: u64| x as f64 / requests as f64;
        vec![
            ("synth.egraph_nodes", per_req(c.nodes)),
            ("synth.iterations", per_req(c.iterations)),
            ("synth.unsaturated_frac", per_req(c.unsaturated)),
            ("synth.gates", per_req(c.gates)),
            ("synth.primitives", per_req(c.primitives)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_follows_the_seed_and_keeps_its_structure() {
        let (a, b, c) = (Synth::new(1), Synth::new(1), Synth::new(2));
        assert_eq!((&a.functions, &a.order), (&b.functions, &b.order));
        assert_ne!(a.functions, c.functions);
        assert_eq!(a.functions.len(), corpus().len());
        for (x, y) in a.functions.iter().zip(&c.functions) {
            assert_eq!((&x.name, x.vars), (&y.name, y.vars));
            assert_eq!(
                x.outputs.iter().map(gates).sum::<usize>(),
                y.outputs.iter().map(gates).sum()
            );
        }
    }

    #[test]
    fn maj5_is_the_five_input_majority() {
        let f = corpus().into_iter().find(|f| f.name == "maj5").unwrap();
        for x in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|j| (x >> j) & 1 == 1).collect();
            assert_eq!(f.outputs[0].eval(&bits), x.count_ones() >= 3, "{x:05b}");
        }
    }

    #[test]
    fn the_oracle_accepts_synthesized_programs_and_rejects_wrong_ones() {
        let w = Synth::new(3);
        let mut sut = w.setup().unwrap();
        let i = (0..w.order.len()).find(|&i| w.function(i).name == "full-adder").unwrap();
        let program = w.serve(&mut sut, i, None).unwrap();
        assert!(w.check(i, program.clone()));
        let j = (0..w.order.len()).find(|&j| w.function(j).name == "parity4").unwrap();
        assert!(!w.check(j, program));
        let m = w.modeled(&mut sut);
        assert!(m.makespan_ns > 0.0 && m.commands > 0);
    }
}
