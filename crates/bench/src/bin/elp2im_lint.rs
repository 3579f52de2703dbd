//! `elp2im-lint` — the static sequence verifier as a command-line tool.
//!
//! Parses primitive programs written in the paper's `prmt([dst],src)`
//! notation, runs the `elp2im_core::analysis` abstract interpreter over
//! each one, and reports diagnostics with severities:
//!
//! * `error` — the program would fault on the engine (out-of-range rows,
//!   same-decoder overlap, destroyed/undefined reads, dangling regulation);
//! * `warning` — legal but suspicious (dead stores, clobbered live-ins);
//! * `note` — optimization opportunities (trimmable restores, Fig. 8).
//!
//! Exit codes: `0` clean, `1` denied warnings/notes, `2` errors (including
//! parse failures and `--self-test` failures), `3` usage errors.

use elp2im_core::analysis::{
    analyze, infer_live_in, infer_shape, verify_transform, AnalysisReport, Severity,
};
use elp2im_core::batch::{BatchConfig, DeviceArray};
use elp2im_core::bitvec::BitVec;
use elp2im_core::compile::{compile, xor_sequence, CompileMode, LogicOp, Operands};
use elp2im_core::expr::{compile_expr_greedy, Expr, ExprOperands};
use elp2im_core::isa::Program;
use elp2im_core::optimizer::{optimize_validated, PhysRow};
use elp2im_core::parse::parse_program;
use elp2im_core::planlint::{certify, BatchPlan, PlanReport, PlanStep};
use elp2im_core::primitive::{Primitive, RegulateMode, RowRef};
use elp2im_core::synth::{synthesize, SynthOperands};
use elp2im_core::validate::SubarrayShape;
use elp2im_dram::constraint::PumpBudget;
use elp2im_dram::geometry::{Geometry, TopoPath, Topology};
use elp2im_dram::hierarchy::check_refresh;
use elp2im_dram::json::Json;
use elp2im_dram::units::Ps;
use elp2im_dram::verify::ClaimedCommand;
use std::sync::Arc;

const USAGE: &str = "elp2im-lint: static verification of ELP2IM primitive programs

usage: elp2im-lint [OPTIONS] [FILES...]

Each file holds one program per line in prmt notation, e.g.
    APP(r0)·or ; AP(r1)
Lines starting with `#` are comments; two pragmas apply to all programs
that follow them in the same file:
    # lint-live-in: r0 r1 R0      rows assumed to hold data on entry
    # lint-shape: 16x2            data rows x reserved (DCC) rows
A program line may carry a `name:` prefix to label it in the report.
Without pragmas or flags, live-in rows and the shape are inferred from
the program itself (so undefined-read diagnostics need a declared
live-in set to fire).

options:
    --corpus          lint every compiled operation and XOR sequence
    --plan            plan mode: each FILE is one batch plan for the
                      plan-level verifier (borrow checker, cross-stream
                      hazards, static timing); with --corpus, certify
                      every compiled program as a one-step plan plus the
                      batch plans DeviceArray prepares
    --self-test       discharge the optimizer translation-validation
                      obligations and check seeded mutations are rejected
    --json            emit an `elp2im-lint-v1` JSON document on stdout
    --live-in ROWS    comma-separated default live-in set, e.g. r0,r1,R0
    --shape DxR       default subarray shape, e.g. 16x2
    --deny-warnings   exit 1 if any warning-severity diagnostic is emitted
    --deny-notes      exit 1 if any note-severity diagnostic is emitted
    -h, --help        show this help

Plan files (`--plan`) use pragmas plus `step` lines:
    # plan-topology: 1x1x2        channels x ranks x banks
    # plan-shape: 16x2            data rows x reserved (DCC) rows
    # plan-budget: jedec          charge-pump budget (or `unconstrained`)
    # plan-refresh: 7800x350      refresh interval x duration, ns
                                  (0 < duration < interval, else exit 3)
    # plan-live: b0.s0: r0 r1 R0  live rows of one (bank, subarray)
    step b0.s0: AAP([r2],r0)      a program bound to bank 0, subarray 0
    step b0.s0 @b1: AP(r0)        same, issuing on bank 1's stream
    # plan-claim: b0@0 b1@1000    claimed issue instants (bank@picoseconds,
                                  k-th mention of a bank = k-th command of
                                  its stream); without claims the plan is
                                  scheduled and the schedule re-verified";

/// One program to lint, with any declared context.
struct Job {
    name: String,
    prog: Program,
    live_in: Option<Vec<PhysRow>>,
    shape: Option<SubarrayShape>,
}

#[derive(Default)]
struct Options {
    corpus: bool,
    plan: bool,
    self_test: bool,
    json: bool,
    deny_warnings: bool,
    deny_notes: bool,
    live_in: Option<Vec<PhysRow>>,
    shape: Option<SubarrayShape>,
    files: Vec<String>,
}

fn parse_row(tok: &str) -> Option<PhysRow> {
    if let Some(i) = tok.strip_prefix('r') {
        return i.parse().ok().map(PhysRow::Data);
    }
    if let Some(i) = tok.strip_prefix('R') {
        return i.parse().ok().map(PhysRow::Dcc);
    }
    None
}

fn parse_row_list(spec: &str, sep: impl Fn(char) -> bool) -> Option<Vec<PhysRow>> {
    spec.split(sep).filter(|t| !t.is_empty()).map(|t| parse_row(t.trim())).collect()
}

fn parse_shape(spec: &str) -> Option<SubarrayShape> {
    let (d, r) = spec.split_once('x')?;
    Some(SubarrayShape { data_rows: d.trim().parse().ok()?, dcc_rows: r.trim().parse().ok()? })
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--corpus" => opts.corpus = true,
            "--plan" => opts.plan = true,
            "--self-test" => opts.self_test = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--deny-notes" => opts.deny_notes = true,
            "--live-in" => {
                let spec = it.next().ok_or("--live-in needs a value, e.g. r0,r1")?;
                opts.live_in =
                    Some(parse_row_list(spec, |c| c == ',').ok_or(format!("bad row in {spec:?}"))?);
            }
            "--shape" => {
                let spec = it.next().ok_or("--shape needs a value, e.g. 16x2")?;
                opts.shape = Some(parse_shape(spec).ok_or(format!("bad shape {spec:?}"))?);
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            file => opts.files.push(file.to_string()),
        }
    }
    if !opts.corpus && !opts.self_test && opts.files.is_empty() {
        return Err("nothing to lint: pass FILES, --corpus, or --self-test".into());
    }
    Ok(opts)
}

/// Parses a lint file into jobs. Pragmas seen so far apply to every
/// following program line.
fn load_file(path: &str) -> Result<Vec<Job>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = Vec::new();
    let mut live_in: Option<Vec<PhysRow>> = None;
    let mut shape: Option<SubarrayShape> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(spec) = rest.strip_prefix("lint-live-in:") {
                live_in = Some(
                    parse_row_list(spec, char::is_whitespace)
                        .ok_or(format!("{path}:{lineno}: bad lint-live-in row list"))?,
                );
            } else if let Some(spec) = rest.strip_prefix("lint-shape:") {
                shape = Some(
                    parse_shape(spec).ok_or(format!("{path}:{lineno}: bad lint-shape value"))?,
                );
            }
            continue;
        }
        let (name, body) = match line.split_once(':') {
            Some((n, b)) if !n.contains('(') && !n.contains(';') => (n.trim().to_string(), b),
            _ => (format!("{path}:{lineno}"), line),
        };
        let prog =
            parse_program(&name, body.trim()).map_err(|e| format!("{path}:{lineno}: {e}"))?;
        jobs.push(Job { name, prog, live_in: live_in.clone(), shape });
    }
    Ok(jobs)
}

/// Every compiled operation and XOR sequence, with its declared operand
/// live-in rows — the corpus CI lints on every push.
fn corpus() -> Vec<Job> {
    let rows = Operands::standard();
    let mut jobs = Vec::new();
    for op in LogicOp::ALL {
        for (mode, rr, tag) in [
            (CompileMode::LowLatency, 1usize, "ll,rr=1"),
            (CompileMode::LowLatency, 2, "ll,rr=2"),
            (CompileMode::HighThroughput, 1, "ht,rr=1"),
        ] {
            let prog = compile(op, mode, rows, rr).expect("corpus programs compile");
            let live = if op.is_unary() {
                vec![PhysRow::Data(rows.a)]
            } else {
                vec![PhysRow::Data(rows.a), PhysRow::Data(rows.b)]
            };
            jobs.push(Job {
                name: format!("{}[{tag}]", prog.name()),
                prog,
                live_in: Some(live),
                shape: Some(SubarrayShape { data_rows: 4, dcc_rows: rr }),
            });
        }
    }
    for op in [LogicOp::And, LogicOp::Or] {
        let ip = Operands { a: 0, b: 2, dst: 2, scratch: None };
        let prog = compile(op, CompileMode::InPlace, ip, 0).expect("in-place corpus compiles");
        jobs.push(Job {
            name: format!("{}[inplace]", prog.name()),
            prog,
            live_in: Some(vec![PhysRow::Data(ip.a), PhysRow::Data(ip.dst)]),
            shape: Some(SubarrayShape { data_rows: 4, dcc_rows: 0 }),
        });
    }
    for n in 1..=6u8 {
        let prog = xor_sequence(n, rows, 2).expect("xor corpus compiles");
        jobs.push(Job {
            name: prog.name().to_string(),
            prog,
            live_in: Some(vec![PhysRow::Data(rows.a), PhysRow::Data(rows.b)]),
            shape: Some(SubarrayShape { data_rows: 4, dcc_rows: 2 }),
        });
    }
    for (label, outputs, rows) in synth_cases() {
        let prog = synthesize(&outputs, &rows, CompileMode::LowLatency, 2)
            .expect("synth corpus synthesizes")
            .program;
        let max_row =
            rows.inputs.iter().chain(&rows.dsts).chain(&rows.temps).max().copied().unwrap_or(0);
        jobs.push(Job {
            name: format!("synth:{label}"),
            prog,
            live_in: Some(rows.inputs.iter().map(|&r| PhysRow::Data(r)).collect()),
            shape: Some(SubarrayShape { data_rows: max_row + 1, dcc_rows: 2 }),
        });
    }
    jobs
}

/// The synthesized-program corpus: every case runs through the full
/// network → e-graph → extraction → translation-validation pipeline, and
/// the resulting programs are linted like any other (and equivalence-
/// checked against the greedy lowering in `--self-test`).
fn synth_cases() -> Vec<(&'static str, Vec<Expr>, SynthOperands)> {
    let v = Expr::var;
    let rows = |vars: usize, outs: usize| SynthOperands {
        inputs: (0..vars).collect(),
        dsts: (vars..vars + outs).collect(),
        temps: (vars + outs..vars + outs + 6).collect(),
    };
    vec![
        ("xor-from-sop", vec![(v(0) & !v(1)) | (!v(0) & v(1))], rows(2, 1)),
        ("maj3", vec![Expr::maj(v(0), v(1), v(2))], rows(3, 1)),
        ("mux", vec![Expr::mux(v(0), v(1), v(2))], rows(3, 1)),
        ("and-xor-3input", vec![(v(0) & v(1)) ^ v(2)], rows(3, 1)),
        ("full-adder", vec![v(0) ^ v(1) ^ v(2), Expr::maj(v(0), v(1), v(2))], rows(3, 2)),
    ]
}

/// Parses a `bN.sM` placement token.
fn parse_unit_sub(tok: &str) -> Option<(usize, usize)> {
    let (u, s) = tok.strip_prefix('b')?.split_once(".s")?;
    Some((u.trim().parse().ok()?, s.trim().parse().ok()?))
}

/// Parses one plan file (see the `--plan` section of the usage text) into
/// a named [`BatchPlan`].
fn load_plan_file(path: &str) -> Result<(String, BatchPlan), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut topo_spec: Option<(usize, usize, usize)> = None;
    let mut shape: Option<SubarrayShape> = None;
    let mut budget = PumpBudget::unconstrained();
    let mut refresh: Option<(u64, u64)> = None;
    let mut live: Vec<((usize, usize), Vec<PhysRow>)> = Vec::new();
    // (unit, subarray, stream override, program)
    let mut steps: Vec<(usize, usize, Option<usize>, Program)> = Vec::new();
    let mut claims: Vec<(usize, u64)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        let bad = |what: &str| format!("{path}:{lineno}: {what}");
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(spec) = rest.strip_prefix("plan-topology:") {
                let parts: Vec<usize> =
                    spec.split('x').filter_map(|t| t.trim().parse().ok()).collect();
                match parts.as_slice() {
                    [c, r, b] => topo_spec = Some((*c, *r, *b)),
                    _ => return Err(bad("plan-topology wants CxRxB, e.g. 1x1x8")),
                }
            } else if let Some(spec) = rest.strip_prefix("plan-shape:") {
                shape = Some(parse_shape(spec).ok_or_else(|| bad("bad plan-shape value"))?);
            } else if let Some(spec) = rest.strip_prefix("plan-budget:") {
                budget = match spec.trim() {
                    "jedec" => PumpBudget::jedec_ddr3_1600(),
                    "unconstrained" => PumpBudget::unconstrained(),
                    _ => return Err(bad("plan-budget is `jedec` or `unconstrained`")),
                };
            } else if let Some(spec) = rest.strip_prefix("plan-refresh:") {
                let (i, d) =
                    spec.split_once('x').ok_or_else(|| bad("plan-refresh wants IxD ns"))?;
                refresh = Some((
                    i.trim().parse().map_err(|_| bad("bad refresh interval"))?,
                    d.trim().parse().map_err(|_| bad("bad refresh duration"))?,
                ));
            } else if let Some(spec) = rest.strip_prefix("plan-live:") {
                let (place, rows) =
                    spec.split_once(':').ok_or_else(|| bad("plan-live wants bN.sM: rows"))?;
                let unit_sub =
                    parse_unit_sub(place.trim()).ok_or_else(|| bad("bad bN.sM placement"))?;
                let rows = parse_row_list(rows, char::is_whitespace)
                    .ok_or_else(|| bad("bad plan-live row list"))?;
                live.push((unit_sub, rows));
            } else if let Some(spec) = rest.strip_prefix("plan-claim:") {
                for tok in spec.split_whitespace() {
                    let (bank, start) = tok
                        .strip_prefix('b')
                        .and_then(|t| t.split_once('@'))
                        .ok_or_else(|| bad("plan-claim tokens look like b0@12345"))?;
                    claims.push((
                        bank.parse().map_err(|_| bad("bad claim bank"))?,
                        start.parse().map_err(|_| bad("bad claim start (picoseconds)"))?,
                    ));
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("step ") {
            let (place, body) =
                rest.split_once(':').ok_or_else(|| bad("step wants bN.sM: prmt"))?;
            let mut place = place.split_whitespace();
            let unit_sub =
                place.next().and_then(parse_unit_sub).ok_or_else(|| bad("bad bN.sM placement"))?;
            let stream = match place.next() {
                Some(tok) => Some(
                    tok.strip_prefix("@b")
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("stream override looks like @b1"))?,
                ),
                None => None,
            };
            let name = format!("step#{}", steps.len());
            let prog = parse_program(&name, body.trim()).map_err(|e| bad(&e.to_string()))?;
            steps.push((unit_sub.0, unit_sub.1, stream, prog));
            continue;
        }
        return Err(bad("plan files hold pragmas and `step` lines only"));
    }
    let max_unit = steps
        .iter()
        .map(|s| s.0.max(s.2.unwrap_or(0)))
        .chain(claims.iter().map(|c| c.0))
        .max()
        .unwrap_or(0);
    let (c, r, b) = topo_spec.unwrap_or((1, 1, max_unit + 1));
    let shape = shape.unwrap_or(SubarrayShape { data_rows: 16, dcc_rows: 2 });
    let topology = Topology::new(
        c,
        r,
        Geometry {
            banks: b.max(1),
            subarrays_per_bank: steps.iter().map(|s| s.1 + 1).max().unwrap_or(1),
            rows_per_subarray: shape.data_rows.max(1),
            row_bytes: 8,
        },
    );
    let mut plan = BatchPlan::new(topology, budget, shape);
    plan.refresh = refresh.map(|(i, d)| (Ps(i * 1000), Ps(d * 1000)));
    for ((unit, sub), rows) in live {
        plan.live_in.entry((unit, sub)).or_default().extend(rows);
    }
    let total = plan.topology.total_banks();
    for (unit, sub, stream, prog) in steps {
        let flat = stream.unwrap_or(unit);
        let stream = if flat < total {
            plan.topology.path(flat)
        } else {
            TopoPath::flat_bank(flat) // out of topology: the verifier rejects it
        };
        plan.steps.push(PlanStep { unit, subarray: sub, stream, program: Arc::new(prog) });
    }
    if !claims.is_empty() {
        let mut list = Vec::with_capacity(claims.len());
        for (bank, start) in claims {
            if bank >= total {
                return Err(format!("{path}: claim names bank {bank} outside the topology"));
            }
            list.push(ClaimedCommand { path: plan.topology.path(bank), start: Ps(start) });
        }
        plan.claims = Some(list);
    }
    Ok((path.to_string(), plan))
}

/// The plan corpus: every program-corpus job lifted to a one-step plan,
/// plus the batch plans [`DeviceArray`] actually prepares for every logic
/// operation over representative topologies and compile modes.
fn plan_corpus() -> Vec<(String, BatchPlan)> {
    let mut plans = Vec::new();
    for job in corpus() {
        let live = job.live_in.clone().unwrap_or_else(|| infer_live_in(&job.prog));
        let shape = job.shape.unwrap_or(SubarrayShape { data_rows: 16, dcc_rows: 2 });
        let topology = Topology::module(Geometry {
            banks: 1,
            subarrays_per_bank: 1,
            rows_per_subarray: shape.data_rows.max(1),
            row_bytes: 8,
        });
        let mut plan = BatchPlan::new(topology, PumpBudget::unconstrained(), shape);
        plan.live_in.insert((0, 0), live.into_iter().collect());
        plan.steps.push(PlanStep {
            unit: 0,
            subarray: 0,
            stream: plan.topology.path(0),
            program: Arc::new(job.prog),
        });
        plans.push((format!("plan:{}", job.name), plan));
    }
    for (label, channels, ranks, banks) in [("module", 1usize, 1usize, 4usize), ("2x2", 2, 2, 2)] {
        for mode in [CompileMode::LowLatency, CompileMode::HighThroughput] {
            let geometry =
                Geometry { banks, subarrays_per_bank: 2, rows_per_subarray: 32, row_bytes: 32 };
            let mut array = DeviceArray::new(BatchConfig {
                topology: Topology::new(channels, ranks, geometry),
                reserved_rows: 2,
                mode,
                budget: PumpBudget::jedec_ddr3_1600(),
            });
            let bits = array.row_bits() * array.banks() * 2;
            let a = array.store(&BitVec::ones(bits)).expect("plan corpus store");
            let b = array.store(&BitVec::zeros(bits)).expect("plan corpus store");
            for op in LogicOp::ALL {
                let plan = if op.is_unary() {
                    array.plan(op, a, None)
                } else {
                    array.plan(op, a, Some(b))
                }
                .expect("plan corpus prepares");
                plans.push((format!("batch:{label}:{mode:?}:{}", op.name()), plan));
            }
        }
    }
    plans
}

fn plan_severity_counts(reports: &[(String, PlanReport)]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for (_, report) in reports {
        for d in report.diagnostics() {
            match d.severity {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Note => counts.2 += 1,
            }
        }
    }
    counts
}

fn print_plan_human(reports: &[(String, PlanReport)]) {
    for (name, report) in reports {
        let status = if !report.is_accepted() {
            "FAIL".to_string()
        } else {
            let base = if report.diagnostics().is_empty() { "ok" } else { "ok (with diagnostics)" };
            match report.makespan() {
                Some(ms) => format!("{base}, proven makespan {:.1} ns", ms.as_f64()),
                None => base.to_string(),
            }
        };
        println!("{name}: {status}");
        for d in report.diagnostics() {
            println!("  {}: {d}", d.severity);
        }
    }
    let (errors, warnings, notes) = plan_severity_counts(reports);
    println!("{} plans, {errors} errors, {warnings} warnings, {notes} notes", reports.len());
}

fn print_plan_json(reports: &[(String, PlanReport)]) {
    let plans: Vec<Json> = reports
        .iter()
        .map(|(name, report)| {
            let diags: Vec<Json> = report
                .diagnostics()
                .iter()
                .map(|d| {
                    Json::obj()
                        .with("severity", Json::str(d.severity.to_string()))
                        .with("kind", Json::str(d.kind.slug()))
                        .with("step", d.step.map_or(Json::Null, |s| Json::Num(s as f64)))
                        .with("message", Json::str(d.to_string()))
                })
                .collect();
            Json::obj()
                .with("name", Json::str(name))
                .with("accepted", Json::Bool(report.is_accepted()))
                .with(
                    "makespan_ns",
                    report.makespan().map_or(Json::Null, |m| Json::Num(m.as_f64())),
                )
                .with("diagnostics", Json::Arr(diags))
        })
        .collect();
    let (errors, warnings, notes) = plan_severity_counts(reports);
    let doc = Json::obj()
        .with("schema", Json::str("elp2im-lint-v1"))
        .with("plans", Json::Arr(plans))
        .with(
            "summary",
            Json::obj()
                .with("plans", Json::Num(reports.len() as f64))
                .with("errors", Json::Num(errors as f64))
                .with("warnings", Json::Num(warnings as f64))
                .with("notes", Json::Num(notes as f64)),
        );
    println!("{}", doc.pretty());
}

/// `--plan` mode: certify plan files (and, with `--corpus`, the plan
/// corpus) with the plan-level static verifier.
fn run_plan_mode(opts: &Options) -> i32 {
    let mut plans = Vec::new();
    if opts.corpus {
        plans.extend(plan_corpus());
    }
    for file in &opts.files {
        match load_plan_file(file) {
            Ok(named) => {
                // A window that leaves no issue time is bad input, not a
                // plan to refute.
                if let Err(e) = check_refresh(named.1.refresh) {
                    eprintln!("error: {file}: plan-refresh: {e}");
                    return 3;
                }
                plans.push(named);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    }
    let reports: Vec<(String, PlanReport)> =
        plans.iter().map(|(name, plan)| (name.clone(), certify(plan))).collect();
    if opts.json {
        print_plan_json(&reports);
    } else {
        print_plan_human(&reports);
    }
    let (errors, warnings, notes) = plan_severity_counts(&reports);
    if errors > 0 {
        2
    } else if (opts.deny_warnings && warnings > 0) || (opts.deny_notes && notes > 0) {
        1
    } else {
        0
    }
}

/// Resolves the analysis context (job pragma > CLI default > inferred)
/// and runs the abstract interpreter.
fn lint_one(job: &Job, opts: &Options) -> AnalysisReport {
    let live_in = job
        .live_in
        .clone()
        .or_else(|| opts.live_in.clone())
        .unwrap_or_else(|| infer_live_in(&job.prog));
    let shape = job.shape.or(opts.shape).unwrap_or_else(|| {
        let mut s = infer_shape(&job.prog);
        for r in &live_in {
            match *r {
                PhysRow::Data(i) => s.data_rows = s.data_rows.max(i + 1),
                PhysRow::Dcc(i) => s.dcc_rows = s.dcc_rows.max(i + 1),
            }
        }
        s
    });
    analyze(&job.prog, shape, &live_in)
}

fn severity_counts(reports: &[(String, AnalysisReport)]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for (_, report) in reports {
        for d in report.diagnostics() {
            match d.severity {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Note => counts.2 += 1,
            }
        }
    }
    counts
}

fn print_human(reports: &[(String, AnalysisReport)]) {
    for (name, report) in reports {
        let status = if !report.is_accepted() {
            "FAIL"
        } else if report.diagnostics().is_empty() {
            "ok"
        } else {
            "ok (with diagnostics)"
        };
        println!("{name}: {status}");
        for d in report.diagnostics() {
            println!("  {}: {d}", d.severity);
        }
    }
    let (errors, warnings, notes) = severity_counts(reports);
    println!("{} programs, {errors} errors, {warnings} warnings, {notes} notes", reports.len());
}

fn print_json(reports: &[(String, AnalysisReport)]) {
    let programs: Vec<Json> = reports
        .iter()
        .map(|(name, report)| {
            let diags: Vec<Json> = report
                .diagnostics()
                .iter()
                .map(|d| {
                    Json::obj()
                        .with("severity", Json::str(d.severity.to_string()))
                        .with("kind", Json::str(d.kind.slug()))
                        .with("at", Json::Num(d.at as f64))
                        .with("message", Json::str(d.to_string()))
                })
                .collect();
            Json::obj()
                .with("name", Json::str(name))
                .with("accepted", Json::Bool(report.is_accepted()))
                .with("diagnostics", Json::Arr(diags))
        })
        .collect();
    let (errors, warnings, notes) = severity_counts(reports);
    let doc = Json::obj()
        .with("schema", Json::str("elp2im-lint-v1"))
        .with("programs", Json::Arr(programs))
        .with(
            "summary",
            Json::obj()
                .with("programs", Json::Num(reports.len() as f64))
                .with("errors", Json::Num(errors as f64))
                .with("warnings", Json::Num(warnings as f64))
                .with("notes", Json::Num(notes as f64)),
        );
    println!("{}", doc.pretty());
}

/// Seeded optimizer mutations the translation validator must reject:
/// each pair is (input program, semantically different "optimized" output).
fn seeded_mutations() -> Vec<(&'static str, Program, Program)> {
    let or = RegulateMode::Or;
    let and = RegulateMode::And;
    vec![
        (
            "dropped-restore",
            Program::new(
                "keep-restore",
                vec![
                    Primitive::App { row: RowRef::Data(0), mode: or },
                    Primitive::Ap { row: RowRef::Data(1) },
                ],
            ),
            Program::new(
                "trimmed-restore",
                vec![
                    Primitive::TApp { row: RowRef::Data(0), mode: or },
                    Primitive::Ap { row: RowRef::Data(1) },
                ],
            ),
        ),
        (
            "swapped-operands",
            Program::new(
                "a-and-not-b",
                vec![
                    Primitive::App { row: RowRef::Data(1), mode: and },
                    Primitive::Aap { src: RowRef::Data(0), dst: RowRef::Data(2) },
                ],
            ),
            Program::new(
                "b-and-not-a",
                vec![
                    Primitive::App { row: RowRef::Data(0), mode: and },
                    Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(2) },
                ],
            ),
        ),
        (
            "cross-regulation-merge",
            Program::new(
                "two-regulations",
                vec![
                    Primitive::App { row: RowRef::Data(0), mode: or },
                    Primitive::Ap { row: RowRef::Data(1) },
                    Primitive::App { row: RowRef::Data(2), mode: and },
                    Primitive::Ap { row: RowRef::Data(1) },
                    Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(3) },
                ],
            ),
            Program::new(
                "merged-across-regulations",
                vec![
                    Primitive::App { row: RowRef::Data(0), mode: or },
                    Primitive::App { row: RowRef::Data(2), mode: and },
                    Primitive::Ap { row: RowRef::Data(1) },
                    Primitive::Aap { src: RowRef::Data(1), dst: RowRef::Data(3) },
                ],
            ),
        ),
    ]
}

/// Discharges the optimizer translation-validation obligations over the
/// whole corpus, then checks that seeded mutations are rejected. All
/// output goes to stderr so `--json` keeps stdout clean.
fn self_test() -> i32 {
    let mut failures = 0;
    let mut discharged = 0;
    for job in corpus() {
        if job.name.starts_with("synth:") {
            continue; // synthesized programs are checked against greedy below
        }
        let mut preserve = job.live_in.clone().unwrap_or_default();
        let dst = PhysRow::Data(Operands::standard().dst);
        if !preserve.contains(&dst) {
            preserve.push(dst);
        }
        match optimize_validated(&job.prog, &preserve, true) {
            Ok(_) => discharged += 1,
            Err(e) => {
                eprintln!("self-test: translation validation failed for {}: {e}", job.name);
                failures += 1;
            }
        }
    }
    // Synthesized programs must be truth-table equivalent to the greedy
    // structural lowering of the same network on every destination row.
    for (label, outputs, rows) in synth_cases() {
        let synth_prog = match synthesize(&outputs, &rows, CompileMode::LowLatency, 2) {
            Ok(s) => s.program,
            Err(e) => {
                eprintln!("self-test: synthesis failed for synth:{label}: {e}");
                failures += 1;
                continue;
            }
        };
        let mut greedy = Program::new(format!("greedy:{label}"), vec![]);
        for (k, e) in outputs.iter().enumerate() {
            let greedy_rows = ExprOperands {
                inputs: rows.inputs.clone(),
                dst: rows.dsts[k],
                temps: rows.temps.clone(),
            };
            match compile_expr_greedy(e, &greedy_rows, CompileMode::LowLatency, 2) {
                Ok(p) => greedy = greedy.then(p),
                Err(err) => {
                    eprintln!("self-test: greedy reference failed for synth:{label}: {err}");
                    failures += 1;
                }
            }
        }
        let observable: Vec<PhysRow> = rows.dsts.iter().map(|&r| PhysRow::Data(r)).collect();
        match verify_transform(&greedy, &synth_prog, Some(&observable)) {
            Ok(()) => discharged += 1,
            Err(e) => {
                eprintln!("self-test: synth:{label} disagrees with greedy lowering: {e}");
                failures += 1;
            }
        }
    }
    let mut rejected = 0;
    for (name, input, output) in seeded_mutations() {
        match verify_transform(&input, &output, None) {
            Err(_) => rejected += 1,
            Ok(()) => {
                eprintln!("self-test: seeded mutation {name:?} was NOT rejected");
                failures += 1;
            }
        }
    }
    eprintln!(
        "self-test: {discharged} translation-validation obligations discharged, \
         {rejected} seeded mutations rejected"
    );
    if failures > 0 {
        2
    } else {
        0
    }
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return 0;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return 3;
        }
    };

    if opts.plan {
        return run_plan_mode(&opts);
    }

    let mut jobs = Vec::new();
    if opts.corpus {
        jobs.extend(corpus());
    }
    for file in &opts.files {
        match load_file(file) {
            Ok(mut loaded) => jobs.append(&mut loaded),
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    }

    let reports: Vec<(String, AnalysisReport)> =
        jobs.iter().map(|job| (job.name.clone(), lint_one(job, &opts))).collect();
    if !reports.is_empty() || !opts.self_test {
        if opts.json {
            print_json(&reports);
        } else {
            print_human(&reports);
        }
    }

    let self_rc = if opts.self_test { self_test() } else { 0 };
    let (errors, warnings, notes) = severity_counts(&reports);
    let lint_rc = if errors > 0 {
        2
    } else if (opts.deny_warnings && warnings > 0) || (opts.deny_notes && notes > 0) {
        1
    } else {
        0
    };
    lint_rc.max(self_rc)
}

fn main() {
    std::process::exit(run());
}
