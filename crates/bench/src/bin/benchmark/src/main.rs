//! The ELP2IM benchmark: five seeded workloads driven through the public
//! APIs of `apps`, `batch`, `synth` and `planlint`, each a single-caller
//! closed loop in its own process. See README.md for the metrics.

mod gen;
mod metrics;
mod runner;
mod stats;
mod trace;
mod workloads;

use elp2im_dram::json::Json;
use runner::{Options, Outcome};
use stats::{judge, Better};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, NAMES};

const USAGE: &str = "\
usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
      run one workload in this process; prints its metrics, then one JSON
      result line
  benchmark all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
      run every workload, each in its own process, one after another; print
      every end-to-end metric with unit and sample count, and append each
      workload's record to FILE (JSON lines) for `compare`
  benchmark --smoke
      `all` for about a second per workload; exits 1 if any workload fails
  benchmark compare --parent FILE --change FILE
      apply the pair rule to records of alternating parent/change runs, with
      the bounds in ./BENCHMARK.json

workloads: bitmap, tablescan, fault_soak, synth, certify";

/// Marks the full-record line a workload process prints for `all`.
const RECORD: &str = "record ";

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--flag value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").filter(|k| allowed.contains(k));
            let key = key.ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if map.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn options(&self) -> Result<Options, String> {
        let seed = self.get("seed").map_or(Ok(1), str::parse).map_err(|_| "--seed takes a u64")?;
        let seconds: f64 = self
            .get("seconds")
            .map_or(Ok(15.0), str::parse)
            .map_err(|_| "--seconds takes a number")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match self.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        };
        Ok(Options { seed, seconds, trace })
    }
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    const RUN: [&str; 4] = ["workload", "seed", "seconds", "trace"];
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..], &["seed", "seconds", "trace", "out"])?;
            let outcomes = run_all(flags.options()?, flags.get("out"))?;
            Ok(exit(outcomes.iter().all(Outcome::correct)))
        }
        Some("--smoke") if args.len() == 1 => {
            let outcomes = run_all(Options { seed: 1, seconds: 1.0, trace: false }, None)?;
            Ok(exit(outcomes.iter().all(Outcome::correct)))
        }
        Some("compare") => {
            let flags = Flags::parse(&args[1..], &["parent", "change"])?;
            let need = |k: &str| flags.get(k).ok_or_else(|| format!("compare needs --{k}"));
            compare(need("parent")?, need("change")?)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let flags = Flags::parse(&args, &RUN)?;
            let name = flags.get("workload").ok_or("--workload is required")?;
            let outcome = run_one(name, flags.options()?)?;
            print_table(std::slice::from_ref(&outcome));
            println!("{RECORD}{}", outcome.to_json());
            println!("{}", outcome.contract_line());
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(name: &str, opts: Options) -> Result<Outcome, String> {
    fn go<W: Workload>(name: &str, w: W, opts: Options) -> Result<Outcome, String> {
        runner::run(name, &w, opts)
    }
    match name {
        "bitmap" => go(name, workloads::bitmap::Bitmap::new(opts.seed), opts),
        "tablescan" => go(name, workloads::tablescan::Tablescan::new(opts.seed), opts),
        "fault_soak" => go(name, workloads::fault_soak::FaultSoak::new(opts.seed), opts),
        "synth" => go(name, workloads::synth::Synth::new(opts.seed), opts),
        "certify" => go(name, workloads::certify::Certify::new(opts.seed)?, opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs every workload in a child process of its own, one after another,
/// and collects their records.
fn run_all(opts: Options, out: Option<&str>) -> Result<Vec<Outcome>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut outcomes = Vec::new();
    for name in NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args([
                "--seconds",
                &opts.seconds.to_string(),
                "--trace",
                if opts.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = stdout
            .lines()
            .find_map(|l| l.strip_prefix(RECORD))
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("{name} exited with {} and no record", output.status))?;
        let doc = Json::parse(record).map_err(|e| format!("{name} record: {e}"))?;
        outcomes.push(Outcome::from_json(&doc).ok_or(format!("{name} record is malformed"))?);
    }
    print_table(&outcomes);
    if let Some(path) = out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        for o in &outcomes {
            writeln!(f, "{}", o.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(outcomes)
}

fn print_table(outcomes: &[Outcome]) {
    println!("{:<11} {:<27} {:>16} {:<11} {:>8}", "workload", "metric", "value", "unit", "samples");
    for o in outcomes {
        for m in &o.metrics {
            println!(
                "{:<11} {:<27} {:>16.6} {:<11} {:>8}",
                o.workload, m.name, m.value, m.unit, m.samples
            );
        }
        let verdict = if o.correct() { "correct".to_string() } else { o.problems.join("; ") };
        println!("{:<11} {} of {} requests failed: {verdict}", o.workload, o.failed, o.attempted);
    }
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let decimals = if x == 0.0 { 0 } else { (4 - x.abs().log10().floor() as i32).max(0) };
    format!("{x:.*}", decimals as usize)
}

/// Reads `compare` records: per workload, the runs in file order.
fn records(path: &str) -> Result<BTreeMap<String, Vec<Outcome>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_workload: BTreeMap<String, Vec<Outcome>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let o = Outcome::from_json(&doc).ok_or(format!("{path}:{}: not a record", n + 1))?;
        by_workload.entry(o.workload.clone()).or_default().push(o);
    }
    Ok(by_workload)
}

/// The bounded end-to-end metrics of `BENCHMARK.json`, with the exact ones
/// (no bound) after them.
fn judged_metrics() -> Result<Vec<(String, Better, Option<f64>)>, String> {
    let path = "BENCHMARK.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for m in doc.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")? {
        let field = |k| m.get(k).and_then(Json::as_str);
        let name = field("name").ok_or("metric without a name")?;
        let better = field("better").and_then(Better::parse).ok_or("metric without a direction")?;
        let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
        out.push((name.to_string(), better, Some(bound)));
    }
    for d in metrics::EXACT {
        out.push((d.name.to_string(), Better::parse(d.better).expect("catalog direction"), None));
    }
    Ok(out)
}

fn compare(parent: &str, change: &str) -> Result<ExitCode, String> {
    let (parent, change) = (records(parent)?, records(change)?);
    let judged = judged_metrics()?;
    println!(
        "{:<11} {:<16} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressions = 0;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            return Err(format!("no change runs for {workload}"));
        };
        for (name, better, bound) in &judged {
            let values = |runs: &[Outcome]| -> Option<Vec<f64>> {
                runs.iter().map(|o| o.get(name).map(|m| m.value)).collect()
            };
            let (Some(p), Some(c)) = (values(p_runs), values(c_runs)) else {
                continue;
            };
            let j = judge(&p, &c, *better, *bound).map_err(|e| format!("{workload}: {e}"))?;
            regressions += usize::from(j.verdict == stats::Verdict::Regression);
            let side = |s: stats::Side| format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3));
            println!(
                "{:<11} {:<16} {:>30} {:>30} {:>3}/{:<2}  {}",
                workload,
                name,
                side(j.parent),
                side(j.change),
                j.wins,
                j.pairs,
                j.verdict.label()
            );
        }
    }
    Ok(exit(regressions == 0))
}
