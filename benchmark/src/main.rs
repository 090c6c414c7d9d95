//! The Triple-A simulator benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--scale full|smoke] [--out <file>]
//! benchmark --seed <n> [...]            # every workload, one child process each
//! benchmark compare <parent.jsonl> <change.jsonl> [--bench-json <file>]
//! ```
//!
//! A run prints one `workload metric value unit` line per metric, then,
//! as its last line, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. It exits non-zero when a self-check fails. See
//! `README.md` beside this crate for the workloads and metrics.

mod compare;
mod e2e;
mod heap;
mod layers;
mod stats;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

use serde_json::Value;
use triplea_core::{RunReport, VerifiedRun};

// Counts heap traffic for `core.allocs_per_req` and the live-heap peak
// for `peak_heap_mb`.
#[global_allocator]
static ALLOC: heap::PeakAllocator = heap::PeakAllocator;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// What one run of one workload reports.
pub struct Outcome {
    pub workload: String,
    /// Requests replayed in the timed reps.
    pub attempted: u64,
    /// Requests that failed: unserviceable, dropped, or in a rep that
    /// failed a self-check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed lines that are not metrics (digests, bases, error rate).
    pub notes: Vec<String>,
    /// Failed self-checks.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(workload: &str) -> Self {
        Outcome {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.to_string(),
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    fn check(&mut self, problems: Vec<String>) {
        self.problems.extend(problems);
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result object: the last line a run prints.
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            (
                "metrics".into(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Value::Object(vec![
                                    ("value".into(), Value::F64(m.value)),
                                    ("unit".into(), Value::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self-checks on one run: the integrity audit passed, every submitted
/// request completed or was lost at a power cut, and the report equals
/// the reference run's.
pub fn audit(run: &VerifiedRun, submitted: u64, reference: Option<&RunReport>) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = &run.integrity {
        problems.push(format!("integrity audit failed: {e}"));
    }
    let r = &run.report;
    let lost = r.recovery_stats().lost_inflight_requests;
    if r.completed() + lost != submitted {
        problems.push(format!(
            "{} completed + {lost} lost != {submitted} submitted",
            r.completed()
        ));
    }
    if reference.is_some_and(|reference| reference != r) {
        problems.push(format!(
            "report differs from the first run's (digest {:016x} vs {:016x})",
            digest(r),
            digest(reference.expect("checked above"))
        ));
    }
    problems
}

/// FNV-1a over the report's JSON form: equal digests on two commits show
/// that no simulated statistic moved.
pub fn digest(r: &RunReport) -> u64 {
    let text = serde_json::to_string(r).expect("a run report serializes");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Parsed command line of a measuring run.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Fraction of each workload's requests (1.0, or 0.01 for `smoke`).
    scale: f64,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        out: None,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3_600.0) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => 1.0,
                    "smoke" => 0.01,
                    v => return Err(format!("--scale takes full or smoke, not {v:?}")),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// Requests of `name` at `scale`.
fn requests(name: &str, scale: f64) -> usize {
    ((workloads::base_requests(name) as f64 * scale) as usize).max(100)
}

/// Runs one workload in this process.
fn measure(name: &str, args: &Args) -> Outcome {
    let n = requests(name, args.scale);
    if args.trace {
        // The input of the end-to-end run's first variant.
        layers::run(name, e2e::variant_seeds(args.seed)[0], n)
    } else {
        e2e::run(name, args.seed, args.seconds, n)
    }
}

fn print_outcome(o: &Outcome) {
    for m in &o.metrics {
        if m.note.is_empty() {
            println!("{} {} {} {}", o.workload, m.name, m.value, m.unit);
        } else {
            println!(
                "{} {} {} {}  # {}",
                o.workload, m.name, m.value, m.unit, m.note
            );
        }
    }
    for line in &o.notes {
        println!("{} {line}", o.workload);
    }
    for p in &o.problems {
        println!("{} SELF-CHECK FAILED: {p}", o.workload);
    }
}

/// The outcome tagged with workload, seed and mode, as one JSON line:
/// the result-set format `compare` reads.
fn record_line(o: &Outcome, args: &Args) -> String {
    let Value::Object(mut fields) = o.to_json() else {
        unreachable!("to_json builds an object")
    };
    fields.splice(
        0..0,
        [
            ("workload".to_string(), Value::Str(o.workload.clone())),
            ("seed".to_string(), Value::U64(args.seed)),
            ("trace".to_string(), Value::U64(u64::from(args.trace))),
        ],
    );
    serde_json::to_string(&Value::Object(fields)).expect("finite metrics")
}

fn append_record(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Runs every workload, each in its own child process so that no
/// workload inherits another's heap or resident set, one at a time, and
/// prints their lines followed by a combined result object.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for name in workloads::NAMES {
        let output = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", name])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: cannot start {name}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let result = lines
            .pop()
            .and_then(|l| serde_json::from_str::<Value>(l).ok());
        for l in lines {
            println!("{l}");
        }
        let Some(result) = result else {
            eprintln!("benchmark: {name} printed no result");
            return ExitCode::FAILURE;
        };
        correct &= output.status.success() && result["correct"].as_bool() == Some(true);
        attempted += result["attempted"].as_u64().unwrap_or(0);
        failed += result["failed"].as_u64().unwrap_or(0);
        if let Some(Value::Object(ms)) = result.get("metrics") {
            metrics.extend(ms.iter().map(|(k, v)| (format!("{name}.{k}"), v.clone())));
        }
    }
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("finite metrics")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        return run_all(&argv);
    };
    let outcome = measure(&name, &args);
    print_outcome(&outcome);
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, &record_line(&outcome, &args)) {
            eprintln!("benchmark: cannot append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.to_json()).expect("finite metrics")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every entry of the `key` list.
    fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec[key]
            .as_array()
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let args = Args {
            workload: Some(workload.into()),
            seed: 7,
            seconds: 0.0,
            trace,
            scale: 0.01,
            out: None,
        };
        measure(workload, &args)
    }

    fn emitted(o: &Outcome) -> Vec<(String, String)> {
        let mut v: Vec<_> = o
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn every_listed_metric_is_emitted_on_every_workload() {
        let spec = spec();
        let workloads: Vec<String> = listed(&spec, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, workloads::NAMES);
        for w in workloads::NAMES {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let o = smoke(w, trace);
                assert!(o.correct(), "{w}: {:?}", o.problems);
                assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{w} {key}");
                let mut want = listed(&spec, key);
                want.sort();
                assert_eq!(emitted(&o), want, "{w} {key}");
            }
        }
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let spec = spec();
        let mut names = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            names.extend(listed(&spec, key).into_iter().map(|m| m.0));
        }
        for n in &names {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n:?}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn smoke_runs_repeat_their_simulated_results_exactly() {
        for w in workloads::NAMES {
            let sim = |o: &Outcome| {
                let values: Vec<(&str, u64)> = o
                    .metrics
                    .iter()
                    .filter(|m| m.name.starts_with("sim_"))
                    .map(|m| (m.name, m.value.to_bits()))
                    .collect();
                let digest = o
                    .notes
                    .iter()
                    .find(|n| n.starts_with("sim.report_digest"))
                    .cloned();
                (values, digest)
            };
            let (a, b) = (smoke(w, false), smoke(w, false));
            assert_eq!(sim(&a), sim(&b), "{w}");
            assert_eq!(sim(&a).0.len(), 3, "{w}");
            assert!(sim(&a).1.is_some(), "{w}");
        }
    }

    #[test]
    fn compare_of_a_run_set_against_itself_finds_nothing_worse() {
        let bounds = compare::bounds(&spec()).expect("bounds listed");
        let mut lines = Vec::new();
        for w in ["hot_read", "tenant_storm"] {
            for seed in [1, 2] {
                let args = Args {
                    workload: Some(w.into()),
                    seed,
                    seconds: 0.0,
                    trace: false,
                    scale: 0.01,
                    out: None,
                };
                lines.push(record_line(&measure(w, &args), &args));
            }
        }
        let set = compare::records(&lines.join("\n")).expect("records parse");
        let rows = compare::compare(&bounds, &set, &set);
        assert_eq!(rows.len(), 2 * bounds.len());
        for r in &rows {
            assert_ne!(r.verdict, "worse", "{r:?}");
            assert_eq!(r.pairs, 2, "{r:?}");
            assert_eq!(r.wins, 0, "ties count for neither side: {r:?}");
        }
    }

    #[test]
    fn command_line_is_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload hot_read --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("hot_read"));
        assert_eq!((a.seed, a.seconds, a.trace, a.scale), (3, 2.0, true, 1.0));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(
            parse_args(&argv("--workload hot_read")).is_err(),
            "seed is required"
        );
        assert!(parse_args(&argv("--seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds -1")).is_err());
        assert_eq!(
            parse_args(&argv("--seed 1 --scale smoke")).unwrap().scale,
            0.01
        );
    }
}
