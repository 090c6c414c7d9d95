//! `benchmark compare`: a parent and a change result set side by side,
//! one row per workload × end-to-end metric, with a verdict against the
//! metric's bound from `BENCHMARK.json`.
//!
//! A result set is the JSON-lines file `--out` appends to. Runs are
//! paired by seed, in file order within a seed.

use std::process::ExitCode;

use serde_json::Value;

use crate::stats::quartiles;

/// One end-to-end metric's direction and regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// One measured run of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|&(_, v)| v)
    }
}

/// One compared workload × metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// First quartile, median, third quartile.
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Pairs the change won, and pairs made.
    pub wins: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

/// The end-to-end bounds listed in a `BENCHMARK.json` document.
pub fn bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    let list = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m["better"].as_str() == Some("lower"),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Parses a result set: one JSON object per non-empty line.
pub fn records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            let v: Value = serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1))?;
            let Some(Value::Object(ms)) = v.get("metrics") else {
                return Err(format!("line {}: no metrics object", i + 1));
            };
            Ok(Record {
                workload: v["workload"].as_str().unwrap_or_default().to_string(),
                seed: v["seed"].as_u64().unwrap_or(0),
                trace: v["trace"].as_u64() == Some(1),
                metrics: ms
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

/// Compares every workload of `parent` on every bounded metric.
pub fn compare(bounds: &[Bound], parent: &[Record], change: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().filter(|r| !r.trace) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let runs = |set: &[Record], metric: &str| -> Vec<(u64, f64)> {
            set.iter()
                .filter(|r| !r.trace && r.workload == w)
                .filter_map(|r| Some((r.seed, r.value(metric)?)))
                .collect()
        };
        for b in bounds {
            let p = runs(parent, &b.name);
            let c = runs(change, &b.name);
            if p.is_empty() || c.is_empty() {
                continue;
            }
            rows.push(row(w, b, &p, &c));
        }
    }
    rows
}

fn row(workload: &str, b: &Bound, p: &[(u64, f64)], c: &[(u64, f64)]) -> Row {
    // `better(x, y)`: x reads strictly better than y.
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let (mut wins, mut pairs) = (0, 0);
    let mut seeds: Vec<u64> = Vec::new();
    for &(s, _) in p {
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    for seed in seeds {
        let ps = p.iter().filter(|&&(s, _)| s == seed);
        let cs = c.iter().filter(|&&(s, _)| s == seed);
        for (&(_, pv), &(_, cv)) in ps.zip(cs) {
            pairs += 1;
            wins += usize::from(better(cv, pv));
        }
    }
    let pv: Vec<f64> = p.iter().map(|&(_, v)| v).collect();
    let cv: Vec<f64> = c.iter().map(|&(_, v)| v).collect();
    let parent = quartiles(&pv);
    let change = quartiles(&cv);
    let iqr = parent.2 - parent.0;
    let relative = |d: f64| {
        if parent.1 == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            d / parent.1.abs()
        }
    };
    let worse_by = relative(if b.lower_is_better {
        change.1 - parent.1
    } else {
        parent.1 - change.1
    });
    let every_run_better = cv.iter().all(|&x| pv.iter().all(|&y| better(x, y)));
    let verdict = if relative(iqr) > b.bound {
        if every_run_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > b.bound {
        "worse"
    } else if worse_by < 0.0
        && wins * 10 >= pairs * 9
        && pairs > 0
        && (change.1 - parent.1).abs() > iqr
    {
        "better"
    } else {
        "same"
    };
    Row {
        workload: workload.to_string(),
        metric: b.name.clone(),
        parent,
        change,
        wins,
        pairs,
        verdict,
    }
}

pub fn main(argv: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bench-json" {
            match it.next() {
                Some(p) => spec_path = p.clone(),
                None => return usage("--bench-json needs a value"),
            }
        } else {
            files.push(a.clone());
        }
    }
    let [parent, change] = files.as_slice() else {
        return usage("compare takes a parent and a change result set");
    };
    let load = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let result = (|| {
        let spec: Value =
            serde_json::from_str(&load(&spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
        let bounds = bounds(&spec)?;
        let parent = records(&load(parent)?).map_err(|e| format!("{parent}: {e}"))?;
        let change = records(&load(change)?).map_err(|e| format!("{change}: {e}"))?;
        Ok::<_, String>((compare(&bounds, &parent, &change), bounds))
    })();
    let (rows, bounds) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<16} {:>30} {:>30} {:>6} {:>6} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "bound"
    );
    for r in &rows {
        let bound = bounds
            .iter()
            .find(|b| b.name == r.metric)
            .map_or(0.0, |b| b.bound);
        println!(
            "{:<13} {:<16} {:>30} {:>30} {:>6} {:>6} {}",
            r.workload,
            r.metric,
            format!("{:.4} [{:.4}, {:.4}]", r.parent.1, r.parent.0, r.parent.2),
            format!("{:.4} [{:.4}, {:.4}]", r.change.1, r.change.0, r.change.2),
            format!("{}/{}", r.wins, r.pairs),
            bound,
            r.verdict
        );
    }
    if rows.iter().any(|r| r.verdict == "worse") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("benchmark compare: {msg}");
    eprintln!("usage: benchmark compare <parent.jsonl> <change.jsonl> [--bench-json <file>]");
    ExitCode::from(2)
}
