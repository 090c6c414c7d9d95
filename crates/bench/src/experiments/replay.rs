//! `bench replay <FILE>`: an MSR-Cambridge / SNIA block trace (the
//! schema of the captures the paper replays, §5.2), mapped onto the
//! bench array at its natural timing and run under both management
//! modes.
//!
//! The input is a file, so `replay` is not part of
//! [`all`](super::all) and no golden pins it. `scenario_trace_replay`
//! runs the same [`pair`] on synthetic records, and its golden pins
//! that path.

use std::fs::File;
use std::path::Path;

use serde_json::Value;
use triplea_workloads::msr::parse_msr;
use triplea_workloads::{CsvError, MsrRecord, TraceMapper};

use crate::harness::{fmt_table, jf, ju, obj, uint, Experiment, ExperimentResult, Runner, Scale};
use crate::{bench_config, f1};

/// Maps `records` onto the bench array and runs them under both
/// management modes, returning the `("base", "aaa")` summaries.
/// `span_ns` rescales the trace's first-to-last span to that many
/// simulated nanoseconds; `None` keeps the natural timing (one
/// filetime tick is 100 ns). The mapper folds every offset into the
/// array's address space, so any parsed record runs.
pub fn pair(records: &[MsrRecord], span_ns: Option<u64>) -> (Value, Value) {
    let cfg = bench_config();
    let mut mapper = TraceMapper::new(&cfg);
    if let Some(ns) = span_ns {
        mapper = mapper.target_span_ns(ns);
    }
    let trace = mapper.map(records);
    super::pair_json(cfg, &trace)
}

/// Parses the trace at `path` and runs it through `runner` as the
/// one-point `replay` experiment, at a scale of one request per
/// record. Returns the spec (for its renderer) and the result.
///
/// # Errors
///
/// [`CsvError::Io`] when the file cannot be opened or read, and every
/// error [`parse_msr`] returns for a malformed record, with its line
/// number. Nothing runs unless the whole file parses.
pub fn run(path: &Path, runner: &Runner) -> Result<(Experiment, ExperimentResult), CsvError> {
    let records = parse_msr(File::open(path)?)?;
    let scale = Scale {
        requests: records.len(),
    };
    let mut e = Experiment::new("replay", "Replay: MSR block trace on the 4x16 bench array");
    e.point("replay", move |_| {
        let (base, aaa) = pair(&records, None);
        obj([
            ("records", uint(records.len() as u64)),
            ("base", base),
            ("aaa", aaa),
        ])
    });
    let source = path.display().to_string();
    e.renderer(move |res| {
        let d = res.data("replay");
        let rows: Vec<Vec<String>> = [("non-autonomic", "base"), ("triple-a", "aaa")]
            .into_iter()
            .map(|(label, mode)| {
                let at = |field: &str| format!("{mode}.{field}");
                vec![
                    label.to_string(),
                    ju(d, &at("completed")).to_string(),
                    format!("{:.0}", jf(d, &at("iops"))),
                    f1(jf(d, &at("mean_latency_us"))),
                    f1(jf(d, &at("p99_us"))),
                    f1(jf(d, &at("link_contention_us"))),
                    f1(jf(d, &at("storage_contention_us"))),
                    ju(d, &at("autonomic.migrations_started")).to_string(),
                ]
            })
            .collect();
        fmt_table(
            &format!("{}: {source} ({} records)", res.title, ju(d, "records")),
            &[
                "Mode",
                "Completed",
                "IOPS",
                "Mean (us)",
                "p99 (us)",
                "Link-cont. (us)",
                "Storage-cont. (us)",
                "Migrations",
            ],
            &rows,
        )
    });
    let result = runner.run(&e, scale);
    Ok((e, result))
}
