//! `bench replay <FILE>`: the file path runs the same code as the
//! in-memory path the `scenario_trace_replay` golden pins, and bad
//! input comes back as a typed error naming its line.

use std::path::PathBuf;

use triplea_bench::experiments::replay;
use triplea_bench::harness::{ju, obj, uint, Runner};
use triplea_bench::{bench_config, enterprise_trace_n};
use triplea_workloads::msr::{parse_msr, to_msr_csv};
use triplea_workloads::{CsvError, WorkloadProfile};

/// Writes `text` to a file of its own under the test target's scratch
/// directory and returns its path.
fn trace_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("replay-{name}.csv"));
    std::fs::write(&path, text).expect("scratch file writes");
    path
}

fn run(name: &str, text: &str) -> Result<serde_json::Value, CsvError> {
    let (_, result) = replay::run(&trace_file(name, text), &Runner::new().threads(1))?;
    Ok(result.data("replay").clone())
}

#[test]
fn a_trace_file_replays_like_its_records_in_memory() {
    let cfg = bench_config();
    let profile = WorkloadProfile::by_name("prxy").expect("Table-1 profile");
    let synth = enterprise_trace_n(&profile, &cfg, 7, 400);
    let csv = to_msr_csv(&synth, "synth", cfg.shape.flash.page_size as u64);

    let path = trace_file("synth", &csv);
    let (exp, result) = replay::run(&path, &Runner::new().threads(2)).expect("trace replays");

    let records = parse_msr(csv.as_bytes()).expect("trace parses");
    let (base, aaa) = replay::pair(&records, None);
    let expected = obj([("records", uint(400)), ("base", base), ("aaa", aaa)]);
    assert_eq!(result.data("replay"), &expected);
    assert_eq!(result.requests, 400, "the scale is the file's length");

    let table = exp.render(&result);
    let rows: Vec<&str> = table
        .lines()
        .filter(|l| l.starts_with("| non-autonomic |") || l.starts_with("| triple-a |"))
        .collect();
    assert_eq!(rows.len(), 2, "{table}");
    assert!(rows.iter().all(|r| r.contains("| 400 |")), "{table}");
}

#[test]
fn malformed_records_are_typed_errors_naming_their_line() {
    let header = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n";
    let good = "128166372003061629,hm,0,Read,383496192,32768,413\n";

    let unknown_op = format!("{header}{good}128166372003564792,hm,0,Trim,0,4096,0\n");
    match run("unknown-op", &unknown_op) {
        Err(e @ CsvError::Parse { line: 3, .. }) => {
            assert!(e.to_string().contains("line 3"), "{e}")
        }
        other => panic!("expected a parse error on line 3, got {other:?}"),
    }

    let truncated = format!("{header}{good}{good}128166372003564792,hm,0,Read,0\n");
    match run("truncated", &truncated) {
        Err(
            e @ CsvError::Truncated {
                line: 4,
                expected: 7,
                got: 5,
            },
        ) => assert!(e.to_string().contains("line 4"), "{e}"),
        other => panic!("expected a truncated record on line 4, got {other:?}"),
    }

    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay-no-such-file.csv");
    assert!(matches!(
        replay::run(&missing, &Runner::new().threads(1)),
        Err(CsvError::Io(_))
    ));
}

#[test]
fn an_offset_past_the_array_maps_in_range_and_runs() {
    let cfg = bench_config();
    let bytes = cfg.shape.total_pages() * cfg.shape.flash.page_size as u64;
    let text = format!(
        "0,hm,0,Read,{},8192,0\n100,hm,3,Write,{},4096,0\n",
        3 * bytes + 12_288,
        bytes - 4_096
    );
    let records = parse_msr(text.as_bytes()).expect("offsets past the array still parse");
    let trace = triplea_workloads::TraceMapper::new(&cfg).map(&records);
    for r in trace.requests() {
        assert!(r.lpn.0 + r.pages as u64 <= cfg.shape.total_pages());
    }

    let data = run("past-the-end", &text).expect("trace replays");
    for mode in ["base", "aaa"] {
        assert_eq!(
            ju(&data, &format!("{mode}.completed")),
            2,
            "{mode}: {data:?}"
        );
    }
}
