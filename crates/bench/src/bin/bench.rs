//! The suite driver: runs experiment specs through the parallel
//! `Runner` and persists their
//! artifacts (`results/<name>.json` + `results/<name>.txt`).
//!
//! ```text
//! bench all [OPTIONS]          run every experiment
//! bench <name>... [OPTIONS]    run a subset (see `bench list`)
//! bench list                   print registered experiment names
//! bench scenario list          print the scenario catalog
//! bench scenario <name|all>    run catalog scenarios only [OPTIONS]
//! bench perf [OPTIONS]         simulator-throughput suite (events/sec,
//!                              wall-clock, allocations; single thread)
//!
//! OPTIONS:
//!   --scale <full|quick>    traffic per run           [default full]
//!   --threads <N>           harness worker threads    [default: RAYON_NUM_THREADS or all cores]
//!   --out <DIR>             artifact directory        [default results]
//!   --compare-serial        after the parallel run, rerun on 1 thread
//!                           and report the wall-clock ratio
//! ```
//!
//! Artifacts are byte-deterministic: the same spec and scale produce
//! identical `results/*.json` at any thread count (`tests/golden.rs`
//! pins this down). `--threads` parallelizes *across* sweep points;
//! each simulation runs on one thread.

use std::path::PathBuf;
use std::process::exit;

use triplea_bench::experiments;
use triplea_bench::harness::{run_suite_timed, write_artifacts, Runner, Scale};

/// Counting allocator so `bench perf` can report heap traffic per
/// profile; two relaxed increments per allocation, negligible for the
/// regular experiment suite.
#[global_allocator]
static ALLOC: triplea_alloc_counter::CountingAllocator =
    triplea_alloc_counter::CountingAllocator;

struct Opts {
    targets: Vec<String>,
    scale: Scale,
    threads: usize,
    out: PathBuf,
    compare_serial: bool,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nusage: bench <all|list|NAME...> [--scale full|quick] [--threads N] [--out DIR] [--compare-serial]");
    exit(2)
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit("missing subcommand");
    }
    let mut o = Opts {
        targets: Vec::new(),
        scale: Scale::full(),
        threads: 0,
        out: PathBuf::from("results"),
        compare_serial: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| usage_and_exit("missing value for flag"))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value(&mut i);
                o.scale = Scale::by_name(&v)
                    .unwrap_or_else(|| usage_and_exit("--scale must be full or quick"));
            }
            "--threads" => {
                o.threads = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad --threads"));
            }
            "--out" => o.out = PathBuf::from(value(&mut i)),
            "--compare-serial" => o.compare_serial = true,
            flag if flag.starts_with('-') => usage_and_exit(&format!("unknown flag {flag}")),
            name => o.targets.push(name.to_string()),
        }
        i += 1;
    }
    if o.targets.is_empty() {
        usage_and_exit("missing subcommand");
    }
    o
}

/// The `perf` subcommand: runs the four profiles serially on the main
/// thread (so wall-clock and allocation deltas are attributable), then
/// the 64- and 128-cluster topology rows, and writes
/// `results/perf.json` and `results/perf.txt`.
fn run_perf(o: &Opts) {
    use triplea_bench::experiments::perf;

    let runs = perf::run_suite(o.scale);
    let scaling = perf::run_scaling(o.scale);
    let json = serde_json::to_string_pretty(&perf::to_json(o.scale, &runs, &scaling))
        .expect("perf report serializes");
    let txt = perf::render_text(o.scale, &runs, &scaling);
    std::fs::create_dir_all(&o.out)
        .unwrap_or_else(|e| usage_and_exit(&format!("cannot create {}: {e}", o.out.display())));
    let json_path = o.out.join("perf.json");
    let txt_path = o.out.join("perf.txt");
    std::fs::write(&json_path, json.as_bytes())
        .and_then(|()| std::fs::write(&txt_path, txt.as_bytes()))
        .unwrap_or_else(|e| usage_and_exit(&format!("cannot write artifacts: {e}")));
    print!("{txt}");
    println!(
        "perf         {:>3} profiles -> {} + {}",
        runs.len(),
        json_path.display(),
        txt_path.display()
    );
}

fn main() {
    let mut o = parse_opts();
    // `bench scenario ...` scopes the run to the catalog: `list` prints
    // it, `all` (or no further name) selects every scenario, and bare
    // names are resolved with the `scenario_` prefix implied.
    if o.targets.first().map(String::as_str) == Some("scenario") {
        o.targets.remove(0);
        let names = experiments::scenario::NAMES;
        if o.targets == ["list"] {
            for exp in experiments::scenario::catalog(Scale::quick()) {
                println!("{:<28} {} ({} points)", exp.name, exp.title, exp.len());
            }
            return;
        }
        if o.targets.is_empty() || o.targets == ["all"] {
            o.targets = names.iter().map(|n| n.to_string()).collect();
        } else {
            o.targets = o
                .targets
                .iter()
                .map(|t| {
                    let full = format!("scenario_{t}");
                    if names.contains(&t.as_str()) {
                        t.clone()
                    } else if names.contains(&full.as_str()) {
                        full
                    } else {
                        usage_and_exit(&format!(
                            "unknown scenario {t:?}; run `bench scenario list`"
                        ))
                    }
                })
                .collect();
        }
    }
    if o.targets == ["list"] {
        for exp in experiments::all(Scale::quick()) {
            println!("{:<12} {} ({} points)", exp.name, exp.title, exp.len());
        }
        println!("{:<12} simulator-throughput suite (own subcommand)", "perf");
        return;
    }
    if o.targets == ["perf"] {
        run_perf(&o);
        return;
    }

    let suite = experiments::all(o.scale);
    let selected: Vec<&_> = if o.targets == ["all"] {
        suite.iter().collect()
    } else {
        // Preserve registry order (which golden snapshots and `all` use)
        // regardless of the order names were given on the command line.
        for name in &o.targets {
            if !suite.iter().any(|e| e.name == name) {
                usage_and_exit(&format!("unknown experiment {name:?}; run `bench list`"));
            }
        }
        suite
            .iter()
            .filter(|e| o.targets.iter().any(|n| n == e.name))
            .collect()
    };

    let runner = Runner::new().threads(o.threads);
    let (results, timing) = run_suite_timed(&runner, &selected, o.scale);
    for (exp, result) in selected.iter().zip(&results) {
        let paths = write_artifacts(exp, result, &o.out)
            .unwrap_or_else(|e| usage_and_exit(&format!("cannot write artifacts: {e}")));
        let shown: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
        println!(
            "{:<12} {:>3} points -> {}",
            exp.name,
            exp.len(),
            shown.join(" + ")
        );
    }
    println!(
        "\n{} experiments / {} points in {:.1}s on {} thread(s)",
        results.len(),
        timing.points,
        timing.secs,
        timing.threads
    );

    if o.compare_serial {
        let serial = Runner::new().threads(1);
        let (serial_results, serial_timing) = run_suite_timed(&serial, &selected, o.scale);
        assert_eq!(
            serial_results, results,
            "serial and parallel runs must produce identical results"
        );
        println!(
            "serial rerun: {:.1}s on 1 thread -> speedup {:.2}x (results byte-identical)",
            serial_timing.secs,
            serial_timing.secs / timing.secs.max(1e-9)
        );
    }
}
