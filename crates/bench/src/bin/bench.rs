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
//!
//! OPTIONS:
//!   --scale <full|quick>    traffic per run           [default full]
//!   --threads <N>           harness worker threads    [default: RAYON_NUM_THREADS or all cores]
//!   --out <DIR>             artifact directory        [default results]
//! ```
//!
//! Artifacts are byte-deterministic: the same spec and scale produce
//! identical `results/*.json` at any thread count (`tests/golden.rs`
//! pins this down). `--threads` parallelizes *across* sweep points;
//! each simulation runs on one thread. The simulator's own speed is
//! measured by the benchmark in `benchmark/`, not here.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use triplea_bench::experiments;
use triplea_bench::harness::{write_artifacts, Runner, Scale};

struct Opts {
    targets: Vec<String>,
    scale: Scale,
    threads: usize,
    out: PathBuf,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nusage: bench <all|list|NAME...> [--scale full|quick] [--threads N] [--out DIR]");
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
    let start = Instant::now();
    let results = runner.run_suite(&selected, o.scale);
    let secs = start.elapsed().as_secs_f64();
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
        selected.iter().map(|e| e.len()).sum::<usize>(),
        secs,
        runner.thread_count()
    );
}
