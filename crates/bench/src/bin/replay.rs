//! Replay harness: run any trace — a CSV file or a named Table-1
//! workload — through the array under either (or both) management modes.
//!
//! ```text
//! replay [OPTIONS]
//!   --csv <FILE>              replay a CSV trace (time_ns,op,lpn,pages)
//!   --workload <NAME>         synthesize a Table-1 workload (default g-eigen)
//!   --requests <N>            synthetic request count   [default 100000]
//!   --gap-ns <NS>             synthetic inter-arrival   [default profile-tuned]
//!   --mode <both|aaa|base>    which arrays to run       [default both]
//!   --clusters-per-switch <N> network width             [default 16]
//!   --mlc                     consumer-MLC flash timing (default SLC)
//!   --seed <N>                generator seed            [default 1]
//!   --save-csv <FILE>         write the (synthetic) trace out as CSV
//! ```
//!
//! Example:
//!
//! ```text
//! cargo run --release -p triplea-bench --bin replay -- --workload prxy --mode both
//! ```

use std::fs::File;
use std::process::exit;
use std::sync::Arc;

use triplea_bench::harness::{jf, ju, report_json, Experiment, Runner, Scale};
use triplea_bench::{enterprise_trace, f1, profile_gap_ns, HOT_REGION_PAGES};
use triplea_core::{Array, ArrayConfig, ManagementMode, Trace};
use triplea_flash::FlashTiming;
use triplea_workloads::{csv, ProfileTrace, WorkloadProfile};

struct Opts {
    csv: Option<String>,
    workload: String,
    requests: usize,
    gap_ns: Option<u64>,
    mode: String,
    cps: u32,
    mlc: bool,
    seed: u64,
    save_csv: Option<String>,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nsee `--help` in the module docs of replay.rs");
    exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        csv: None,
        workload: "g-eigen".to_string(),
        requests: 100_000,
        gap_ns: None,
        mode: "both".to_string(),
        cps: 16,
        mlc: false,
        seed: 1,
        save_csv: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| usage_and_exit("missing value for flag"))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => o.csv = Some(value(&mut i)),
            "--workload" => o.workload = value(&mut i),
            "--requests" => {
                o.requests = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad --requests"))
            }
            "--gap-ns" => {
                o.gap_ns = Some(
                    value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --gap-ns")),
                )
            }
            "--mode" => o.mode = value(&mut i),
            "--clusters-per-switch" => {
                o.cps = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad --clusters-per-switch"))
            }
            "--mlc" => o.mlc = true,
            "--seed" => {
                o.seed = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad --seed"))
            }
            "--save-csv" => o.save_csv = Some(value(&mut i)),
            other => usage_and_exit(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    o
}

fn main() {
    let o = parse_opts();
    let cfg = ArrayConfig::builder()
        .clusters_per_switch(o.cps)
        .tune(|c| {
            if o.mlc {
                c.flash_timing = FlashTiming::mlc();
            }
        })
        .build()
        .unwrap_or_else(|e| usage_and_exit(&format!("invalid configuration: {e}")));

    let trace: Trace = if let Some(path) = &o.csv {
        let file = File::open(path)
            .unwrap_or_else(|e| usage_and_exit(&format!("cannot open {path}: {e}")));
        csv::parse_trace_bounded(file, cfg.shape.total_pages())
            .unwrap_or_else(|e| usage_and_exit(&e.to_string()))
    } else {
        let profile = WorkloadProfile::by_name(&o.workload).unwrap_or_else(|| {
            usage_and_exit(&format!(
                "unknown workload {:?}; known: {}",
                o.workload,
                WorkloadProfile::table1()
                    .iter()
                    .map(|p| p.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        });
        match o.gap_ns {
            Some(gap) => ProfileTrace::new(profile)
                .requests(o.requests)
                .gap_ns(gap)
                .hot_region_pages(HOT_REGION_PAGES)
                .build(&cfg, o.seed),
            None if o.requests == 100_000 => enterprise_trace(&profile, &cfg, o.seed),
            None => ProfileTrace::new(profile)
                .requests(o.requests)
                .gap_ns(profile_gap_ns(&profile, &cfg))
                .hot_region_pages(HOT_REGION_PAGES)
                .build(&cfg, o.seed),
        }
    };

    if let Some(path) = &o.save_csv {
        let file = File::create(path)
            .unwrap_or_else(|e| usage_and_exit(&format!("cannot create {path}: {e}")));
        csv::write_trace(file, &trace).unwrap_or_else(|e| usage_and_exit(&e.to_string()));
        println!("wrote {} records to {path}", trace.len());
    }

    // The two management modes are independent runs: drive them through
    // the experiment harness so they execute in parallel.
    let modes: Vec<(&str, ManagementMode)> = match o.mode.as_str() {
        "both" => vec![
            ("non-autonomic", ManagementMode::NonAutonomic),
            ("triple-a", ManagementMode::Autonomic),
        ],
        "base" => vec![("non-autonomic", ManagementMode::NonAutonomic)],
        "aaa" => vec![("triple-a", ManagementMode::Autonomic)],
        _ => usage_and_exit("--mode must be both, aaa, or base"),
    };
    let title = format!(
        "replay: {} ({} requests, 4x{} array)",
        o.csv.as_deref().unwrap_or(&o.workload),
        trace.len(),
        o.cps
    );
    let title: &'static str = Box::leak(title.into_boxed_str());
    let trace = Arc::new(trace);
    let mut exp = Experiment::new("replay", title);
    for (label, mode) in modes {
        let trace = Arc::clone(&trace);
        let cfg = cfg.clone();
        exp.point(label, move |_| {
            report_json(&Array::new(cfg.clone(), mode).run(&trace))
        });
    }
    exp.renderer(|res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    ju(d, "completed").to_string(),
                    format!("{:.0}", jf(d, "iops")),
                    f1(jf(d, "mean_latency_us")),
                    f1(jf(d, "p99_us")),
                    f1(jf(d, "link_contention_us")),
                    f1(jf(d, "storage_contention_us")),
                    ju(d, "autonomic.migrations_started").to_string(),
                ]
            })
            .collect();
        triplea_bench::harness::fmt_table(
            &res.title,
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
    let result = Runner::new().run(&exp, Scale::full());
    print!("{}", exp.render(&result));
}
