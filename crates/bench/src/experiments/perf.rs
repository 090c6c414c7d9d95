//! The `perf` experiment: simulator-throughput baseline for the four
//! representative workload profiles (read-heavy, write-heavy,
//! GC-pressure, fault-injected).
//!
//! Unlike every other experiment this one measures the **simulator**,
//! not the simulated array: events per wall-clock second, wall time per
//! run, and heap allocations per run. Wall-clock is machine-dependent,
//! so `perf` is deliberately *not* registered in [`super::all`] — it
//! would break the byte-identical golden snapshots and the 1-vs-8-thread
//! equality check. It runs through its own `bench perf` subcommand,
//! serially on the main thread so allocation deltas are attributable.
//!
//! The JSON artifact is format-stable (fixed key order, integer
//! fields); the *simulated* fields (`events`, `completed`) are fully
//! deterministic and double as a cheap regression check that a perf PR
//! changed no simulated outcome.
//!
//! Besides the four workload profiles, the suite measures one serial row
//! each for two scale-out topologies (64 and 128 clusters) on the same
//! uniform trace, the per-cluster cost baseline.

use std::time::Instant;

use crate::harness::{arr, obj, text, uint, Scale};
use crate::{bench_builder, bench_config, overload_gap_ns, HOT_REGION_PAGES};
use serde_json::Value;
use triplea_core::{
    Array, ArrayConfig, FaultConfig, FlashFaultProfile, IoOp, ManagementMode, Trace,
    TraceRequest,
};
use triplea_ftl::LogicalPage;
use triplea_sim::{SimTime, SplitMix64};
use triplea_workloads::Microbench;

/// One workload profile of the perf suite.
pub struct PerfProfile {
    /// Profile name (JSON key and table row label).
    pub name: &'static str,
    /// One-line description for the text artifact.
    pub what: &'static str,
    build: Box<dyn Fn(u64, usize) -> (ArrayConfig, Trace)>,
}

/// Measurement of one profile run.
#[derive(Clone, Debug)]
pub struct PerfMeasurement {
    /// Profile name.
    pub name: &'static str,
    /// Host requests replayed.
    pub requests: u64,
    /// Requests completed by the simulated array (deterministic).
    pub completed: u64,
    /// Simulator events processed (deterministic).
    pub events: u64,
    /// Wall-clock nanoseconds for the `Array::run` call.
    pub wall_ns: u64,
    /// `events / wall_ns * 1e9`, rounded down.
    pub events_per_sec: u64,
    /// Heap allocations during the run (0 unless the counting
    /// allocator is installed, as it is in the `bench` binary).
    pub allocations: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Seed shared by every profile, derived like any experiment seed.
fn perf_seed() -> u64 {
    crate::harness::experiment_seed("perf")
}

/// The four profiles, in artifact order.
pub fn profiles(_scale: Scale) -> Vec<PerfProfile> {
    vec![
        PerfProfile {
            name: "read_heavy",
            what: "4 hot clusters at 1.6x bus overload, 100% reads, paper-baseline array",
            build: Box::new(move |seed, n| {
                let cfg = bench_config();
                let trace = Microbench::read()
                    .hot_clusters(4)
                    .requests(n)
                    .gap_ns(overload_gap_ns(&cfg, 4))
                    .build(&cfg, seed);
                (cfg, trace)
            }),
        },
        PerfProfile {
            name: "write_heavy",
            what: "4 hot clusters, 100% writes over the standard hot regions, paper-baseline array",
            build: Box::new(move |seed, n| {
                let cfg = bench_config();
                let trace = Microbench::write()
                    .hot_clusters(4)
                    .region_pages(HOT_REGION_PAGES)
                    .requests(n)
                    .gap_ns(overload_gap_ns(&cfg, 4))
                    .build(&cfg, seed);
                (cfg, trace)
            }),
        },
        PerfProfile {
            name: "gc_pressure",
            what: "small array, tight free pool, sustained overwrites forcing GC cycles",
            build: Box::new(move |seed, n| {
                let mut cfg = ArrayConfig::small_test();
                cfg.shape.flash.blocks_per_plane = 8;
                cfg.gc_threshold_blocks = 2;
                cfg.opportunistic_gc = true;
                let trace = Microbench::write()
                    .hot_clusters(1)
                    .region_pages(128)
                    .requests(n)
                    .gap_ns(1_000)
                    .build(&cfg, seed);
                (cfg, trace)
            }),
        },
        PerfProfile {
            name: "fault_injected",
            what: "moderate NAND fault rates (ECC retries + grown bad blocks), 2 hot read clusters",
            build: Box::new(move |seed, n| {
                let cfg = bench_builder()
                    .faults(FaultConfig {
                        flash: FlashFaultProfile {
                            read_transient_prob: 0.02,
                            prog_fail_prob: 0.001,
                            erase_fail_prob: 0.001,
                        },
                        seed,
                        ..FaultConfig::default()
                    })
                    .build()
                    .expect("perf fault configuration validates");
                let trace = Microbench::read()
                    .hot_clusters(2)
                    .requests(n)
                    .gap_ns(overload_gap_ns(&cfg, 2))
                    .build(&cfg, seed);
                (cfg, trace)
            }),
        },
    ]
}

/// Runs one profile once and measures it. Trace synthesis happens
/// outside the timed region; only `Array::run` is measured.
pub fn run_profile(profile: &PerfProfile, scale: Scale) -> PerfMeasurement {
    let (cfg, trace) = (profile.build)(perf_seed(), scale.requests);
    // Warm the allocator and page cache with an untimed dry run at 1/10
    // scale so first-touch costs do not pollute the first profile.
    let warm = (profile.build)(perf_seed(), (scale.requests / 10).max(1));
    let _ = Array::new(warm.0, ManagementMode::Autonomic).run(&warm.1);

    let before = triplea_alloc_counter::snapshot();
    let start = Instant::now();
    let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let delta = triplea_alloc_counter::snapshot().since(before);

    let events = report.events_processed();
    PerfMeasurement {
        name: profile.name,
        requests: trace.len() as u64,
        completed: report.completed(),
        events,
        wall_ns,
        events_per_sec: if wall_ns == 0 {
            0
        } else {
            ((events as u128) * 1_000_000_000u128 / wall_ns as u128) as u64
        },
        allocations: delta.allocations,
        alloc_bytes: delta.bytes,
    }
}

/// Runs the whole suite serially, in profile order.
pub fn run_suite(scale: Scale) -> Vec<PerfMeasurement> {
    profiles(scale)
        .iter()
        .map(|p| run_profile(p, scale))
        .collect()
}

// ---------------------------------------------------------------------
// Scale-out topologies: one serial run per cluster count.
// ---------------------------------------------------------------------

/// One scale-out topology of the perf suite.
pub struct ScalingTopology {
    /// Row label (`64c` / `128c`).
    pub name: &'static str,
    /// PCI-E switches.
    pub switches: u32,
    /// Clusters behind each switch.
    pub clusters_per_switch: u32,
}

/// The measured topologies: a 64-cluster array as 8 switches of 8, and
/// a 128-cluster array as 16 of 8 — wider than the 4×16 paper
/// baseline, so per-cluster costs show up in the per-event time.
pub fn scaling_topologies() -> Vec<ScalingTopology> {
    vec![
        ScalingTopology {
            name: "64c",
            switches: 8,
            clusters_per_switch: 8,
        },
        ScalingTopology {
            name: "128c",
            switches: 16,
            clusters_per_switch: 8,
        },
    ]
}

/// One topology's serial run.
#[derive(Clone, Debug)]
pub struct ScalingMeasurement {
    /// Topology label.
    pub topology: &'static str,
    /// Total clusters.
    pub clusters: u64,
    /// Host requests replayed.
    pub requests: u64,
    /// Completed requests (deterministic).
    pub completed: u64,
    /// Simulator events (deterministic).
    pub events: u64,
    /// Wall-clock nanoseconds for the run (machine-dependent).
    pub wall_ns: u64,
    /// `events / wall_ns * 1e9`, rounded down.
    pub events_per_sec: u64,
}

/// Builds a topology on the otherwise-untouched baseline timing.
fn scaling_config(t: &ScalingTopology) -> ArrayConfig {
    bench_builder()
        .topology(t.switches, t.clusters_per_switch)
        .build()
        .expect("scaling topology validates")
}

/// Uniform 4:1 read:write traffic over the whole address space, so
/// every cluster carries an even share.
fn scaling_trace(cfg: &ArrayConfig, requests: usize, seed: u64) -> Trace {
    let total = cfg.shape.total_pages();
    let mut rng = SplitMix64::new(seed ^ 0x5CA1E);
    (0..requests)
        .map(|i| {
            let op = if rng.next_below(5) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let pages = 1u32 << rng.next_below(3);
            let lpn = rng.next_below(total - pages as u64);
            TraceRequest::new(
                SimTime::from_nanos(i as u64 * 120),
                op,
                LogicalPage(lpn),
                pages,
            )
        })
        .collect()
}

/// Runs each topology once on its uniform trace, after an untimed warm
/// run at 1/10 scale as for the profile suite.
pub fn run_scaling(scale: Scale) -> Vec<ScalingMeasurement> {
    scaling_topologies()
        .iter()
        .map(|t| {
            let cfg = scaling_config(t);
            let trace = scaling_trace(&cfg, scale.requests, perf_seed());
            let warm = scaling_trace(&cfg, (scale.requests / 10).max(1), perf_seed());
            let _ = Array::new(cfg.clone(), ManagementMode::Autonomic).run(&warm);

            let start = Instant::now();
            let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
            let wall_ns = start.elapsed().as_nanos().max(1) as u64;
            let events = report.events_processed();
            ScalingMeasurement {
                topology: t.name,
                clusters: (t.switches * t.clusters_per_switch) as u64,
                requests: trace.len() as u64,
                completed: report.completed(),
                events,
                wall_ns,
                events_per_sec: ((events as u128) * 1_000_000_000u128 / wall_ns as u128) as u64,
            }
        })
        .collect()
}

/// Renders the measurements as the `results/perf.json` value: fixed key
/// order, integers only, one object per profile / scaling point.
pub fn to_json(scale: Scale, runs: &[PerfMeasurement], scaling: &[ScalingMeasurement]) -> Value {
    obj([
        ("experiment", text("perf")),
        ("requests_per_profile", uint(scale.requests as u64)),
        (
            "profiles",
            arr(runs
                .iter()
                .map(|m| {
                    obj([
                        ("name", text(m.name)),
                        ("requests", uint(m.requests)),
                        ("completed", uint(m.completed)),
                        ("events", uint(m.events)),
                        ("wall_ns", uint(m.wall_ns)),
                        ("events_per_sec", uint(m.events_per_sec)),
                        ("allocations", uint(m.allocations)),
                        ("alloc_bytes", uint(m.alloc_bytes)),
                    ])
                })
                .collect()),
        ),
        (
            "scaling",
            arr(scaling
                .iter()
                .map(|m| {
                    obj([
                        ("topology", text(m.topology)),
                        ("clusters", uint(m.clusters)),
                        ("requests", uint(m.requests)),
                        ("completed", uint(m.completed)),
                        ("events", uint(m.events)),
                        ("wall_ns", uint(m.wall_ns)),
                        ("events_per_sec", uint(m.events_per_sec)),
                    ])
                })
                .collect()),
        ),
    ])
}

/// Renders the human-readable `results/perf.txt` companion.
pub fn render_text(scale: Scale, runs: &[PerfMeasurement], scaling: &[ScalingMeasurement]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.requests.to_string(),
                m.events.to_string(),
                format!("{:.1}", m.wall_ns as f64 / 1e6),
                format!("{:.2}", m.events_per_sec as f64 / 1e6),
                m.allocations.to_string(),
            ]
        })
        .collect();
    let mut out = crate::harness::fmt_table(
        &format!(
            "Simulator throughput, {} requests per profile (single thread)",
            scale.requests
        ),
        &[
            "Profile",
            "Requests",
            "Events",
            "Wall ms",
            "M events/s",
            "Allocations",
        ],
        &rows,
    );
    out.push('\n');
    for p in profiles(scale) {
        out.push_str(&format!("{:<15} {}\n", p.name, p.what));
    }
    let srows: Vec<Vec<String>> = scaling
        .iter()
        .map(|m| {
            vec![
                m.topology.to_string(),
                m.clusters.to_string(),
                m.events.to_string(),
                format!("{:.1}", m.wall_ns as f64 / 1e6),
                format!("{:.2}", m.events_per_sec as f64 / 1e6),
            ]
        })
        .collect();
    out.push_str(&crate::harness::fmt_table(
        &format!(
            "Scale-out topologies, {} uniform requests per run (single thread)",
            scale.requests
        ),
        &["Topology", "Clusters", "Events", "Wall ms", "M events/s"],
        &srows,
    ));
    out.push_str(
        "\nwall_ns/events_per_sec are machine-dependent; events/completed\n\
         are deterministic and must not change across perf-only PRs.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serializes_at_tiny_scale() {
        let scale = Scale { requests: 200 };
        let runs = run_suite(scale);
        assert_eq!(runs.len(), 4);
        for m in &runs {
            assert_eq!(m.requests, 200, "{}", m.name);
            assert!(m.completed > 0, "{} completed nothing", m.name);
            assert!(m.events >= m.completed, "{} too few events", m.name);
            assert!(m.events_per_sec > 0, "{} zero throughput", m.name);
        }
        let scaling = run_scaling(scale);
        let json = serde_json::to_string_pretty(&to_json(scale, &runs, &scaling)).unwrap();
        assert!(json.contains("\"read_heavy\""));
        assert!(json.contains("\"gc_pressure\""));
        assert!(json.contains("\"64c\""));
        assert!(json.contains("\"128c\""));
        let txt = render_text(scale, &runs, &scaling);
        assert!(txt.contains("fault_injected"));
        assert!(txt.contains("Scale-out topologies"));
    }

    #[test]
    fn scaling_rows_complete_real_traffic() {
        let scaling = run_scaling(Scale { requests: 150 });
        assert_eq!(scaling.len(), scaling_topologies().len());
        for m in &scaling {
            assert_eq!(m.requests, 150, "{}", m.topology);
            assert_eq!(m.completed, 150, "{}", m.topology);
            assert!(m.events > m.completed, "{}", m.topology);
        }
    }

    #[test]
    fn simulated_outcome_is_deterministic() {
        let scale = Scale { requests: 200 };
        let a = run_suite(scale);
        let b = run_suite(scale);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "{} events drifted", x.name);
            assert_eq!(x.completed, y.completed, "{} completions drifted", x.name);
        }
    }

    #[test]
    fn gc_profile_actually_collects() {
        // The tight free pool needs ~16k overwrites before a FIMM drops
        // below the GC threshold; smaller runs never collect (verified
        // against the pre-overhaul engine, which behaves identically).
        let scale = Scale { requests: 16_000 };
        let p = profiles(scale);
        let gc = p.iter().find(|p| p.name == "gc_pressure").unwrap();
        let (cfg, trace) = (gc.build)(perf_seed(), scale.requests);
        let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
        assert!(
            report.ftl_stats().gc_erases > 0,
            "gc_pressure profile never triggered GC: {:?}",
            report.ftl_stats()
        );
    }
}
