//! The four benchmark workloads. Each is an array configuration plus a
//! trace generated from the seed; the simulator only ever receives the
//! generated [`Trace`].
//!
//! Every gap and geometry is stated literally here rather than derived
//! from the experiment harness, so the workloads stay fixed while the
//! harness changes.

use std::time::{Duration, Instant};

use triplea_core::{
    FaultConfig, FimmFaultEvent, FimmFaultKind, FlashFaultProfile, IoOp, LogicalPage,
    ManagementMode, PowerLossEvent, Simulation, TenantId, TenantSpec, Trace, TraceRequest,
};
use triplea_sim::trace::TraceConfig;
use triplea_sim::{SimTime, SplitMix64};
use triplea_workloads::{Microbench, ProfileTrace, ScenarioTrace, WorkloadProfile};

/// The workloads, in the order the benchmark runs them.
pub const NAMES: [&str; 4] = ["hot_read", "mixed_gc", "wide_uniform", "tenant_storm"];

/// Hot-region size per hot cluster, in pages (≈25-fold reuse at 100 k
/// requests, so autonomic migration pays off within one run).
const HOT_REGION_PAGES: u64 = 1_024;

/// `tenant_storm`: tenants in the table, the first fifth interactive.
const TENANTS: usize = 100;
const INTERACTIVE: usize = TENANTS / 5;

/// Requests of one full-scale run of `name`.
pub fn base_requests(name: &str) -> usize {
    match name {
        // Superlinear in length (journal checkpoints clone the map), and
        // its median was unstable at 100 k.
        "tenant_storm" => 50_000,
        _ => 100_000,
    }
}

/// A workload ready to run: the validated simulation and its trace,
/// with the host time each took to make.
pub struct Prepared {
    pub sim: Simulation,
    pub trace: Trace,
    pub gen: Duration,
    pub build: Duration,
}

impl Prepared {
    /// Trace synthesis plus `SimulationBuilder::build`: the set-up a
    /// user pays before the first simulated event.
    pub fn setup(&self) -> Duration {
        self.gen + self.build
    }
}

/// Builds workload `name` (one of [`NAMES`]; the command line checks)
/// for `seed` with `requests` requests, with an event recorder attached
/// when `recorder` is set.
pub fn prepare(name: &str, seed: u64, requests: usize, recorder: bool) -> Prepared {
    let builder = Simulation::builder()
        .mode(ManagementMode::Autonomic)
        // The per-request latency series gives exact order statistics
        // for the end-to-end latency metrics.
        .configure(|c| c.collect_series(true));
    let builder = if recorder {
        builder.with_recorder(TraceConfig::all().with_capacity(usize::MAX))
    } else {
        builder
    };
    let build_sim = |b: triplea_core::SimulationBuilder| {
        let t0 = Instant::now();
        let sim = b.build().expect("benchmark configurations validate");
        (sim, t0.elapsed())
    };
    let (sim, build, trace, gen) = match name {
        "hot_read" => {
            let (sim, build) = build_sim(builder);
            let t0 = Instant::now();
            // 415 ns: 1.6x the ONFi-bus capacity of each of the 4 hot
            // clusters on the paper baseline.
            let trace = Microbench::read()
                .hot_clusters(4)
                .region_pages(HOT_REGION_PAGES)
                .requests(requests)
                .gap_ns(415)
                .build(sim.config(), seed);
            (sim, build, trace, t0.elapsed())
        }
        "mixed_gc" => {
            // 4x16 topology with flash shrunk to 262,144 pages, so the
            // hot FIMMs reach steady-state GC within one run.
            let (sim, build) = build_sim(builder.configure(|c| {
                c.tune(|cfg| {
                    cfg.shape.flash.blocks_per_plane = 1;
                    cfg.shape.flash.pages_per_block = 32;
                })
            }));
            let t0 = Instant::now();
            let trace = ProfileTrace::new(profile("mds"))
                .requests(requests)
                .gap_ns(291)
                .hot_region_pages(HOT_REGION_PAGES)
                .build(sim.config(), seed);
            (sim, build, trace, t0.elapsed())
        }
        "wide_uniform" => {
            let (sim, build) = build_sim(builder.configure(|c| c.topology(16, 8)));
            let t0 = Instant::now();
            let trace = uniform_trace(sim.config().shape.total_pages(), requests, seed);
            (sim, build, trace, t0.elapsed())
        }
        "tenant_storm" => {
            let t0 = Instant::now();
            let interactive_reqs = requests * 2 / 5;
            // Interactive lanes chase a hot set that moves every phase;
            // batch lanes breathe through one day curve underneath.
            let drift = ScenarioTrace::hotspot_drift(profile("fin"), interactive_reqs, 200, 4)
                .hot_region_pages(HOT_REGION_PAGES);
            let day =
                ScenarioTrace::diurnal(profile("mds"), requests - interactive_reqs, 1_344, 224, 1)
                    .hot_region_pages(HOT_REGION_PAGES);
            let shape_time = t0.elapsed();
            let starts = drift.phase_starts_ns();
            let (sim, build) = build_sim(builder.configure(|c| {
                c.with_tenants((0..TENANTS).map(|i| {
                    if i < INTERACTIVE {
                        TenantSpec::interactive()
                    } else {
                        TenantSpec::batch()
                    }
                }))
                .hot_spares(1)
                .faults(storm_faults(&starts, seed))
            }));
            let t0 = Instant::now();
            let mut all = split_across(drift.build(sim.config(), seed), 0, INTERACTIVE);
            all.extend(split_across(
                day.build(sim.config(), seed ^ 0xD1A),
                INTERACTIVE,
                TENANTS - INTERACTIVE,
            ));
            let trace = Trace::new(all);
            (sim, build, trace, shape_time + t0.elapsed())
        }
        _ => unreachable!("unknown workload {name:?}"),
    };
    Prepared {
        sim,
        trace,
        gen,
        build,
    }
}

fn profile(name: &str) -> WorkloadProfile {
    WorkloadProfile::by_name(name).expect("Table-1 profile registered")
}

/// Uniform random traffic over the whole address space: 4:1
/// read:write, 1/2/4-page requests, one every 1,000 ns (below
/// saturation, so the autonomic layer finds nothing hot).
fn uniform_trace(total_pages: u64, requests: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed ^ 0x5CA1E);
    (0..requests)
        .map(|i| {
            let op = if rng.next_below(5) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let pages = 1u32 << rng.next_below(3);
            let lpn = rng.next_below(total_pages - pages as u64);
            TraceRequest::new(
                SimTime::from_nanos(i as u64 * 1_000),
                op,
                LogicalPage(lpn),
                pages,
            )
        })
        .collect()
}

/// The `tenant_storm` fault plan, aimed at the interactive drift phases:
/// FIMM (0,0) dies at phase 2, FIMM (1,1) slows 4x at phase 3, the power
/// is cut in the middle of phase 3 (journaled FTL), and every NAND
/// command may fail (2 % read ECC retries, 0.1 % program/erase failures).
fn storm_faults(starts: &[u64], seed: u64) -> FaultConfig {
    let cut_ns = starts[2] + (starts[3] - starts[2]) / 2;
    FaultConfig {
        flash: FlashFaultProfile {
            read_transient_prob: 0.02,
            prog_fail_prob: 0.001,
            erase_fail_prob: 0.001,
        },
        seed,
        ..FaultConfig::default()
    }
    .with_power_loss(PowerLossEvent::at(cut_ns))
    .with_fimm_event(FimmFaultEvent {
        cluster: 0,
        fimm: 0,
        at_ns: starts[1].max(1),
        kind: FimmFaultKind::Dead,
    })
    .with_fimm_event(FimmFaultEvent {
        cluster: 1,
        fimm: 1,
        at_ns: starts[2].max(1),
        kind: FimmFaultKind::Slowdown(4),
    })
}

/// Deals `trace` round-robin to tenants `[first, first + count)`.
fn split_across(trace: Trace, first: usize, count: usize) -> Vec<TraceRequest> {
    trace
        .into_requests()
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.owned_by(TenantId((first + i % count) as u32)))
        .collect()
}
