//! `federation`: the array-federation sweep — one volume namespace over
//! 1/2/4/8 member arrays, striped and replicated, plus a degraded-box
//! point where a fault storm slows one member and the inter-array
//! laggard policy migrates its hot chunks to healthy peers.
//!
//! Every point replays the *same* volume-level workload (seeded from the
//! experiment, not the point), so the sweep reads as a scaling story:
//! what one box does with the trace, what a 2/4/8-box federation does,
//! and what replication costs. Points run member arrays inside one
//! deterministic epoch loop, so artifacts are byte-identical at any
//! thread count and the golden suite pins them.

use crate::harness::{arr, jf, ju, num, obj, text, uint, Experiment, Scale};
use serde_json::Value;
use triplea_core::{
    Array, FaultConfig, FederationStats, FimmFaultEvent, FimmFaultKind, IoOp, LaggardPolicy,
    ManagementMode, Trace, TraceRequest, VolumeSpec,
};
use triplea_ftl::LogicalPage;
use triplea_sim::{SimTime, SplitMix64};

/// Pages per stripe chunk in every sweep point.
const CHUNK_PAGES: u64 = 64;

/// Volume capacity in pages — fixed across points so the same trace
/// replays on every geometry.
const VOLUME_PAGES: u64 = 1 << 20;

/// Hot region: the first 64 chunks, re-accessed ~80 % of the time so
/// the degraded point gives the laggard policy something worth moving.
const HOT_PAGES: u64 = 64 * CHUNK_PAGES;

/// Volume-level arrival gap, ns. One box sees the full stream; larger
/// federations split it `W` ways.
const GAP_NS: u64 = 400;

/// Arrival gap for the degraded point, ns. 4× lighter than the scaling
/// sweep so the slowed member builds a *bounded* backlog — the laggard
/// policy's clone reads then complete in epochs rather than queuing
/// behind the whole run, and the migration story stays attributable.
const DEGRADED_GAP_NS: u64 = 4 * GAP_NS;

/// The shared volume workload: 80/20 hot/uniform, 4:1 read:write, run
/// lengths 1–16 pages so requests regularly straddle chunk seams.
fn volume_trace(requests: usize, seed: u64, gap_ns: u64) -> Trace {
    let mut rng = SplitMix64::new(seed ^ 0xFED);
    (0..requests)
        .map(|i| {
            let op = if rng.next_below(5) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let pages = match rng.next_below(4) {
                0 => 1,
                1 => 4,
                2 => 8,
                _ => 16,
            };
            let span = if rng.next_below(10) < 8 {
                HOT_PAGES
            } else {
                VOLUME_PAGES
            };
            let lpn = rng.next_below(span - pages);
            TraceRequest::new(
                SimTime::from_nanos(i as u64 * gap_ns),
                op,
                LogicalPage(lpn),
                pages as u32,
            )
        })
        .collect()
}

/// The fault storm the degraded point aims at member array 0: every
/// FIMM of its first four clusters slowed 16× from t = 0.
fn degraded_faults() -> FaultConfig {
    let mut fc = FaultConfig::default();
    for cluster in 0..4 {
        for fimm in 0..2 {
            fc = fc
                .try_with_fimm_event(FimmFaultEvent {
                    cluster,
                    fimm,
                    at_ns: 1,
                    kind: FimmFaultKind::Slowdown(16),
                })
                .expect("eight events fit the fault schedule");
        }
    }
    fc
}

/// The federation policy the sweep runs: a 500 µs federation budget with
/// a tight epoch so the quick scale still samples enough epochs.
fn sweep_policy() -> LaggardPolicy {
    LaggardPolicy {
        sla_p99_ns: 500_000,
        imbalance_milli: 1_200,
        epoch_ns: 200_000,
        max_chunks_per_epoch: 4,
        migration_slots: 64,
        cooldown_epochs: 2,
    }
}

/// Runs one federation geometry over the shared trace and returns the
/// point summary. `degrade` aims [`degraded_faults`] at array 0.
fn fed_point(width: u32, replicas: u32, degrade: bool, trace: &Trace) -> Value {
    let arrays = width * replicas;
    let mut b = Array::builder()
        .configure(|c| c.collect_series(false))
        .mode(ManagementMode::Autonomic)
        .with_federation(arrays)
        .volume(
            VolumeSpec::replicated(width, replicas)
                .chunk_pages(CHUNK_PAGES)
                .volume_pages(VOLUME_PAGES),
        )
        .policy(sweep_policy());
    if degrade {
        b = b.array_faults(0, degraded_faults());
    }
    let fed = b.build().expect("federation sweep configuration validates");
    let run = fed.run_verified(trace);
    run.integrity
        .expect("member-array FTL integrity must survive the federation run");
    let s = &run.report.stats;
    assert_eq!(
        s.completed + s.lost_requests,
        trace.len() as u64,
        "every volume request must complete or be accounted lost"
    );
    obj([
        ("arrays", uint(arrays as u64)),
        ("stripe_width", uint(width as u64)),
        ("replicas", uint(replicas as u64)),
        ("chunk_pages", uint(CHUNK_PAGES)),
        ("degraded", crate::harness::flag(degrade)),
        ("iops", num(run.report.iops())),
        ("stats", stats_json(s)),
        (
            "per_array",
            arr((0..arrays as usize)
                .map(|i| {
                    arr(vec![
                        uint(i as u64),
                        uint(s.per_array_fragments[i]),
                        uint(s.per_array_reads[i]),
                        uint(s.per_array_p99_ns[i]),
                        uint(s.per_array_migrations_out[i]),
                        uint(run.report.arrays[i].completed()),
                    ])
                })
                .collect()),
        ),
    ])
}

/// Flattens [`FederationStats`] headlines into the artifact.
fn stats_json(s: &FederationStats) -> Value {
    obj([
        ("volume_requests", uint(s.volume_requests)),
        ("completed", uint(s.completed)),
        ("lost_requests", uint(s.lost_requests)),
        ("degraded_writes", uint(s.degraded_writes)),
        ("retried_reads", uint(s.retried_reads)),
        ("fragments", uint(s.fragments)),
        ("epochs", uint(s.epochs)),
        ("laggard_epochs", uint(s.laggard_epochs)),
        ("migrations_started", uint(s.migrations_started)),
        ("migrations_committed", uint(s.migrations_committed)),
        ("migrations_aborted", uint(s.migrations_aborted)),
        ("migrated_pages", uint(s.migrated_pages)),
        ("mean_ns", uint(s.mean_ns)),
        ("p50_ns", uint(s.p50_ns)),
        ("p99_ns", uint(s.p99_ns)),
        ("max_ns", uint(s.max_ns)),
        ("read_p99_ns", uint(s.read_p99_ns)),
        ("write_p99_ns", uint(s.write_p99_ns)),
    ])
}

/// Builds the `federation` experiment at `scale`.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "federation",
        "Array federation: one volume over 1/2/4/8 boxes, striped/replicated/degraded",
    );
    for width in [1u32, 2, 4, 8] {
        e.point(format!("striped/{width}"), move |ctx| {
            let trace = volume_trace(scale.requests, ctx.base_seed, GAP_NS);
            obj([
                ("label", text("striped")),
                ("point", fed_point(width, 1, false, &trace)),
            ])
        });
    }
    for (width, replicas) in [(2u32, 2u32), (4, 2)] {
        e.point(format!("replicated/{width}x{replicas}"), move |ctx| {
            let trace = volume_trace(scale.requests, ctx.base_seed, GAP_NS);
            obj([
                ("label", text("replicated")),
                ("point", fed_point(width, replicas, false, &trace)),
            ])
        });
    }
    e.point("degraded/2x2", move |ctx| {
        let trace = volume_trace(scale.requests, ctx.base_seed, DEGRADED_GAP_NS);
        obj([
            ("label", text("degraded")),
            ("point", fed_point(2, 2, true, &trace)),
        ])
    });
    e.renderer(|res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    ju(d, "point.arrays").to_string(),
                    format!(
                        "{}x{}",
                        ju(d, "point.stripe_width"),
                        ju(d, "point.replicas")
                    ),
                    crate::f1(jf(d, "point.iops") / 1e3),
                    crate::f1(jf(d, "point.stats.p99_ns") / 1e3),
                    ju(d, "point.stats.retried_reads").to_string(),
                    format!(
                        "{}/{}",
                        ju(d, "point.stats.migrations_committed"),
                        ju(d, "point.stats.migrations_started")
                    ),
                    ju(d, "point.stats.lost_requests").to_string(),
                ]
            })
            .collect();
        let mut out = crate::harness::fmt_table(
            "Array federation: same volume workload, growing the box count",
            &[
                "Point", "Arrays", "WxR", "kIOPS", "p99 us", "Retried", "Migr c/s", "Lost",
            ],
            &rows,
        );
        out.push_str(
            "\nthe degraded point slows array 0 sixteen-fold; the inter-array\n\
             laggard policy shadow-clones its hot chunks to healthy peers.\n",
        );
        out
    });
    // Per-array routing census: one CSV row per (point, member array).
    e.artifact("arrays.csv", |res| {
        let mut out = String::from("# federation per-array census\n");
        out.push_str("point,array,fragments,reads_routed,p99_us,migrations_out,completed\n");
        for p in &res.points {
            for row in p.data["point"]["per_array"].as_array().unwrap_or(&[]) {
                let cell = |i: usize| row.as_array().unwrap()[i].as_f64().unwrap_or(0.0);
                out.push_str(&format!(
                    "{},{},{},{},{:.1},{},{}\n",
                    p.label,
                    cell(0) as u64,
                    cell(1) as u64,
                    cell(2) as u64,
                    cell(3) / 1e3,
                    cell(4) as u64,
                    cell(5) as u64,
                ));
            }
        }
        out
    });
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_trace_is_deterministic_and_in_bounds() {
        let a = volume_trace(2_000, 7, GAP_NS);
        let b = volume_trace(2_000, 7, GAP_NS);
        assert_eq!(a.requests(), b.requests());
        assert!(a
            .requests()
            .iter()
            .all(|r| r.lpn.0 + r.pages as u64 <= VOLUME_PAGES));
        assert!(a.requests().windows(2).all(|w| w[0].at <= w[1].at));
        let writes = a.requests().iter().filter(|r| r.op == IoOp::Write).count();
        assert!(writes > 200 && writes < 700, "~20% writes, got {writes}");
    }

    #[test]
    fn degraded_storm_fills_eight_slots() {
        let fc = degraded_faults();
        assert_eq!(fc.free_fimm_event_slots(), 0);
    }
}
