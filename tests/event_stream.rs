//! Pins the traced event stream of small runs that between them emit
//! every event kind a component below the engine reports: a credit
//! queue refusal, a replayed TLP, bus grants, flash operations, NAND and
//! FIMM faults, GC, mapping-cache misses, journal checkpoints, laggards
//! and escalations. The goldens pin the stream of a fault-free run; this
//! test pins the order, timestamps, scopes and payloads of the rest.
//!
//! The constant is an FNV-1a hash of the runs' `RunTrace::to_json()`
//! exports. A change that moves any traced event — adds, drops,
//! reorders or re-stamps one — changes it.

use triple_a::core::{
    Array, ArrayConfig, FimmFaultEvent, FimmFaultKind, ManagementMode, PowerLossEvent, Trace,
};
use triple_a::sim::trace::{RunTrace, TraceConfig, TraceEventKind};
use triple_a::workloads::Microbench;

/// FNV-1a over the bytes of `s`, folded into `h`.
fn fnv1a(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn traced(cfg: ArrayConfig, mode: ManagementMode, trace: &Trace) -> RunTrace {
    let run = Array::builder()
        .config(cfg)
        .mode(mode)
        .with_recorder(TraceConfig::all())
        .build()
        .expect("valid configuration")
        .run_verified(trace);
    run.integrity.expect("FTL metadata stays coherent");
    assert_eq!(
        run.report.completed() + run.report.recovery_stats().lost_inflight_requests,
        trace.len() as u64
    );
    let t = run.trace.expect("recorder attached");
    assert_eq!(t.dropped, 0, "the ring holds the whole run");
    t
}

/// FIMM faults scheduled by [`faulty_reads`]: `(cluster, fimm, detail,
/// instant in ns)`.
const READ_FIMM_FAULTS: [(u32, u32, &str, u64); 2] =
    [(0, 0, "slowdown", 100_000), (0, 1, "dead", 300_000)];

/// FIMM faults scheduled by [`journaled_overwrites`], as above.
const JOURNAL_FIMM_FAULTS: [(u32, u32, &str, u64); 1] = [(0, 0, "dead", 500_000)];

/// A hot-read overload on a faulty array: TLP corruption, transient
/// NAND reads, a mapping cache, one FIMM slowed and a sibling killed.
/// With a hot spare the dead module is rebuilt; reads fail over around
/// it and never issue to it, so its death shows only where a reader
/// first skips it.
fn faulty_reads(hot_spares: u32) -> RunTrace {
    let cfg = ArrayConfig::small_builder()
        .tune(|c| {
            c.hot_spares = hot_spares;
            c.mapping_cache_pages = 4;
            c.faults.pcie.corrupt_prob = 0.01;
            c.faults.pcie.replay_ns = 800;
            c.faults.flash.read_transient_prob = 0.02;
            c.faults.seed = 17;
            c.faults = c
                .faults
                .with_fimm_event(FimmFaultEvent {
                    cluster: 0,
                    fimm: 0,
                    at_ns: READ_FIMM_FAULTS[0].3,
                    kind: FimmFaultKind::Slowdown(8),
                })
                .with_fimm_event(FimmFaultEvent {
                    cluster: 0,
                    fimm: 1,
                    at_ns: READ_FIMM_FAULTS[1].3,
                    kind: FimmFaultKind::Dead,
                });
        })
        .build()
        .expect("valid configuration");
    let trace = Microbench::read()
        .hot_clusters(1)
        .requests(1_200)
        .gap_ns(600)
        .build(&cfg, 31);
    traced(cfg, ManagementMode::Autonomic, &trace)
}

/// Overwrites of a small region on tiny flash, so GC runs, with a
/// journaled power cut that checkpoints often and a FIMM death rebuilt
/// onto a hot spare.
fn journaled_overwrites() -> RunTrace {
    let cfg = ArrayConfig::small_builder()
        .tune(|c| {
            c.shape.flash.blocks_per_plane = 8;
            c.gc_threshold_blocks = 250;
            c.hot_spares = 1;
            c.faults = c
                .faults
                .with_power_loss(PowerLossEvent {
                    at_ns: 2_000_000,
                    flush_every: 4,
                    checkpoint_every: 64,
                })
                .with_fimm_event(FimmFaultEvent {
                    cluster: 0,
                    fimm: 0,
                    at_ns: JOURNAL_FIMM_FAULTS[0].3,
                    kind: FimmFaultKind::Dead,
                });
        })
        .build()
        .expect("valid configuration");
    let trace = Microbench::write()
        .hot_clusters(1)
        .region_pages(32)
        .requests(3_000)
        .gap_ns(1_000)
        .build(&cfg, 5);
    traced(cfg, ManagementMode::Autonomic, &trace)
}

/// FNV-1a of the runs' JSON exports. Re-capturing it is a deliberate
/// edit with its reason in CHANGES.md, like a golden re-bless.
const STREAM_HASH: u64 = 0x0331_8a4b_1204_28fc;

/// Whether an event is of one kind.
type IsKind = fn(&TraceEventKind) -> bool;

#[test]
fn component_events_keep_their_order_and_payloads() {
    use TraceEventKind::*;
    let runs = [faulty_reads(0), faulty_reads(1), journaled_overwrites()];
    let kinds: [(&str, IsKind); 14] = [
        ("queue_full", |k| matches!(k, QueueFull { .. })),
        ("replayed link_tx", |k| {
            matches!(k, LinkTx { replayed: true, .. })
        }),
        ("bus_acquire", |k| matches!(k, BusAcquire { .. })),
        ("flash_start", |k| matches!(k, FlashStart { .. })),
        ("nand fault", |k| {
            matches!(k, FaultInjected { domain: "nand", .. })
        }),
        ("fimm slowdown", |k| {
            matches!(
                k,
                FaultInjected {
                    domain: "fimm",
                    detail: "slowdown"
                }
            )
        }),
        ("fimm death", |k| {
            matches!(
                k,
                FaultInjected {
                    domain: "fimm",
                    detail: "dead"
                }
            )
        }),
        ("gc_run", |k| matches!(k, GcRun { .. })),
        ("map_miss", |k| matches!(k, MapMiss { .. })),
        ("journal_checkpoint", |k| {
            matches!(k, JournalCheckpoint { .. })
        }),
        ("laggard_detected", |k| matches!(k, LaggardDetected)),
        ("escalation", |k| matches!(k, Escalation)),
        ("power_loss", |k| matches!(k, PowerLoss { .. })),
        ("rebuild_done", |k| matches!(k, RebuildDone { .. })),
    ];
    let spare_run = &runs[1];
    for (name, i) in [("fimm death", 6), ("rebuild_done", 13)] {
        let is = kinds[i].1;
        assert!(
            spare_run.events.iter().any(|e| is(&e.kind)),
            "the read-only death run traced no {name}"
        );
    }
    for (name, is) in kinds {
        let n: usize = runs
            .iter()
            .map(|t| t.events.iter().filter(|e| is(&e.kind)).count())
            .sum();
        assert!(n >= 1, "no {name} event traced");
    }
    let hash = runs
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, t| fnv1a(h, &t.to_json()));
    assert_eq!(
        hash, STREAM_HASH,
        "the traced event stream changed: {hash:#018x}"
    );
}

/// A FIMM fault is stamped at the instant an operation meets it, which
/// is never before the instant its schedule sets, and it is stamped
/// under the module the schedule names.
#[test]
fn fimm_faults_are_stamped_no_earlier_than_scheduled() {
    let runs = [
        (faulty_reads(0), &READ_FIMM_FAULTS[..]),
        (faulty_reads(1), &READ_FIMM_FAULTS[..]),
        (journaled_overwrites(), &JOURNAL_FIMM_FAULTS[..]),
    ];
    for (run, schedule) in &runs {
        for e in &run.events {
            let TraceEventKind::FaultInjected {
                domain: "fimm",
                detail,
            } = e.kind
            else {
                continue;
            };
            let module = (e.scope.cluster, e.scope.fimm, detail);
            let due = schedule
                .iter()
                .find(|&&(c, f, d, _)| (c, f, d) == module)
                .unwrap_or_else(|| panic!("unscheduled FIMM fault {e:?}"))
                .3;
            assert!(
                e.at >= due,
                "FIMM fault {module:?} stamped at {} ns, before its {due} ns schedule",
                e.at
            );
        }
    }
}
