//! Pins the requests the synthetic trace builders generate: every
//! Table-1 profile, the three scenario shapes and the micro-benchmarks
//! with each of their options, on four topologies and three seeds.
//!
//! Each constant is an FNV-1a hash over `(at, op, lpn, pages, tenant)`
//! of every request of one builder's traces. A change to the generators
//! that moves any request — its arrival, operation, address, size or
//! owner — changes it. Re-capturing a constant is a deliberate edit with
//! its reason in CHANGES.md, like a golden re-bless.

use triple_a::core::{ArrayConfig, IoOp, Topology, Trace};
use triple_a::workloads::{Microbench, ProfileTrace, ScenarioTrace, WorkloadProfile};

const SEEDS: [u64; 3] = [1, 7, 0xDEAD_BEEF];

/// FNV-1a over the little-endian bytes of `word`, folded into `h`.
fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds every request of `trace` into `h`, and its length first so
/// that two traces cannot trade requests unnoticed.
fn fold(mut h: u64, trace: &Trace) -> u64 {
    h = fnv1a(h, trace.len() as u64);
    for r in trace.requests() {
        h = fnv1a(h, r.at.as_nanos());
        h = fnv1a(h, matches!(r.op, IoOp::Write) as u64);
        h = fnv1a(h, r.lpn.0);
        h = fnv1a(h, r.pages as u64);
        h = fnv1a(h, r.tenant.0 as u64);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn with_topology(switches: u32, clusters_per_switch: u32) -> ArrayConfig {
    let mut c = ArrayConfig::small_test();
    c.shape.topology = Topology {
        switches,
        clusters_per_switch,
    };
    c
}

/// `small_test` (2×4), the paper's 4×16 baseline, and the two smallest
/// arrays, where the hot-set clamps decide what stays cold.
fn configs() -> [ArrayConfig; 4] {
    [
        ArrayConfig::small_test(),
        ArrayConfig::paper_baseline(),
        with_topology(1, 1),
        with_topology(1, 2),
    ]
}

/// Hashes `build(cfg, seed)` over every configuration and seed.
fn over_arrays(mut h: u64, build: impl Fn(&ArrayConfig, u64) -> Trace) -> u64 {
    for cfg in configs() {
        for seed in SEEDS {
            h = fold(h, &build(&cfg, seed));
        }
    }
    h
}

const PROFILE_HASH: u64 = 0xc449_1ba5_b416_a404;
const SCENARIO_HASH: u64 = 0x024c_7af1_28a8_f498;
const MICROBENCH_HASH: u64 = 0x5707_c415_39d1_82dd;

#[test]
fn profile_traces_are_pinned() {
    let mut h = FNV_OFFSET;
    for p in WorkloadProfile::table1() {
        for pages in [1, 4] {
            h = over_arrays(h, |cfg, seed| {
                ProfileTrace::new(*p)
                    .requests(240)
                    .gap_ns(1_500)
                    .pages(pages)
                    .hot_region_pages(64)
                    .build(cfg, seed)
            });
        }
    }
    assert_eq!(h, PROFILE_HASH, "ProfileTrace output moved: {h:#018x}");
}

#[test]
fn scenario_traces_are_pinned() {
    let mut h = FNV_OFFSET;
    for name in ["fin", "websql", "cfs", "g-eigen"] {
        let p = WorkloadProfile::by_name(name).unwrap();
        let shapes = [
            ScenarioTrace::diurnal(p, 300, 4_000, 500, 2),
            ScenarioTrace::flash_crowd(p, 300, 2_000, 250, 3),
            ScenarioTrace::hotspot_drift(p, 300, 1_500, 5),
        ];
        for s in shapes {
            for pages in [1, 4] {
                let s = s.clone().pages(pages).hot_region_pages(128);
                h = over_arrays(h, |cfg, seed| s.build(cfg, seed));
            }
        }
    }
    assert_eq!(h, SCENARIO_HASH, "ScenarioTrace output moved: {h:#018x}");
}

#[test]
fn microbench_traces_are_pinned() {
    let mut h = FNV_OFFSET;
    for base in [Microbench::read(), Microbench::write()] {
        for hot in [0, 1, 3, 1_000] {
            let plain = base.clone().hot_clusters(hot).requests(200).gap_ns(1_400);
            let variants = [
                plain.clone(),
                plain.clone().same_switch(),
                plain.clone().zipf(0.99).region_pages(256),
                plain.clone().bursty(20_000, 80_000),
                plain.clone().pages(4).region_pages(64),
            ];
            for m in variants {
                h = over_arrays(h, |cfg, seed| m.build(cfg, seed));
            }
        }
    }
    assert_eq!(h, MICROBENCH_HASH, "Microbench output moved: {h:#018x}");
}
