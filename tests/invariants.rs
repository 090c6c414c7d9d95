//! Property-based tests over the whole simulator: random (valid) traces
//! must complete, conserve requests, and keep latency accounting sane in
//! both management modes.

use proptest::prelude::*;

use triple_a::core::{
    Array, ArrayConfig, IoOp, LaggardPolicy, ManagementMode, TenantId, TenantSpec, Trace,
    TraceRequest, VolumeMapper, VolumeSpec, WeightedArbiter,
};
use triple_a::ftl::LogicalPage;
use triple_a::sim::SimTime;

fn small() -> ArrayConfig {
    ArrayConfig::small_test()
}

prop_compose! {
    /// A random, structurally valid request: size-aligned power-of-two
    /// page count within the address space.
    fn arb_request(total_pages: u64)
        (at_us in 0u64..3_000,
         pages_log in 0u32..3,
         slot in 0u64..1_000,
         is_read in prop::bool::weighted(0.6))
        -> TraceRequest
    {
        let pages = 1u32 << pages_log;
        let lpn = (slot * pages as u64) % (total_pages - pages as u64);
        let lpn = lpn - lpn % pages as u64;
        TraceRequest::new(
            SimTime::from_us(at_us),
            if is_read { IoOp::Read } else { IoOp::Write },
            LogicalPage(lpn),
            pages,
        )
    }
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    let total = small().shape.total_pages();
    prop::collection::vec(arb_request(total), 1..300).prop_map(Trace::new)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn every_request_completes_in_both_modes(trace in arb_trace()) {
        for mode in [ManagementMode::NonAutonomic, ManagementMode::Autonomic] {
            let report = Array::new(small(), mode).run(&trace);
            prop_assert_eq!(report.completed(), trace.len() as u64);
            prop_assert_eq!(report.reads() + report.writes(), trace.len() as u64);
        }
    }

    #[test]
    fn latency_accounting_is_bounded(trace in arb_trace()) {
        let report = Array::new(small(), ManagementMode::Autonomic).run(&trace);
        // Per-request buckets are *sums over parallel parts*, so they
        // may exceed wall time — but never by more than the maximum
        // request parallelism (4 pages => 4 concurrent parts).
        let waits = report.avg_queue_stall_us()
            + report.avg_direct_link_wait_us()
            + report.avg_direct_storage_wait_us();
        prop_assert!(waits <= report.mean_latency_us() * 4.1 + 1.0,
            "waits {} > 4x mean {}", waits, report.mean_latency_us());
        prop_assert!(report.mean_latency_us() > 0.0);
        // Attributed contention never exceeds direct + queue stall.
        prop_assert!(report.avg_link_contention_us() + report.avg_storage_contention_us()
            <= report.avg_queue_stall_us()
             + report.avg_direct_link_wait_us()
             + report.avg_direct_storage_wait_us() + 1.0);
    }

    #[test]
    fn relocation_pages_conserved(trace in arb_trace()) {
        let report = Array::new(small(), ManagementMode::Autonomic).run(&trace);
        let stats = report.autonomic_stats();
        prop_assert_eq!(
            stats.pages_migrated + stats.pages_reshaped,
            report.ftl_stats().migration_writes
        );
        prop_assert_eq!(stats.migrations_started, stats.migrations_completed);
    }

    #[test]
    fn non_autonomic_never_relocates(trace in arb_trace()) {
        let report = Array::new(small(), ManagementMode::NonAutonomic).run(&trace);
        prop_assert_eq!(report.ftl_stats().migration_writes, 0);
        prop_assert_eq!(report.autonomic_stats().hot_detections, 0);
    }

    #[test]
    fn host_write_count_matches_trace(trace in arb_trace()) {
        let report = Array::new(small(), ManagementMode::NonAutonomic).run(&trace);
        let pages_written: u64 = trace
            .requests()
            .iter()
            .filter(|r| r.op == IoOp::Write)
            .map(|r| r.pages as u64)
            .sum();
        prop_assert_eq!(report.ftl_stats().host_writes, pages_written);
    }

    /// Under permanent backlog on every lane, WFQ grant counts converge
    /// to the configured weight ratios — for arbitrary weight vectors
    /// and arrival interleavings (derived from the seed).
    #[test]
    fn wfq_converges_to_weight_ratios(
        weights in prop::collection::vec(1u32..10, 2..5),
        seed in 0u64..u64::MAX,
    ) {
        let specs: Vec<TenantSpec> = weights
            .iter()
            .map(|&w| TenantSpec { weight: w, sla_p99_ns: 1_000_000, qd_limit: 64 })
            .collect();
        let mut arb = WeightedArbiter::new(&specs);
        // Keep every lane saturated; vary the refill order by seed so
        // arrival interleaving is arbitrary but reproducible.
        let n = weights.len() as u64;
        for i in 0..(n * 8) {
            let t = TenantId((seed.wrapping_add(i) % n) as u32);
            for r in 0..8u32 {
                arb.enqueue(t, i as u32 * 8 + r);
            }
        }
        let rounds: u64 = 4_000;
        let mut grants = vec![0u64; weights.len()];
        for i in 0..rounds {
            let (t, _) = arb.grant().expect("lanes stay backlogged");
            grants[t.index()] += 1;
            arb.complete(t);
            // Refill the granted lane so no lane ever drains.
            arb.enqueue(t, 1_000_000 + i as u32);
        }
        let total_w: u64 = weights.iter().map(|&w| w as u64).sum();
        for (i, &w) in weights.iter().enumerate() {
            let fair = rounds * w as u64 / total_w;
            let got = grants[i];
            // Integer virtual time grants within one quantum of fair
            // share per competing lane.
            let slack = 2 * weights.len() as u64 + 2;
            prop_assert!(
                got + slack >= fair && got <= fair + slack,
                "lane {i} (w{w}): {got} grants vs fair {fair} of {rounds}"
            );
        }
    }

    /// Partitioning one trace across k equal-weight tenants must not
    /// change how much work completes: the front door reorders
    /// admission, never loses or invents requests.
    #[test]
    fn completions_invariant_to_tenant_partitioning(
        trace in arb_trace(),
        k in 1usize..5,
    ) {
        let base = Array::new(small(), ManagementMode::Autonomic).run(&trace);
        let mut cfg = small();
        cfg.tenants = (0..k)
            .map(|_| TenantSpec { weight: 1, sla_p99_ns: 1_000_000, qd_limit: 512 })
            .collect();
        let split: Trace = trace
            .requests()
            .iter()
            .enumerate()
            .map(|(i, r)| r.owned_by(TenantId((i % k) as u32)))
            .collect();
        let part = Array::new(cfg, ManagementMode::Autonomic).run(&split);
        prop_assert_eq!(part.completed(), base.completed());
        prop_assert_eq!(part.completed(), trace.len() as u64);
        let per_lane: u64 = part.tenant_stats().iter().map(|t| t.completed).sum();
        prop_assert_eq!(per_lane, part.completed());
        prop_assert_eq!(part.tenant_stats().len(), k);
    }

    /// The volume address map's home placement is a bijection from
    /// chunks onto each copy group's `(array, local_chunk)` space, for
    /// arbitrary stripe/chunk/replica geometry — no two chunks collide,
    /// every placement inverts back, and copies never share an array.
    #[test]
    fn volume_home_placement_is_a_bijection(
        width in 1u32..7,
        replicas in 1u32..4,
        chunk_pages in 1u64..65,
        chunks in 1u64..300,
    ) {
        let m = VolumeMapper::from_geometry(width, replicas, chunk_pages, chunks);
        for copy in 0..replicas {
            let mut seen = std::collections::BTreeSet::new();
            for chunk in 0..chunks {
                let p = m.home(copy, chunk);
                // Copy j lives in its own array group [jW, (j+1)W).
                prop_assert_eq!(p.array / width, copy);
                prop_assert!(p.local_chunk < m.rows());
                prop_assert!(
                    seen.insert((p.array, p.local_chunk)),
                    "copy {} chunk {} collided", copy, chunk
                );
                prop_assert_eq!(
                    m.home_inverse(p.array, p.local_chunk),
                    Some((copy, chunk))
                );
            }
        }
        // The copies of one chunk land on `replicas` distinct arrays.
        for chunk in 0..chunks {
            let holders = m.holders(chunk);
            let distinct: std::collections::BTreeSet<_> = holders.iter().collect();
            prop_assert_eq!(distinct.len(), replicas as usize);
        }
    }

    /// Fragmenting an arbitrary `[lpn, lpn + pages)` run tiles it
    /// exactly: fragments are contiguous, in order, chunk-bounded, and
    /// their local LPNs stay inside the owning local chunk.
    #[test]
    fn volume_fragments_tile_the_request(
        width in 1u32..7,
        replicas in 1u32..4,
        chunk_pages in 1u64..65,
        chunks in 1u64..300,
        lpn_seed in 0u64..u64::MAX,
        pages in 1u32..129,
    ) {
        let m = VolumeMapper::from_geometry(width, replicas, chunk_pages, chunks);
        let pages = pages.min(m.volume_pages() as u32);
        let lpn = lpn_seed % (m.volume_pages() - pages as u64 + 1);
        let frags = m.fragments(LogicalPage(lpn), pages);
        let mut next = lpn;
        for f in &frags {
            prop_assert_eq!(f.chunk * chunk_pages + f.offset, next, "contiguous");
            prop_assert!(f.offset + f.pages as u64 <= chunk_pages, "chunk-bounded");
            for copy in 0..replicas {
                let p = m.placement(copy, f.chunk);
                let local = m.local_lpn(p, f.offset).0;
                prop_assert_eq!(local / chunk_pages, p.local_chunk);
            }
            next += f.pages as u64;
        }
        prop_assert_eq!(next, lpn + pages as u64, "tiles the whole run");
    }
}

/// A random, volume-bounded request stream for federation runs.
fn arb_volume_trace(volume_pages: u64) -> impl Strategy<Value = Trace> {
    let req = (
        0u64..2_000,
        1u32..9,
        0u64..volume_pages,
        prop::bool::weighted(0.7),
    )
        .prop_map(move |(at_us, pages, slot, is_read)| {
            let lpn = slot.min(volume_pages - pages as u64);
            TraceRequest::new(
                SimTime::from_us(at_us),
                if is_read { IoOp::Read } else { IoOp::Write },
                LogicalPage(lpn),
                pages,
            )
        });
    prop::collection::vec(req, 1..120).prop_map(Trace::new)
}

proptest! {
    // Federation runs simulate several member arrays per case; keep the
    // case count low so the suite stays quick.
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Partitioning one volume across more (or replicated) member
    /// arrays must not change how much work completes: the federation
    /// front door re-routes fragments, never loses or invents requests.
    #[test]
    fn federation_completions_invariant_to_array_partitioning(
        trace in arb_volume_trace(4_096),
    ) {
        let off = LaggardPolicy { sla_p99_ns: 0, ..LaggardPolicy::default() };
        for (width, replicas) in [(1u32, 1u32), (2, 1), (4, 1), (2, 2)] {
            let fed = Array::builder()
                .mode(ManagementMode::Autonomic)
                .with_federation(width * replicas)
                .volume(
                    VolumeSpec::replicated(width, replicas)
                        .chunk_pages(16)
                        .volume_pages(4_096),
                )
                .policy(off)
                .build()
                .expect("federation geometry validates");
            let run = fed.run_verified(&trace);
            prop_assert!(run.integrity.is_ok());
            let s = &run.report.stats;
            prop_assert_eq!(s.completed, trace.len() as u64,
                "{}x{}: completions drifted", width, replicas);
            prop_assert_eq!(s.lost_requests, 0u64);
            // Member completions sum to the fragment count.
            let member: u64 = run.report.arrays.iter().map(|r| r.completed()).sum();
            prop_assert_eq!(member, s.fragments);
        }
    }
}
