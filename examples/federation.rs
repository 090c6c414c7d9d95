//! Federation quickstart: one volume striped and replicated across four
//! Triple-A boxes, surviving a whole-array power loss mid-run.
//!
//! ```text
//! cargo run --release --example federation
//! ```
//!
//! The volume is a 2x2 geometry — two stripe columns, two replicas of
//! each — so every chunk lives on two member arrays. Array 0 loses
//! power 100 us into the run: reads routed to its replica are retried
//! on the surviving copy, writes complete degraded on the peers, and
//! the volume finishes with zero lost requests.

use triple_a::core::{
    Array, FaultConfig, IoOp, ManagementMode, PowerLossEvent, TraceRequest, VolumeSpec,
};
use triple_a::ftl::LogicalPage;
use triple_a::sim::{SimTime, SplitMix64};

fn main() {
    // 20k mixed requests against a 64k-page volume namespace: 4:1
    // read:write, runs of 1-8 pages so requests straddle chunk seams.
    let volume_pages = 64 * 1024u64;
    let mut rng = SplitMix64::new(42);
    let trace: triple_a::core::Trace = (0..20_000)
        .map(|i| {
            let op = if rng.next_below(5) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let pages = 1 + rng.next_below(8);
            let lpn = rng.next_below(volume_pages - pages);
            TraceRequest::new(
                SimTime::from_nanos(i as u64 * 500),
                op,
                LogicalPage(lpn),
                pages as u32,
            )
        })
        .collect();

    // Four small boxes federated into one 2-wide, 2-replica volume.
    // Array 0 alone gets a power cut 100 us in; its three peers keep
    // serving the other replica of every chunk it held.
    let fed = Array::builder()
        .mode(ManagementMode::Autonomic)
        .with_federation(4)
        .volume(
            VolumeSpec::replicated(2, 2)
                .chunk_pages(64)
                .volume_pages(volume_pages),
        )
        .array_faults(
            0,
            FaultConfig::default().with_power_loss(PowerLossEvent::at(100_000)),
        )
        .build()
        .expect("federation configuration validates");

    println!(
        "replaying {} volume requests over a 2x2 federation (array 0 cuts at t=100us)...\n",
        trace.len()
    );
    let run = fed.run_verified(&trace);
    run.integrity
        .expect("member-array FTL integrity survives the cut");
    let report = &run.report;
    println!("{report}");

    let s = &report.stats;
    assert_eq!(s.lost_requests, 0, "replication must hide the lost array");
    println!(
        "array 0 went down and came back: {} reads were retried on the\n\
         surviving replica, {} writes completed degraded, and the volume\n\
         finished all {} requests without losing one.",
        s.retried_reads, s.degraded_writes, s.completed
    );
}
