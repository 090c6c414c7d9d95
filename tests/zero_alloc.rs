//! The engine's allocation gate: once the request path's buffers have
//! grown, serving more requests allocates nothing more.
//!
//! This test binary installs [`CountingAllocator`] as its global
//! allocator. For each trace shape, `run_verified` on 2N requests may
//! allocate at most [`SLACK`] more times than on N requests; a single
//! allocation per request would cost N more. The traces are
//! uncontended, so no migration runs, and their writes touch a small
//! footprint, so the FTL's block tables stop growing early.
//!
//! The stepped runner gets the same gate in bytes: a stepped run over
//! 2N requests may request at most [`STEPPED_SLACK_BYTES`] more than one
//! over N, so it keeps nothing per submission.
//!
//! The counters are process-global, so every measured run happens
//! once, in a fixed order, inside one [`OnceLock`] initializer that both
//! tests read: the test thread that does not run it waits on the lock
//! without allocating, and no test finishes, so no harness teardown
//! allocates, while a measurement is open.

use std::sync::OnceLock;

use triple_a::core::{
    Array, ArrayConfig, IoOp, ManagementMode, TenantId, TenantSpec, Trace, TraceRequest,
};
use triple_a::ftl::LogicalPage;
use triple_a::sim::{SimTime, SplitMix64};
use triple_a::workloads::Microbench;

use triplea_alloc_counter::{measure, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Requests in the shorter run; the longer run has twice as many.
const N: usize = 20_000;

/// Extra allocations the longer run may make. A buffer that grows by
/// doubling, such as the calendar's overflow heap, costs one or two.
/// The request table does not grow with the trace at all: its slots are
/// reused, so it ends at the most requests in flight at once. The event
/// calendar's 1,024 ring slots each keep the largest buffer they have
/// needed, and a longer run meets a few larger bursts: about 30 more
/// slot growths on the read trace and 125 on the mixed ones here.
const SLACK: u64 = 256;

/// Request arrival gap: well under the array's capacity for every
/// trace, so no cluster runs hot and no FIMM lags.
const GAP_NS: u64 = 4_000;

/// Clusters the mixed traces touch: every fourth one, so each switch
/// carries a share.
const CLUSTERS: u64 = 16;

/// Pages the mixed traces touch at the start of each of their clusters'
/// regions. With [`CLUSTERS`], the writes open a block on every
/// allocation stream of those FIMMs well before N requests, so the
/// longer run's FTL opens no stream the shorter run did not.
const WINDOW: u64 = 16;

/// `hot_read`'s shape: 1-page random reads over four clusters' hot
/// regions.
fn hot_read(cfg: &ArrayConfig, n: usize) -> Trace {
    Microbench::read()
        .hot_clusters(4)
        .region_pages(1_024)
        .requests(n)
        .gap_ns(GAP_NS)
        .build(cfg, 1)
}

/// 4:1 reads to writes, 1–4 pages each, over [`CLUSTERS`] clusters'
/// windows.
fn mixed(cfg: &ArrayConfig, n: usize) -> Trace {
    let per_cluster = cfg.shape.pages_per_cluster();
    let stride = cfg.shape.topology.total_clusters() as u64 / CLUSTERS;
    let mut rng = SplitMix64::new(7);
    (0..n)
        .map(|i| {
            let op = if rng.next_below(5) == 0 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let pages = 1 + rng.next_below(4) as u32;
            let lpn = rng.next_below(CLUSTERS) * stride * per_cluster
                + rng.next_below(WINDOW - pages as u64 + 1);
            TraceRequest::new(
                SimTime::from_nanos(i as u64 * GAP_NS),
                op,
                LogicalPage(lpn),
                pages,
            )
        })
        .collect()
}

/// [`mixed`], dealt round-robin to eight tenants.
fn tenanted(cfg: &ArrayConfig, n: usize) -> Trace {
    mixed(cfg, n)
        .requests()
        .iter()
        .enumerate()
        .map(|(i, r)| r.owned_by(TenantId(i as u32 % 8)))
        .collect()
}

/// Allocations made by one `run_verified` of `trace`, after checking
/// that the run completed everything without migrating.
fn run_allocs(cfg: &ArrayConfig, trace: &Trace) -> u64 {
    let array = Array::new(cfg.clone(), ManagementMode::Autonomic);
    let (run, delta) = measure(|| array.run_verified(trace));
    assert_eq!(run.integrity, Ok(()));
    assert_eq!(run.report.completed(), trace.len() as u64);
    let auto = run.report.autonomic_stats();
    assert_eq!(
        (auto.pages_migrated, auto.pages_reshaped),
        (0, 0),
        "the gate's traces must stay uncontended"
    );
    delta.allocations
}

/// Simulated length of one step of [`stepped_bytes`]' runs.
const EPOCH_NS: u64 = 10_000;

/// Bytes a stepped run of 2N requests may request beyond one of N.
/// The stepped runner holds only what is in flight: the arrivals
/// submitted for the next step and the requests the last step
/// finished, whether or not anyone reads them. What still grows with a
/// longer run is what grows in a one-shot run too, the calendar's ring
/// slots meeting a few larger bursts. Measured, debug and release: the
/// mixed and tenanted shapes request 60,288 B more at 2N (the one-shot
/// run of the same trace: also 60,288 B, over 125 more allocations),
/// the read shape at most 8 KiB more. Keeping a 16-byte outcome per
/// submission, as the runner once did, cost about 1 MiB more here.
const STEPPED_SLACK_BYTES: u64 = 128 * 1024;

/// Bytes requested by a stepped run of `trace` that submits each
/// epoch's arrivals just before stepping to the epoch's end, and never
/// reads what finished.
fn stepped_bytes(cfg: &ArrayConfig, trace: &Trace) -> u64 {
    let array = Array::new(cfg.clone(), ManagementMode::Autonomic);
    let reqs = trace.requests();
    let (run, delta) = measure(|| {
        let mut runner = array.into_runner();
        let (mut next, mut t) = (0, SimTime::ZERO);
        while next < reqs.len() || !runner.is_idle() {
            t += EPOCH_NS;
            while next < reqs.len() && reqs[next].at < t {
                runner.submit(&reqs[next]);
                next += 1;
            }
            runner.step_until(t);
        }
        runner.finish()
    });
    assert_eq!(run.integrity, Ok(()));
    assert_eq!(run.report.completed(), trace.len() as u64);
    delta.bytes
}

/// A trace shape: the array it runs on and its generator.
type Shape<'a> = (
    &'static str,
    &'a ArrayConfig,
    fn(&ArrayConfig, usize) -> Trace,
);

/// One measurement per trace shape: its name, then the figure for N
/// and for 2N requests.
type Growth = (&'static str, u64, u64);

/// Every measured run, in order: the one-shot allocation counts of the
/// three shapes, then the stepped byte counts.
struct Measured {
    allocations: Vec<Growth>,
    stepped_bytes: Vec<Growth>,
}

/// The measurements, taken by whichever test asks first.
fn measured() -> &'static Measured {
    static MEASURED: OnceLock<Measured> = OnceLock::new();
    MEASURED.get_or_init(|| {
        let base = ArrayConfig::paper_baseline();
        let mut eight = base.clone();
        eight.tenants = (0..8).map(|_| TenantSpec::batch()).collect();
        let shapes: [Shape; 3] = [
            ("hot_read", &base, hot_read),
            ("mixed", &base, mixed),
            ("tenanted", &eight, tenanted),
        ];
        // Unmeasured: the other test thread starts up meanwhile and
        // parks on the lock before the first window opens.
        run_allocs(&base, &hot_read(&base, N));
        let allocations = shapes
            .map(|(name, cfg, trace)| {
                let short = run_allocs(cfg, &trace(cfg, N));
                (name, short, run_allocs(cfg, &trace(cfg, 2 * N)))
            })
            .to_vec();
        let stepped_bytes = shapes
            .map(|(name, cfg, trace)| {
                let short = stepped_bytes(cfg, &trace(cfg, N));
                (name, short, stepped_bytes(cfg, &trace(cfg, 2 * N)))
            })
            .to_vec();
        Measured {
            allocations,
            stepped_bytes,
        }
    })
}

#[test]
fn request_path_allocations_do_not_grow_with_requests() {
    let failures: Vec<String> = measured()
        .allocations
        .iter()
        .filter(|(_, short, long)| long.saturating_sub(*short) > SLACK)
        .map(|(name, short, long)| {
            format!(
                "{name}: {N} requests made {short} allocations, {} made {long} ({} more)",
                2 * N,
                long - short
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "allocations grow with requests:\n{}",
        failures.join("\n")
    );
}

#[test]
fn stepped_run_memory_does_not_grow_with_requests() {
    let failures: Vec<String> = measured()
        .stepped_bytes
        .iter()
        .filter(|(_, short, long)| long.saturating_sub(*short) > STEPPED_SLACK_BYTES)
        .map(|(name, short, long)| {
            format!(
                "{name}: a stepped run of {N} requests requested {short} bytes, {} requested \
                 {long} ({} more)",
                2 * N,
                long - short
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "stepped-run memory grows with requests:\n{}",
        failures.join("\n")
    );
}
