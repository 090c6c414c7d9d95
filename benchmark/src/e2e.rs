//! The end-to-end run: set-up and `run_verified` repeated back to back
//! (a closed loop on the host) for the requested host time, after one
//! untimed warm-up rep. Every rep starts from a freshly built, empty-pool
//! array.
//!
//! A run replays [`VARIANTS`] inputs, each generated from its own seed
//! drawn from the run's seed, in rotation. Pooling their simulated
//! results keeps a run's numbers from hinging on one trace, and the host
//! time is the median over reps of all of them.
//!
//! Host times are scaled to a quiet machine. On a shared host the same
//! rep runs up to 2x slower while neighbours are busy, in spells of
//! seconds to minutes, and no statistic over one run's reps removes
//! that. A fixed kernel that shares no code with the simulator is timed
//! before the first rep and after every rep; each rep's set-up and run
//! times are multiplied by [`CALIBRATION_REF_S`] over the mean of the two
//! kernel times around it. The raw wall-clock median is printed beside.

use std::collections::BTreeMap;
use std::time::Instant;

use triplea_core::RunReport;
use triplea_sim::SplitMix64;

use crate::stats::{nearest_rank, quartiles};
use crate::workloads::prepare;
use crate::{audit, heap, Outcome};

/// Inputs one run replays.
pub const VARIANTS: usize = 8;

/// Time of [`Calibration::time`] on a quiet 2-vCPU Intel Xeon VM, the
/// machine the benchmark's reference numbers come from.
pub const CALIBRATION_REF_S: f64 = 0.071;

/// The calibration kernel: ordered-map inserts and range lookups, a sort,
/// and a pointer chase through a 32 MiB random cycle — branchy,
/// cache-missing work like the simulator's, sized like its working set.
pub struct Calibration {
    /// A single random cycle over its indices (Sattolo's shuffle).
    cycle: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0xCA11_B8A7E);
        let mut cycle: Vec<u32> = (0..8u32 << 20).collect();
        for i in (1..cycle.len()).rev() {
            let j = rng.next_below(i as u64) as usize;
            cycle.swap(i, j);
        }
        Calibration { cycle }
    }

    /// Host time of one pass, in seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut rng = SplitMix64::new(0xCA11_B8A7E);
        let mut map = BTreeMap::new();
        for i in 0..50_000u64 {
            map.insert(rng.next_u64(), i);
        }
        let mut acc = 0u64;
        for _ in 0..200_000 {
            if let Some((_, v)) = map.range(rng.next_u64()..).next() {
                acc = acc.wrapping_add(*v);
            }
        }
        let mut v: Vec<u64> = (0..250_000).map(|_| rng.next_u64() ^ acc).collect();
        v.sort_unstable();
        let mut at = v[0] as usize % self.cycle.len();
        for _ in 0..300_000 {
            at = self.cycle[at] as usize;
        }
        std::hint::black_box((v, at));
        t0.elapsed().as_secs_f64()
    }
}

/// The input seeds of a run with seed `seed`.
pub fn variant_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..VARIANTS).map(|_| rng.next_u64()).collect()
}

pub fn run(name: &str, seed: u64, seconds: f64, requests: usize) -> Outcome {
    let mut out = Outcome::new(name);
    let seeds = variant_seeds(seed);
    // Each variant's first report; later reps of it must equal it. The
    // warm-up replays variant 0, so every run checks at least one repeat.
    let mut reports: Vec<Option<RunReport>> = vec![None; VARIANTS];
    let warm = prepare(name, seeds[0], requests, false);
    let submitted = warm.trace.len() as u64;
    let first = warm.sim.run_verified(&warm.trace);
    out.check(audit(&first, submitted, None));
    reports[0] = Some(first.report);

    let kernel = Calibration::new();
    let mut calibration = vec![kernel.time()];
    let mut setup_s = Vec::new();
    let mut host_s = Vec::new();
    let mut peak_heap = 0;
    let mut lost = 0;
    let start = Instant::now();
    while host_s.len() < VARIANTS || start.elapsed().as_secs_f64() < seconds {
        let v = host_s.len() % VARIANTS;
        let live = heap::reset_peak();
        let p = prepare(name, seeds[v], requests, false);
        setup_s.push(p.setup().as_secs_f64());
        let t0 = Instant::now();
        let run = p.sim.run_verified(&p.trace);
        host_s.push(t0.elapsed().as_secs_f64());
        peak_heap = peak_heap.max(heap::peak_bytes() - live);
        drop(p.trace);
        let problems = audit(&run, submitted, reports[v].as_ref());
        let r = &run.report;
        lost += r.recovery_stats().lost_inflight_requests;
        out.attempted += submitted;
        out.failed += if problems.is_empty() {
            (r.fault_stats().unserviceable_reads + r.dropped_writes()).min(submitted)
        } else {
            submitted
        };
        out.check(problems);
        if reports[v].is_none() {
            reports[v] = Some(run.report);
        }
        calibration.push(kernel.time());
    }

    let reps = host_s.len();
    let scale: Vec<f64> = calibration
        .windows(2)
        .map(|w| CALIBRATION_REF_S * 2.0 / (w[0] + w[1]))
        .collect();
    let scaled = |xs: &[f64]| -> Vec<f64> { xs.iter().zip(&scale).map(|(x, s)| x * s).collect() };
    let (q1, med, q3) = quartiles(&scaled(&host_s));
    let kreq = |s: f64| submitted as f64 / s / 1e3;
    out.metric(
        "host_kreq_per_s",
        kreq(med),
        "kreq/s",
        &format!(
            "{submitted} requests / scaled median of {reps} reps over {VARIANTS} inputs; \
             quartiles {:.1}..{:.1}; wall-clock median {:.1}; calibration kernel at {:.3}x its reference time",
            kreq(q3),
            kreq(q1),
            kreq(quartiles(&host_s).1),
            1.0 / quartiles(&scale).1
        ),
    );
    let (sq1, smed, sq3) = quartiles(&scaled(&setup_s));
    out.metric(
        "setup_s",
        smed,
        "s",
        &format!(
            "scaled median of {reps} set-ups; quartiles {sq1:.5}..{sq3:.5}; wall-clock median {:.5}",
            quartiles(&setup_s).1
        ),
    );
    out.metric(
        "peak_heap_mb",
        peak_heap as f64 / (1 << 20) as f64,
        "MiB",
        "most heap one rep held above what was live before it",
    );
    let reports: Vec<RunReport> = reports.into_iter().flatten().collect();
    simulated(&mut out, &reports);
    let error_rate = (out.failed + lost) as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "error_rate {error_rate} fraction ({} failed + {lost} lost at the scripted power cut, of {})",
        out.failed, out.attempted
    ));
    out
}

/// The simulated array's results, pooled over the run's inputs. Latency
/// statistics are exact order statistics of the per-request series, not
/// the report histogram's bucket bounds.
fn simulated(out: &mut Outcome, reports: &[RunReport]) {
    let mut lat_us: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.series().points().iter().map(|&(_, us)| us))
        .collect();
    lat_us.sort_by(f64::total_cmp);
    let completed: u64 = reports.iter().map(RunReport::completed).sum();
    let makespan_s: f64 = reports.iter().map(|r| r.makespan().as_secs_f64()).sum();
    let mean = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    let p999 = nearest_rank(&lat_us, 0.999);
    let beyond = lat_us.iter().filter(|&&v| v > p999).count();
    out.metric(
        "sim_kiops",
        completed as f64 / makespan_s / 1e3,
        "kIOPS",
        &format!(
            "{completed} completed over {:.3} simulated ms, {} inputs",
            makespan_s * 1e3,
            reports.len()
        ),
    );
    out.metric(
        "sim_mean_us",
        mean,
        "sim_us",
        &format!(
            "p50 {} p99 {}",
            nearest_rank(&lat_us, 0.5),
            nearest_rank(&lat_us, 0.99)
        ),
    );
    out.metric(
        "sim_p999_us",
        p999,
        "sim_us",
        &format!("{beyond} samples beyond it"),
    );
    let digest = reports
        .iter()
        .fold(0u64, |h, r| h.rotate_left(5) ^ crate::digest(r));
    out.note(format!("sim.report_digest {digest:016x}"));
}
