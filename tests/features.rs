//! Integration tests for the extension features: Zipfian/bursty
//! workloads, the mapping cache, and flash generations — all
//! exercised through the public facade.

use triple_a::core::{Array, ArrayConfig, ManagementMode};
use triple_a::flash::FlashTiming;
use triple_a::workloads::Microbench;

fn small() -> ArrayConfig {
    ArrayConfig::small_test()
}

/// Validated variant of [`small`] for tests that tweak fields: routes
/// the edit through the cross-field-checking builder.
fn small_with(f: impl FnOnce(&mut ArrayConfig)) -> ArrayConfig {
    ArrayConfig::small_builder()
        .tune(f)
        .build()
        .expect("test configuration validates")
}

#[test]
fn zipf_skew_concentrates_and_still_completes() {
    let cfg = small();
    let trace = Microbench::read()
        .hot_clusters(2)
        .zipf(0.99)
        .requests(8_000)
        .gap_ns(1_400)
        .build(&cfg, 22);
    let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
    assert_eq!(report.completed(), 8_000);
    // The autonomic layer should still relieve the (zipf-shaped) hot load.
    assert!(report.autonomic_stats().migrations_started > 0);
}

#[test]
fn bursty_arrivals_run_and_idle_gaps_show_up() {
    let cfg = small();
    let trace = Microbench::write()
        .hot_clusters(1)
        .bursty(500_000, 2_000_000)
        .gap_ns(2_000)
        .requests(2_000)
        .build(&cfg, 23);
    let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
    assert_eq!(report.completed(), 2_000);
    // Eight-ish bursts of 250 requests: the makespan must include the
    // OFF windows.
    assert!(report.makespan().as_ms_f64() > 10.0);
}

#[test]
fn mlc_and_slc_generations_both_run_autonomic() {
    for timing in [FlashTiming::default(), FlashTiming::mlc()] {
        let cfg = small_with(|c| c.flash_timing = timing);
        let trace = Microbench::read()
            .hot_clusters(1)
            .requests(5_000)
            .gap_ns(1_600)
            .build(&cfg, 25);
        let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
        assert_eq!(report.completed(), 5_000);
    }
}

#[test]
fn mapping_cache_hit_rate_reported_through_ftl() {
    let cfg = small_with(|c| c.mapping_cache_pages = 64);
    let trace = Microbench::read()
        .hot_clusters(1)
        .region_pages(256)
        .requests(4_000)
        .gap_ns(2_000)
        .build(&cfg, 26);
    let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
    assert_eq!(report.completed(), 4_000);
    // A 256-page hot region spans a single translation page: after the
    // cold miss, essentially everything hits, so the run is barely
    // slower than the free-map baseline.
    let free_map = Array::new(small(), ManagementMode::NonAutonomic).run(&trace);
    assert!(report.mean_latency_us() < free_map.mean_latency_us() * 1.25);
}
