//! Property tests over the measurement instruments: merge equivalence,
//! percentile monotonicity, and windowed-utilization bounds.

use proptest::prelude::*;

use triplea_sim::stats::{Histogram, UtilizationTracker};
use triplea_sim::SimTime;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Merging two histograms is indistinguishable from recording the
    /// interleaved stream into one.
    #[test]
    fn merge_equals_interleaved_recording(
        xs in proptest::collection::vec(0u64..10_000_000, 0..64),
        ys in proptest::collection::vec(0u64..10_000_000, 0..64),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for (i, &v) in xs.iter().enumerate() {
            a.record(v);
            both.record(v);
            // Interleave: alternate streams where lengths allow.
            if let Some(&w) = ys.get(i) {
                b.record(w);
                both.record(w);
            }
        }
        for &w in ys.iter().skip(xs.len()) {
            b.record(w);
            both.record(w);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), both.count());
        prop_assert_eq!(a.max(), both.max());
        prop_assert_eq!(a.min(), both.min());
        prop_assert!((a.mean() - both.mean()).abs() < 1e-9);
        for p in [0u64, 25, 50, 90, 99, 100] {
            let p = p as f64 / 100.0;
            prop_assert_eq!(a.percentile(p), both.percentile(p));
        }
        prop_assert_eq!(a.cdf_points(), both.cdf_points());
    }

    /// Percentiles are monotone in `p`, bounded by `[min, max]`, and the
    /// top quantile is exactly the maximum.
    #[test]
    fn percentiles_monotone_in_p(
        xs in proptest::collection::vec(0u64..100_000_000, 1..128),
        cut in 1u64..100,
    ) {
        let mut h = Histogram::new();
        for &v in &xs {
            h.record(v);
        }
        let lo = h.percentile(cut as f64 / 200.0);
        let hi = h.percentile(cut as f64 / 100.0);
        prop_assert!(lo <= hi, "p is not monotone: {lo} > {hi}");
        prop_assert!(h.percentile(0.0) >= h.min());
        prop_assert_eq!(h.percentile(1.0), h.max());
        // Upper-bound contract: every percentile is >= the true
        // quantile of the recorded stream.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * cut as f64 / 100.0).ceil() as usize)
            .clamp(1, sorted.len());
        prop_assert!(
            hi >= sorted[rank - 1],
            "percentile({}) = {} understates true quantile {}",
            cut as f64 / 100.0,
            hi,
            sorted[rank - 1]
        );
    }

    /// Windowed utilization stays within [0, 1] under arbitrary busy
    /// intervals and probe instants.
    #[test]
    fn windowed_utilization_bounded(
        window in 1u64..1_000_000,
        intervals in proptest::collection::vec((0u64..10_000_000, 0u64..5_000_000), 0..32),
        probes in proptest::collection::vec(0u64..20_000_000, 1..16),
    ) {
        let mut m = UtilizationTracker::with_window(window);
        // add_busy expects non-decreasing-ish starts in practice; feed
        // sorted starts like the simulator's FIFO reservations do.
        let mut sorted = intervals.clone();
        sorted.sort_unstable();
        for &(start, dur) in &sorted {
            m.add_busy(SimTime::from_nanos(start), dur);
        }
        for &t in &probes {
            let u = m.windowed_utilization(SimTime::from_nanos(t));
            prop_assert!((0.0..=1.0).contains(&u), "u = {u} out of [0,1]");
            let c = m.utilization(SimTime::from_nanos(t));
            prop_assert!((0.0..=1.0).contains(&c), "cumulative {c} out of [0,1]");
        }
    }
}
