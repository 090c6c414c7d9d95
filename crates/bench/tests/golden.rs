//! Golden-snapshot regression suite.
//!
//! Runs every experiment spec at the quick scale and byte-compares the
//! `results/*.json` artifacts against the snapshots under
//! `tests/golden/`. Because the runner collects results in spec order,
//! the same spec must produce identical bytes at any thread count and
//! under any task completion order — both properties are asserted here.
//!
//! To regenerate the snapshots after an intentional simulator or spec
//! change:
//!
//! ```text
//! TRIPLEA_BLESS=1 cargo test -p triplea-bench --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use triplea_bench::harness::{
    bless_requested, compare_snapshot, obj, uint, ExecOrder, Experiment, Runner, Scale,
};
use triplea_bench::{experiments, overload_gap_ns};
use triplea_core::{Array, ManagementMode};
use triplea_workloads::Microbench;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs the full quick-scale suite; returns `(name, json, txt)` per
/// experiment.
fn run_suite(threads: usize, order: ExecOrder) -> Vec<(String, String, String)> {
    let suite = experiments::all(Scale::quick());
    let refs: Vec<&Experiment> = suite.iter().collect();
    let results = Runner::new()
        .threads(threads)
        .order(order)
        .run_suite(&refs, Scale::quick());
    suite
        .iter()
        .zip(&results)
        .map(|(e, r)| (e.name.to_string(), r.to_json(), e.render(r)))
        .collect()
}

/// The tentpole property, end to end on the real specs: one serial run
/// and one 8-thread run with a scrambled start order must produce
/// byte-identical artifacts, and those bytes must match the checked-in
/// snapshots (or regenerate them under `TRIPLEA_BLESS=1`).
#[test]
fn suite_matches_golden_snapshots_at_any_thread_count() {
    let serial = run_suite(1, ExecOrder::SpecOrder);
    let parallel = run_suite(8, ExecOrder::Scrambled(0xBEEF));
    for ((name_s, json_s, txt_s), (name_p, json_p, txt_p)) in serial.iter().zip(&parallel) {
        assert_eq!(name_s, name_p);
        assert_eq!(json_s, json_p, "{name_s}: 1-thread vs 8-thread JSON drift");
        assert_eq!(txt_s, txt_p, "{name_s}: 1-thread vs 8-thread text drift");
    }

    if bless_requested() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        for (name, json, _) in &serial {
            fs::write(golden_dir().join(format!("{name}.json")), json)
                .expect("write golden snapshot");
        }
        eprintln!("blessed {} golden snapshots", serial.len());
        return;
    }

    let mut failures = Vec::new();
    for (name, json, _) in &serial {
        let path = golden_dir().join(format!("{name}.json"));
        let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden snapshot {}; run TRIPLEA_BLESS=1 cargo test -p \
                 triplea-bench --test golden to create it",
                path.display()
            )
        });
        if let Err(msg) = compare_snapshot(name, &expected, json) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Differential determinism for the scenario catalog specifically: each
/// catalog scenario, run alone at 1 thread in spec order and at 8
/// threads with a scrambled start order, must produce byte-identical
/// artifacts that also match the checked-in golden snapshot. This is
/// the per-scenario version of the suite-wide test above — it fails
/// with the scenario's name, and it keeps holding even if a scenario is
/// later dropped from `experiments::all`.
#[test]
fn every_catalog_scenario_is_thread_count_invariant_and_golden() {
    let catalog = experiments::scenario::catalog(Scale::quick());
    assert_eq!(
        catalog.iter().map(|e| e.name).collect::<Vec<_>>(),
        experiments::scenario::NAMES,
        "catalog order must match the published NAMES list"
    );
    for exp in &catalog {
        let serial = Runner::new().threads(1).run(exp, Scale::quick()).to_json();
        for scramble in [0xBEEFu64, 0x5CE_A210] {
            let parallel = Runner::new()
                .threads(8)
                .order(ExecOrder::Scrambled(scramble))
                .run(exp, Scale::quick())
                .to_json();
            assert_eq!(
                serial, parallel,
                "{}: 1-thread vs 8-thread (scramble {scramble:#x}) artifact drift",
                exp.name
            );
        }
        if bless_requested() {
            continue; // the suite-wide test owns (re)writing snapshots
        }
        let path = golden_dir().join(format!("{}.json", exp.name));
        let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden snapshot {}; run TRIPLEA_BLESS=1 cargo test -p \
                 triplea-bench --test golden to create it",
                path.display()
            )
        });
        if let Err(msg) = compare_snapshot(exp.name, &expected, &serial) {
            panic!("{msg}");
        }
    }
}

/// A deliberately perturbed configuration must fail the snapshot
/// comparison with a readable diff naming the first divergent line.
#[test]
fn perturbed_config_fails_snapshot_with_readable_diff() {
    fn micro_artifact(rc_queue: usize) -> String {
        let mut e = Experiment::new("micro", "RC-queue micro check");
        e.point("hot=1", move |ctx| {
            let cfg = triplea_bench::bench_config_with(|c| c.pcie.rc_queue = rc_queue);
            let trace = Microbench::read()
                .hot_clusters(1)
                .requests(Scale::quick().requests)
                .gap_ns(overload_gap_ns(&cfg, 1))
                .build(&cfg, ctx.base_seed);
            let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
            obj([
                ("rc_queue", uint(rc_queue as u64)),
                ("completed", uint(report.completed())),
                ("events", uint(report.events_processed())),
            ])
        });
        Runner::new().threads(1).run(&e, Scale::quick()).to_json()
    }

    let golden = micro_artifact(800);
    let drifted = micro_artifact(650);
    assert!(compare_snapshot("micro", &golden, &golden).is_ok());

    let err = compare_snapshot("micro", &golden, &drifted).unwrap_err();
    assert!(
        err.contains("golden snapshot mismatch for \"micro\""),
        "missing header: {err}"
    );
    assert!(
        err.contains("first difference at line"),
        "missing line number: {err}"
    );
    assert!(
        err.contains("\n   - ") && err.contains("\n   + "),
        "missing -/+ context lines: {err}"
    );
    assert!(
        err.contains("- \"seed\"") || err.contains("rc_queue"),
        "diff context should show the divergent value: {err}"
    );
    assert!(err.contains("TRIPLEA_BLESS=1"), "missing bless hint: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Satellite property: runner output is a pure function of the
    /// spec — invariant under worker-thread count and task completion
    /// (start) order.
    #[test]
    fn runner_output_invariant_under_threads_and_order(
        threads in 1usize..9,
        scramble in 0u64..u64::MAX,
    ) {
        fn spec() -> Experiment {
            let mut e = Experiment::new("prop", "order/thread invariance");
            for i in 0..12u64 {
                e.point(format!("p{i}"), move |ctx| {
                    // Unequal work per point, so completion order genuinely
                    // differs from spec order on multiple threads.
                    let mut acc = ctx.seed;
                    for _ in 0..(i * 1_000) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(ctx.base_seed);
                    }
                    obj([("i", uint(i)), ("acc", uint(acc))])
                });
            }
            e
        }
        let reference = Runner::new().threads(1).run(&spec(), Scale::quick());
        let probe = Runner::new()
            .threads(threads)
            .order(ExecOrder::Scrambled(scramble))
            .run(&spec(), Scale::quick());
        prop_assert_eq!(&probe, &reference);
        prop_assert_eq!(probe.to_json(), reference.to_json());
    }
}
