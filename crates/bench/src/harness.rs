//! The `triplea-harness` layer: declarative experiment specs, a
//! rayon-backed parallel runner, structured JSON artifacts, and the
//! golden-snapshot machinery.
//!
//! An [`Experiment`] is a named list of independent [sweep
//! points](SweepPoint); each point is a pure function from a
//! [`PointCtx`] (which carries the centrally derived seeds) to a
//! [`serde_json::Value`] holding everything the experiment measured at
//! that point. The [`Runner`] executes points across worker threads and
//! collects results **in spec order**, so the same spec produces
//! byte-identical artifacts at any thread count — a property
//! `tests/golden.rs` pins down at 1, 2, and 8 threads.
//!
//! Each experiment renders twice from the same data:
//!
//! * `results/<name>.json` — the structured artifact, the thing the
//!   golden suite byte-compares;
//! * `results/<name>.txt` — the human-readable tables, derived *from
//!   the artifact* by the experiment's renderer, so text and JSON can
//!   never drift apart.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rayon::prelude::*;
use serde_json::Value;

/// How much traffic each experiment drives.
///
/// The full scale reproduces the paper's evaluation; the quick scale is
/// the golden-snapshot suite's working size (same sweep structure, ~50×
/// less traffic, seconds instead of minutes under `cargo test`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Baseline request count (the old `REQUESTS` constant); individual
    /// experiments multiply or divide this per sweep point.
    pub requests: usize,
}

impl Scale {
    /// Paper scale: 100 k requests per run.
    pub fn full() -> Self {
        Scale {
            requests: crate::REQUESTS,
        }
    }

    /// Golden-snapshot scale: 1 k requests per run.
    pub fn quick() -> Self {
        Scale { requests: 1_000 }
    }

    /// Parses `"full"` / `"quick"`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Scale::full()),
            "quick" => Some(Scale::quick()),
            _ => None,
        }
    }
}

/// Seed stream shared by every point of one experiment (FNV-1a over the
/// experiment name, finalized SplitMix-style).
///
/// Sweep experiments use this for trace generation so every row of a
/// sensitivity sweep sees the *same* workload and only the swept
/// parameter varies.
pub fn experiment_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix(h)
}

/// Per-point seed: the experiment stream advanced by the sweep index.
/// Appending a sweep point never reshuffles the seeds of existing
/// points.
pub fn point_seed(name: &str, index: usize) -> u64 {
    mix(experiment_seed(name) ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a sweep point's closure receives from the harness.
#[derive(Clone, Copy, Debug)]
pub struct PointCtx {
    /// This point's private seed (`point_seed(name, index)`).
    pub seed: u64,
    /// The experiment-wide seed (`experiment_seed(name)`), for traces
    /// that must be identical across sweep points.
    pub base_seed: u64,
    /// Position of this point in the spec.
    pub index: usize,
}

type PointFn = Box<dyn Fn(&PointCtx) -> Value + Send + Sync>;
type RenderFn = Box<dyn Fn(&ExperimentResult) -> String + Send + Sync>;
type ArtifactFn = Box<dyn Fn(&ExperimentResult) -> String + Send + Sync>;

/// One independent simulation (or analysis) run within an experiment.
pub struct SweepPoint {
    /// Stable identifier of the point (also the key in rendered rows).
    pub label: String,
    run: PointFn,
}

/// A declarative experiment: name, sweep points, renderer.
pub struct Experiment {
    /// Artifact stem (`results/<name>.json` / `.txt`).
    pub name: &'static str,
    /// Human-readable experiment title.
    pub title: &'static str,
    points: Vec<SweepPoint>,
    renderer: RenderFn,
    extra: Vec<(String, ArtifactFn)>,
}

impl Experiment {
    /// Creates an empty experiment with a JSON-dump renderer.
    pub fn new(name: &'static str, title: &'static str) -> Self {
        Experiment {
            name,
            title,
            points: Vec::new(),
            renderer: Box::new(|res| format!("## {}\n\n(no renderer)\n", res.title)),
            extra: Vec::new(),
        }
    }

    /// Appends a sweep point. Points execute in parallel but report in
    /// this order.
    pub fn point(
        &mut self,
        label: impl Into<String>,
        run: impl Fn(&PointCtx) -> Value + Send + Sync + 'static,
    ) -> &mut Self {
        self.points.push(SweepPoint {
            label: label.into(),
            run: Box::new(run),
        });
        self
    }

    /// Sets the renderer deriving the human-readable text from the
    /// collected results.
    pub fn renderer(
        &mut self,
        render: impl Fn(&ExperimentResult) -> String + Send + Sync + 'static,
    ) -> &mut Self {
        self.renderer = Box::new(render);
        self
    }

    /// Registers an extra derived artifact `results/<name>.<suffix>`.
    ///
    /// Like the `.txt` report, it is a pure function of the collected
    /// results, so it inherits their byte-determinism — the `timeline`
    /// experiment uses this to emit its Chrome `trace_event` file.
    pub fn artifact(
        &mut self,
        suffix: impl Into<String>,
        derive: impl Fn(&ExperimentResult) -> String + Send + Sync + 'static,
    ) -> &mut Self {
        self.extra.push((suffix.into(), Box::new(derive)));
        self
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the experiment has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the human-readable report from a result.
    pub fn render(&self, result: &ExperimentResult) -> String {
        (self.renderer)(result)
    }

    fn ctx(&self, index: usize) -> PointCtx {
        PointCtx {
            seed: point_seed(self.name, index),
            base_seed: experiment_seed(self.name),
            index,
        }
    }
}

/// The measured data of one sweep point.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PointResult {
    /// The point's label, copied from the spec.
    pub label: String,
    /// The seed the point ran with.
    pub seed: u64,
    /// Everything the point measured.
    pub data: Value,
}

/// All results of one experiment, in spec order.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentResult {
    /// Experiment name (artifact stem).
    pub name: String,
    /// Experiment title.
    pub title: String,
    /// Baseline request count the experiment ran at.
    pub requests: usize,
    /// Per-point results, in spec order regardless of completion order.
    pub points: Vec<PointResult>,
}

impl ExperimentResult {
    /// The structured artifact as deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("experiment results are finite")
    }

    /// Data of the point labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics when no point carries the label — a spec/renderer
    /// mismatch, which should fail loudly.
    pub fn data(&self, label: &str) -> &Value {
        &self
            .points
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("no sweep point labelled {label:?} in {}", self.name))
            .data
    }

    /// Iterates `(label, data)` pairs whose label starts with `prefix`,
    /// in spec order — how sectioned experiments (e.g. `faults`) slice
    /// their rows.
    pub fn section<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Value)> + 'a {
        self.points
            .iter()
            .filter(move |p| p.label.starts_with(prefix))
            .map(|p| (p.label.as_str(), &p.data))
    }
}

/// In which order the runner *starts* sweep points. Results are always
/// collected in spec order; this knob exists so the determinism tests
/// can prove completion order does not matter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecOrder {
    /// Start points in spec order (the default).
    #[default]
    SpecOrder,
    /// Start points in a seed-derived pseudo-random order.
    Scrambled(u64),
}

/// Executes experiments across worker threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Runner {
    threads: usize,
    order: ExecOrder,
}

impl Runner {
    /// A runner using the environment's thread count
    /// (`RAYON_NUM_THREADS`, else all available cores).
    pub fn new() -> Self {
        Runner::default()
    }

    /// Pins the worker-thread count (`0` = environment-derived).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the execution order (see [`ExecOrder`]).
    pub fn order(mut self, order: ExecOrder) -> Self {
        self.order = order;
        self
    }

    /// The worker-thread count this runner will use.
    pub fn thread_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            rayon::current_num_threads()
        }
    }

    /// Runs one experiment; results come back in spec order.
    pub fn run(&self, exp: &Experiment, scale: Scale) -> ExperimentResult {
        let mut results = self.run_suite(&[exp], scale);
        results.pop().expect("one experiment in, one result out")
    }

    /// Runs a whole suite, parallelizing across **all** points of all
    /// experiments (so a wide experiment cannot serialize a narrow one
    /// behind it). Results come back in suite order, each experiment's
    /// points in spec order.
    pub fn run_suite(&self, exps: &[&Experiment], scale: Scale) -> Vec<ExperimentResult> {
        // Flatten to (experiment, point) tasks.
        let tasks: Vec<(usize, usize)> = exps
            .iter()
            .enumerate()
            .flat_map(|(e, exp)| (0..exp.points.len()).map(move |p| (e, p)))
            .collect();
        let order = match self.order {
            ExecOrder::SpecOrder => (0..tasks.len()).collect::<Vec<_>>(),
            ExecOrder::Scrambled(seed) => permutation(tasks.len(), seed),
        };

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("thread pool");
        let mut done: Vec<(usize, PointResult)> = pool.install(|| {
            order
                .par_iter()
                .map(|&task_idx| {
                    let (e, p) = tasks[task_idx];
                    let exp = exps[e];
                    let ctx = exp.ctx(p);
                    let data = (exp.points[p].run)(&ctx);
                    (
                        task_idx,
                        PointResult {
                            label: exp.points[p].label.clone(),
                            seed: ctx.seed,
                            data,
                        },
                    )
                })
                .collect()
        });
        // Completion order is arbitrary; spec order is not.
        done.sort_by_key(|(task_idx, _)| *task_idx);

        let mut out: Vec<ExperimentResult> = exps
            .iter()
            .map(|exp| ExperimentResult {
                name: exp.name.to_string(),
                title: exp.title.to_string(),
                requests: scale.requests,
                points: Vec::with_capacity(exp.points.len()),
            })
            .collect();
        for (task_idx, point) in done {
            let (e, _) = tasks[task_idx];
            out[e].points.push(point);
        }
        out
    }
}

/// Fisher–Yates permutation of `0..n` from a SplitMix stream.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Writes `results/<name>.json`, the renderer-derived
/// `results/<name>.txt`, and any registered extra artifacts
/// (`results/<name>.<suffix>`); returns the paths in that order.
pub fn write_artifacts(
    exp: &Experiment,
    result: &ExperimentResult,
    out_dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let json_path = out_dir.join(format!("{}.json", exp.name));
    let txt_path = out_dir.join(format!("{}.txt", exp.name));
    std::fs::write(&json_path, result.to_json())?;
    std::fs::write(&txt_path, exp.render(result))?;
    let mut paths = vec![json_path, txt_path];
    for (suffix, derive) in &exp.extra {
        let path = out_dir.join(format!("{}.{suffix}", exp.name));
        std::fs::write(&path, derive(result))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Compares an artifact against its golden snapshot, reporting the
/// first divergence with surrounding context — the message the golden
/// suite surfaces on regression.
pub fn compare_snapshot(name: &str, expected: &str, actual: &str) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    let first = exp_lines
        .iter()
        .zip(&act_lines)
        .position(|(e, a)| e != a)
        .unwrap_or(exp_lines.len().min(act_lines.len()));
    let mut msg = format!(
        "golden snapshot mismatch for {name:?}: first difference at line {}\n",
        first + 1
    );
    let start = first.saturating_sub(2);
    for i in start..(first + 3) {
        match (exp_lines.get(i), act_lines.get(i)) {
            (Some(e), Some(a)) if e == a => {
                let _ = writeln!(msg, "     {e}");
            }
            (e, a) => {
                if let Some(e) = e {
                    let _ = writeln!(msg, "   - {e}");
                }
                if let Some(a) = a {
                    let _ = writeln!(msg, "   + {a}");
                }
            }
        }
    }
    let _ = writeln!(
        msg,
        "  ({} golden lines, {} actual lines; set TRIPLEA_BLESS=1 to re-bless)",
        exp_lines.len(),
        act_lines.len()
    );
    Err(msg)
}

/// `true` when the test run should regenerate golden snapshots
/// (`TRIPLEA_BLESS=1`).
pub fn bless_requested() -> bool {
    std::env::var("TRIPLEA_BLESS").map(|v| v == "1").unwrap_or(false)
}

// ---------------------------------------------------------------------
// Value plumbing shared by the experiment specs and renderers.
// ---------------------------------------------------------------------

/// Builds an insertion-ordered JSON object.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Vec of values → JSON array.
pub fn arr(items: Vec<Value>) -> Value {
    Value::Array(items)
}

/// bool → JSON bool.
pub fn flag(b: bool) -> Value {
    Value::Bool(b)
}

/// f64 → JSON number.
pub fn num(x: f64) -> Value {
    Value::F64(x)
}

/// u64 → JSON number.
pub fn uint(x: u64) -> Value {
    Value::U64(x)
}

/// &str → JSON string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Dotted-path f64 accessor (`jf(&data, "aaa.iops")`); 0.0 when absent.
pub fn jf(v: &Value, path: &str) -> f64 {
    walk(v, path).as_f64().unwrap_or(0.0)
}

/// Dotted-path u64 accessor; 0 when absent.
pub fn ju(v: &Value, path: &str) -> u64 {
    walk(v, path).as_u64().unwrap_or(0)
}

/// Dotted-path string accessor; `""` when absent.
pub fn js(v: &Value, path: &str) -> String {
    walk(v, path).as_str().unwrap_or_default().to_string()
}

fn walk<'a>(v: &'a Value, path: &str) -> &'a Value {
    let mut cur = v;
    for seg in path.split('.') {
        cur = &cur[seg];
    }
    cur
}

/// The standard per-run summary every experiment embeds: the derived
/// metrics the paper's tables and figures are built from, plus the raw
/// activity counters. Deliberately *not* the full
/// [`RunReport`](triplea_core::RunReport) (whose
/// histograms would bloat artifacts); renderers read these values back
/// with [`jf`]/[`ju`].
pub fn report_json(r: &triplea_core::RunReport) -> Value {
    let mut v = obj([
        ("mode", text(&r.mode().to_string())),
        ("completed", uint(r.completed())),
        ("reads", uint(r.reads())),
        ("writes", uint(r.writes())),
        ("makespan_ns", uint(r.makespan().as_nanos())),
        ("iops", num(r.iops())),
        ("mean_latency_us", num(r.mean_latency_us())),
        ("p50_us", num(r.latency_percentile_us(0.5))),
        ("p99_us", num(r.latency_percentile_us(0.99))),
        ("link_contention_us", num(r.avg_link_contention_us())),
        ("storage_contention_us", num(r.avg_storage_contention_us())),
        ("queue_stall_us", num(r.avg_queue_stall_us())),
        ("rc_stall_us", num(r.avg_rc_stall_us())),
        ("switch_stall_us", num(r.avg_switch_stall_us())),
        ("direct_link_us", num(r.avg_direct_link_wait_us())),
        ("direct_storage_us", num(r.avg_direct_storage_wait_us())),
        ("fimm_service_us", num(r.avg_fimm_service_us())),
        ("network_us", num(r.avg_network_us())),
        ("dropped_writes", uint(r.dropped_writes())),
        ("migration_write_overhead", num(r.migration_write_overhead())),
        ("autonomic", serde_json::to_value(r.autonomic_stats())),
        ("ftl", serde_json::to_value(&r.ftl_stats())),
        ("wear", serde_json::to_value(&r.wear())),
        ("faults", serde_json::to_value(&r.fault_stats())),
        ("events", uint(r.events_processed())),
    ]);
    // Runs without power losses or rebuilds keep the pre-recovery
    // artifact shape, so quiet goldens stay byte-stable.
    let rec = r.recovery_stats();
    if rec.any() {
        if let Value::Object(fields) = &mut v {
            fields.push(("recovery".to_string(), serde_json::to_value(&rec)));
        }
    }
    // Untenanted runs likewise keep the pre-tenant artifact shape.
    let tenants = r.tenant_stats();
    if !tenants.is_empty() {
        if let Value::Object(fields) = &mut v {
            fields.push((
                "sla_violations".to_string(),
                uint(r.sla_violations()),
            ));
            fields.push(("tenants".to_string(), serde_json::to_value(&tenants.to_vec())));
        }
    }
    v
}

/// Formats a Markdown table (the string [`crate::print_table`] prints).
pub fn fmt_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("\n## {title}\n\n");
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Formats `(x, y, ...)` series as CSV with a comment header (the
/// string [`crate::print_csv_series`] prints).
pub fn fmt_csv_series(name: &str, columns: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = format!("\n# {name}\n");
    let _ = writeln!(out, "{}", columns.join(","));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Experiment {
        let mut e = Experiment::new("toy", "Toy experiment");
        for i in 0..6u64 {
            e.point(format!("p{i}"), move |ctx| {
                obj([
                    ("i", uint(i)),
                    ("seed", uint(ctx.seed)),
                    ("base", uint(ctx.base_seed)),
                ])
            });
        }
        e.renderer(|res| {
            let rows: Vec<Vec<String>> = res
                .points
                .iter()
                .map(|p| vec![p.label.clone(), ju(&p.data, "i").to_string()])
                .collect();
            fmt_table(&res.title, &["point", "i"], &rows)
        });
        e
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(experiment_seed("fig09"), experiment_seed("fig09"));
        assert_ne!(experiment_seed("fig09"), experiment_seed("fig10"));
        assert_ne!(point_seed("fig09", 0), point_seed("fig09", 1));
        // Appending a point never changes earlier seeds: seeds depend
        // only on (name, index).
        let before: Vec<u64> = (0..4).map(|i| point_seed("x", i)).collect();
        let after: Vec<u64> = (0..5).map(|i| point_seed("x", i)).collect();
        assert_eq!(before, after[..4]);
    }

    #[test]
    fn runner_collects_in_spec_order_at_any_thread_count() {
        let e = toy();
        let scale = Scale::quick();
        let one = Runner::new().threads(1).run(&e, scale);
        for threads in [2, 8] {
            let multi = Runner::new().threads(threads).run(&e, scale);
            assert_eq!(multi, one, "threads={threads}");
            assert_eq!(multi.to_json(), one.to_json());
        }
        let labels: Vec<&str> = one.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["p0", "p1", "p2", "p3", "p4", "p5"]);
    }

    #[test]
    fn scrambled_start_order_changes_nothing() {
        let e = toy();
        let spec = Runner::new().threads(2).run(&e, Scale::quick());
        for seed in [1u64, 0xDEAD, 42] {
            let scrambled = Runner::new()
                .threads(2)
                .order(ExecOrder::Scrambled(seed))
                .run(&e, Scale::quick());
            assert_eq!(scrambled, spec, "scramble seed {seed}");
        }
    }

    #[test]
    fn suite_flattens_across_experiments() {
        let a = toy();
        let mut b = Experiment::new("toy2", "Second");
        b.point("only", |ctx| obj([("seed", uint(ctx.seed))]));
        let results = Runner::new().threads(4).run_suite(&[&a, &b], Scale::quick());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].points.len(), 6);
        assert_eq!(results[1].points.len(), 1);
        assert_eq!(results[1].name, "toy2");
        // Per-experiment seeds differ even at equal indices.
        assert_ne!(results[0].points[0].seed, results[1].points[0].seed);
    }

    #[test]
    fn render_derives_from_artifact_data() {
        let e = toy();
        let res = Runner::new().threads(1).run(&e, Scale::quick());
        let txt = e.render(&res);
        assert!(txt.contains("## Toy experiment"));
        assert!(txt.contains("| p3 | 3 |"));
    }

    #[test]
    fn snapshot_compare_reports_first_divergence() {
        let good = "line1\nline2\nline3\n";
        assert!(compare_snapshot("x", good, good).is_ok());
        let bad = "line1\nlineX\nline3\n";
        let err = compare_snapshot("x", good, bad).unwrap_err();
        assert!(err.contains("first difference at line 2"), "{err}");
        assert!(err.contains("- line2"), "{err}");
        assert!(err.contains("+ lineX"), "{err}");
        assert!(err.contains("TRIPLEA_BLESS=1"), "{err}");
    }

    #[test]
    fn experiment_result_lookup_and_sections() {
        let mut e = Experiment::new("sec", "Sections");
        e.point("flash/none", |_| obj([("v", uint(1))]));
        e.point("flash/heavy", |_| obj([("v", uint(2))]));
        e.point("pcie/none", |_| obj([("v", uint(3))]));
        let res = Runner::new().threads(1).run(&e, Scale::quick());
        assert_eq!(ju(res.data("flash/heavy"), "v"), 2);
        let flash: Vec<&str> = res.section("flash/").map(|(l, _)| l).collect();
        assert_eq!(flash, ["flash/none", "flash/heavy"]);
    }

    #[test]
    fn dotted_path_accessors() {
        let v = obj([(
            "base",
            obj([("iops", num(1.5)), ("mode", text("triple-a"))]),
        )]);
        assert_eq!(jf(&v, "base.iops"), 1.5);
        assert_eq!(js(&v, "base.mode"), "triple-a");
        assert_eq!(jf(&v, "missing.path"), 0.0);
        assert_eq!(ju(&v, "missing"), 0);
    }
}
