//! `timeline`: one fully traced run per management mode, exported three
//! ways from the same recorder harvest — the structured event/metric
//! artifact (`results/timeline.json`), a Chrome `trace_event` file for
//! chrome://tracing / Perfetto (`results/timeline.trace.json`), and a
//! terminal-friendly timeline excerpt in the `.txt` report.
//!
//! The recorder's ring keeps the last [`RING_EVENTS`] events, so the
//! artifact shows the *steady-state* tail of the run — bus slices, link
//! transmissions, die reservations, and (in autonomic mode) detector
//! samples and migration traffic interleaved on their real timestamps.

use crate::harness::{jf, js, obj, report_json, text, uint, Experiment, Scale};
use crate::{bench_config, f1, overload_gap_ns};
use serde_json::Value;
use triplea_core::{Array, ManagementMode, Metric, TraceConfig};
use triplea_workloads::Microbench;

/// Recorder ring capacity: small enough that the embedded Chrome trace
/// stays a readable artifact, large enough to span several request
/// lifecycles across the hot clusters.
const RING_EVENTS: usize = 512;

/// Object pairs of `v`, empty for non-objects (the vendored
/// `serde_json::Value` keeps objects insertion-ordered).
fn pairs(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(p) => p,
        _ => &[],
    }
}

fn metric_value(m: &Metric) -> Value {
    match m {
        Metric::Counter(c) => uint(*c),
        Metric::Gauge(g) => Value::F64(*g),
        Metric::Summary {
            count,
            mean_ns,
            p50_ns,
            p99_ns,
            max_ns,
        } => obj([
            ("count", uint(*count)),
            ("mean_ns", Value::F64(*mean_ns)),
            ("p50_ns", uint(*p50_ns)),
            ("p99_ns", uint(*p99_ns)),
            ("max_ns", uint(*max_ns)),
        ]),
        // Full series points already live in the embedded trace JSON;
        // the artifact summary only records how many were kept.
        Metric::Series(pts) => uint(pts.len() as u64),
    }
}

/// Runs one traced replay and packages the harvest. The heavyweight
/// exports (Chrome trace, trace JSON, text excerpt) are only embedded
/// for the autonomic point, which is the one the artifact files render.
fn traced_run(mode: ManagementMode, requests: usize, seed: u64, full_exports: bool) -> Value {
    let cfg = bench_config();
    let trace = Microbench::read()
        .hot_clusters(2)
        .requests(requests)
        .gap_ns(overload_gap_ns(&cfg, 2))
        .build(&cfg, seed);
    let run = Array::builder()
        .config(cfg)
        .mode(mode)
        .with_recorder(TraceConfig::all().with_capacity(RING_EVENTS))
        .build()
        .expect("bench baseline is a valid configuration")
        .run_verified(&trace);
    run.integrity.expect("FTL integrity violated in traced run");
    let rt = run.trace.expect("recorder attached");

    let counts = Value::Object(
        rt.counts_by_kind()
            .into_iter()
            .map(|(k, n)| (k.to_string(), uint(n)))
            .collect(),
    );
    let metrics = Value::Object(
        rt.metrics
            .sorted()
            .into_iter()
            .map(|(name, m)| (name.to_string(), metric_value(m)))
            .collect(),
    );
    let mut fields = vec![
        ("report".to_string(), report_json(&run.report)),
        ("events_total".to_string(), uint(rt.total)),
        ("events_dropped".to_string(), uint(rt.dropped)),
        ("events_retained".to_string(), uint(rt.events.len() as u64)),
        ("counts".to_string(), counts),
        ("metrics".to_string(), metrics),
    ];
    if full_exports {
        fields.push(("timeline".to_string(), text(&rt.render_text(32))));
        fields.push(("trace_json".to_string(), text(&rt.to_json())));
        fields.push(("chrome".to_string(), text(&rt.chrome_trace())));
    }
    Value::Object(fields)
}

/// Builds the `timeline` experiment: both management modes traced on the
/// 2-hot-cluster overload, Chrome trace emitted as an extra artifact.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "timeline",
        "Traced run: event timeline, per-component metrics, Chrome trace",
    );
    let requests = scale.requests;
    e.point("base", move |ctx| {
        traced_run(ManagementMode::NonAutonomic, requests, ctx.base_seed, false)
    });
    e.point("aaa", move |ctx| {
        traced_run(ManagementMode::Autonomic, requests, ctx.base_seed, true)
    });
    e.artifact("trace.json", |res| js(res.data("aaa"), "chrome"));
    e.renderer(|res| {
        let base = res.data("base");
        let aaa = res.data("aaa");
        let mut out = String::new();

        // Union of event kinds, autonomic order first (it is a
        // superset in practice: migration/detector kinds are
        // autonomic-only).
        let mut kinds: Vec<&str> = pairs(&aaa["counts"])
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for (k, _) in pairs(&base["counts"]) {
            if !kinds.contains(&k.as_str()) {
                kinds.push(k);
            }
        }
        let count = |d: &Value, k: &str| match d["counts"].get(k) {
            Some(v) => v.as_u64().unwrap_or(0).to_string(),
            None => "-".to_string(),
        };
        let rows: Vec<Vec<String>> = kinds
            .iter()
            .map(|k| vec![k.to_string(), count(base, k), count(aaa, k)])
            .collect();
        out.push_str(&crate::harness::fmt_table(
            &format!(
                "Event counts over the last {} recorded events (read-heavy, 2 hot clusters)",
                RING_EVENTS
            ),
            &["Kind", "Base", "AAA"],
            &rows,
        ));

        // A cluster is shown only if it served traffic — half the 4×16
        // array idles in this workload and would bury the table.
        let served = |cluster: &str| {
            aaa["metrics"]
                .get(&format!("cluster.{cluster}.served"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        let mut rows = Vec::new();
        for (name, v) in pairs(&aaa["metrics"]) {
            if let Some(rest) = name.strip_prefix("cluster.") {
                let cluster = rest.split('.').next().unwrap_or("");
                if served(cluster) == 0 {
                    continue;
                }
            }
            let rendered = match v {
                Value::Object(_) => format!(
                    "n={} mean={} us p50={} p99={} max={}",
                    v.get("count").and_then(|c| c.as_u64()).unwrap_or(0),
                    f1(jf(v, "mean_ns") / 1_000.0),
                    f1(jf(v, "p50_ns") / 1_000.0),
                    f1(jf(v, "p99_ns") / 1_000.0),
                    f1(jf(v, "max_ns") / 1_000.0),
                ),
                Value::F64(g) => format!("{g:.3}"),
                other => other.as_u64().unwrap_or(0).to_string(),
            };
            // Series entries only carry their retained length; skip the
            // per-FIMM queue-depth lanes to keep the table readable.
            if !name.ends_with("queue_depth") {
                rows.push(vec![name.clone(), rendered]);
            }
        }
        out.push('\n');
        out.push_str(&crate::harness::fmt_table(
            "Autonomic-run instruments (hierarchical metric registry)",
            &["Metric", "Value"],
            &rows,
        ));

        out.push_str("\n## Timeline excerpt (autonomic run)\n\n```\n");
        out.push_str(&js(aaa, "timeline"));
        out.push_str("```\n");
        out.push_str(
            "\nfull event stream: results/timeline.trace.json — load it in\n\
             chrome://tracing or https://ui.perfetto.dev (one process lane per\n\
             cluster, one thread lane per FIMM; durations are bus/link/flash\n\
             reservations, instants are detector and migration events).\n",
        );
        out
    });
    e
}
