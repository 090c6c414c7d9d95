//! [`ArrayBuilder`]: the validated way to assemble an [`Array`].

use triplea_sim::trace::TraceConfig;

use super::Array;
use crate::config::{ArrayConfig, ArrayConfigBuilder, ConfigError, ManagementMode};

/// Builder for [`Array`], reached through [`Array::builder`]: the only
/// construction path that validates the configuration before any
/// hardware is assembled, and the only way to attach a recorder.
#[derive(Clone, Debug)]
pub struct ArrayBuilder {
    config: ArrayConfigBuilder,
    mode: ManagementMode,
    trace: Option<TraceConfig>,
}

impl ArrayBuilder {
    pub(super) fn new() -> Self {
        ArrayBuilder {
            config: ArrayConfig::builder(),
            mode: ManagementMode::Autonomic,
            trace: None,
        }
    }

    /// Replaces the configuration with `cfg` (still validated at
    /// [`ArrayBuilder::build`] time).
    pub fn config(mut self, cfg: ArrayConfig) -> Self {
        self.config = ArrayConfigBuilder::from_base(cfg);
        self
    }

    /// Re-seeds the configuration from the small CI-friendly base
    /// ([`ArrayConfig::small_test`]).
    pub fn small_test(mut self) -> Self {
        self.config = ArrayConfig::small_builder();
        self
    }

    /// Applies typed configuration edits through the
    /// [`ArrayConfigBuilder`].
    pub fn configure(mut self, f: impl FnOnce(ArrayConfigBuilder) -> ArrayConfigBuilder) -> Self {
        self.config = f(self.config);
        self
    }

    /// Sets the management mode.
    pub fn mode(mut self, mode: ManagementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an event recorder to every component of the built
    /// array; the run's [`VerifiedRun::trace`](super::VerifiedRun::trace)
    /// then carries the harvested events and `cluster.N.fimm.M.*`
    /// metrics.
    pub fn with_recorder(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Promotes this builder into a [`FederationBuilder`](crate::FederationBuilder)
    /// over `arrays` member arrays, carrying the configuration, mode,
    /// and recorder accumulated so far. The default volume stripes
    /// (unreplicated) across all members; override with
    /// [`FederationBuilder::volume`](crate::FederationBuilder::volume).
    pub fn with_federation(self, arrays: u32) -> crate::FederationBuilder {
        crate::FederationBuilder {
            base: self.config,
            mode: self.mode,
            trace: self.trace,
            arrays,
            volume: crate::VolumeSpec::striped(arrays),
            policy: crate::LaggardPolicy::default(),
            fault_overrides: Vec::new(),
        }
    }

    /// Validates the configuration and assembles the array.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the cross-field validation
    /// finds; nothing is constructed on failure.
    pub fn build(self) -> Result<Array, ConfigError> {
        let array = Array::new(self.config.build()?, self.mode);
        Ok(match self.trace {
            Some(tc) => array.with_recorder(tc),
            None => array,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoOp, Trace, TraceRequest};
    use triplea_ftl::LogicalPage;
    use triplea_sim::SimTime;

    fn one_read() -> Trace {
        Trace::new(vec![TraceRequest::new(
            SimTime::ZERO,
            IoOp::Read,
            LogicalPage(0),
            1,
        )])
    }

    #[test]
    fn builder_defaults_to_autonomic_baseline() {
        let sim = Array::builder().build().expect("baseline valid");
        assert_eq!(sim.mode(), ManagementMode::Autonomic);
        assert_eq!(sim.config(), &ArrayConfig::paper_baseline());
    }

    #[test]
    fn builder_rejects_invalid_configuration() {
        let err = Array::builder()
            .configure(|c| c.fimms_per_cluster(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ZeroDimension { .. }));
    }

    #[test]
    fn untraced_run_has_no_trace_and_clean_integrity() {
        let run = Array::builder()
            .small_test()
            .mode(ManagementMode::NonAutonomic)
            .build()
            .unwrap()
            .run_verified(&one_read());
        assert_eq!(run.report.completed(), 1);
        assert!(run.trace.is_none());
        assert!(run.integrity.is_ok());
    }

    #[test]
    fn traced_run_harvests_lifecycle_events_and_metrics() {
        let run = Array::builder()
            .small_test()
            .with_recorder(TraceConfig::all())
            .build()
            .unwrap()
            .run_verified(&one_read());
        let trace = run.trace.expect("recorder attached");
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"submit"), "{kinds:?}");
        assert!(kinds.contains(&"dispatch"));
        assert!(kinds.contains(&"bus_acquire"));
        assert!(kinds.contains(&"flash_start"));
        assert!(kinds.contains(&"link_tx"));
        assert!(kinds.contains(&"complete"));
        assert!(trace.metrics.get("array.latency").is_some());
        assert!(trace.metrics.get("cluster.0.fimm.0.queue_depth").is_some());

        // A tenanted run over both switches of the small array harvests
        // the per-switch and per-tenant instruments too.
        use crate::tenant::{TenantId, TenantSpec};
        use triplea_sim::trace::Metric;
        let per_cluster = ArrayConfig::small_test().shape.pages_per_cluster();
        let mixed: Trace = (0..300u64)
            .map(|i| {
                let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
                let lpn = LogicalPage(i % 8 * per_cluster + i % 64);
                TraceRequest::new(SimTime::from_nanos(i * 800), op, lpn, 1)
                    .owned_by(TenantId((i % 3 == 0) as u32))
            })
            .collect();
        let run = Array::builder()
            .small_test()
            .mode(ManagementMode::NonAutonomic)
            .configure(|c| c.with_tenants([TenantSpec::interactive(), TenantSpec::batch()]))
            .with_recorder(TraceConfig::all())
            .build()
            .unwrap()
            .run_verified(&mixed);
        assert!(run.integrity.is_ok());
        let m = run.trace.expect("recorder attached").metrics;
        let mut expected: Vec<String> = [
            "completed",
            "dropped_writes",
            "events",
            "latency",
            "read_latency",
            "write_latency",
        ]
        .iter()
        .map(|n| format!("array.{n}"))
        .collect();
        for g in 0..8 {
            for n in [
                "bus.bytes",
                "bus.utilization",
                "ep_queue.high_watermark",
                "fimm.0.queue_depth",
                "fimm.1.queue_depth",
                "relocs_in",
                "served",
            ] {
                expected.push(format!("cluster.{g}.{n}"));
            }
        }
        for s in 0..2 {
            expected.push(format!("switch.{s}.uplink.bytes"));
            expected.push(format!("switch.{s}.uplink.replays"));
        }
        for t in 0..2 {
            for n in ["completed", "read.latency", "violations", "write.latency"] {
                expected.push(format!("tenant.{t}.{n}"));
            }
        }
        let names: Vec<&str> = m.sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert_eq!(m.len(), expected.len());

        let counter = |name: &str| match m.get(name) {
            Some(Metric::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        let count = |name: &str| match m.get(name) {
            Some(Metric::Summary { count, .. }) => *count,
            other => panic!("{name}: {other:?}"),
        };
        // Tenant 1 owns every third request; every fourth is a write.
        let ts = run.report.tenant_stats();
        assert_eq!((ts[0].completed, ts[1].completed), (200, 100));
        assert_eq!(counter("tenant.0.completed"), 200);
        assert_eq!(counter("tenant.1.completed"), 100);
        assert_eq!(count("tenant.0.read.latency"), 150);
        assert_eq!(count("tenant.0.write.latency"), 50);
        assert_eq!(count("tenant.1.read.latency"), 75);
        assert_eq!(count("tenant.1.write.latency"), 25);
        // Without migration or faults each request crosses its switch's
        // uplink once per direction: a 24 B header one way and a 4 KiB
        // page plus its TLP framing the other. Clusters 0-3 sit behind
        // switch 0 and receive 152 of the 300 requests.
        assert_eq!(counter("switch.0.uplink.bytes"), 152 * (24 + 4096 + 24));
        assert_eq!(counter("switch.1.uplink.bytes"), 148 * (24 + 4096 + 24));
        assert_eq!(counter("switch.0.uplink.replays"), 0);
        assert_eq!(counter("switch.1.uplink.replays"), 0);
    }

    #[test]
    fn recorder_does_not_perturb_the_simulation() {
        let trace = (0..400)
            .map(|i| {
                TraceRequest::new(
                    SimTime::from_nanos(i * 900),
                    IoOp::Read,
                    LogicalPage(i % 512),
                    1,
                )
            })
            .collect();
        let plain = Array::builder()
            .small_test()
            .build()
            .unwrap()
            .run_verified(&trace);
        let traced = Array::builder()
            .small_test()
            .with_recorder(TraceConfig::all())
            .build()
            .unwrap()
            .run_verified(&trace);
        assert_eq!(plain.report, traced.report, "tracing must be zero-impact");
    }

    #[test]
    fn bound_workloads_blend_and_attribute_per_tenant() {
        use crate::tenant::{TenantId, TenantSpec};
        let stream = |n: u64, offset: u64, tenant: TenantId| {
            (0..n).map(move |i| {
                TraceRequest::new(
                    SimTime::from_nanos(offset + i * 700),
                    IoOp::Read,
                    LogicalPage(i % 256),
                    1,
                )
                .owned_by(tenant)
            })
        };
        let blended = Trace::new(
            stream(120, 0, TenantId(0))
                .chain(stream(80, 350, TenantId(1)))
                .collect(),
        );
        assert_eq!(blended.len(), 200);
        assert!(blended.requests().windows(2).all(|w| w[0].at <= w[1].at));
        let run = Array::builder()
            .small_test()
            .configure(|c| c.with_tenants([TenantSpec::interactive(), TenantSpec::batch()]))
            .build()
            .unwrap()
            .run_verified(&blended);
        assert!(run.integrity.is_ok());
        assert_eq!(run.report.completed(), 200);
        let ts = run.report.tenant_stats();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].completed, 120);
        assert_eq!(ts[1].completed, 80);
    }
}
