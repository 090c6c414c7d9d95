//! The typed front door to the simulator.
//!
//! [`Simulation::builder()`] assembles a validated run: a
//! cross-field-checked [`ArrayConfig`] (rejected with a typed
//! [`ConfigError`] rather than a mid-run panic), a
//! [`ManagementMode`], optionally an event recorder ([`TraceConfig`]),
//! and — on tenant-enabled arrays — per-tenant workload bindings
//! ([`SimulationBuilder::bind_tenant`]) in place of one anonymous
//! trace. Running returns either a plain [`RunReport`] or a typed
//! [`VerifiedRun`] carrying the report, the harvested trace, and the
//! FTL integrity audit.
//!
//! # Example
//!
//! ```
//! use triplea_core::{IoOp, ManagementMode, Simulation, Trace, TraceRequest};
//! use triplea_ftl::LogicalPage;
//! use triplea_sim::trace::TraceConfig;
//! use triplea_sim::SimTime;
//!
//! let sim = Simulation::builder()
//!     .small_test()
//!     .mode(ManagementMode::Autonomic)
//!     .with_recorder(TraceConfig::all())
//!     .build()
//!     .expect("valid configuration");
//! let trace = Trace::new(vec![TraceRequest::new(SimTime::ZERO, IoOp::Read, LogicalPage(0), 1)]);
//! let run = sim.run_verified(&trace);
//! assert_eq!(run.report.completed(), 1);
//! assert!(run.integrity.is_ok());
//! let events = &run.trace.expect("recorder attached").events;
//! assert!(!events.is_empty());
//! ```

use triplea_sim::trace::TraceConfig;

use crate::array::{Array, VerifiedRun};
use crate::config::{ArrayConfig, ArrayConfigBuilder, ConfigError, ManagementMode};
use crate::metrics::RunReport;
use crate::request::Trace;
use crate::tenant::TenantId;

/// A fully assembled, validated simulation, ready to replay a
/// [`Trace`]. Built by [`SimulationBuilder`]; see the module docs.
#[derive(Debug)]
pub struct Simulation {
    array: Array,
    /// The blended per-tenant workload, when the builder bound any.
    bound: Option<Trace>,
}

impl Simulation {
    /// Starts a builder seeded with the paper-baseline configuration in
    /// [`ManagementMode::Autonomic`], no recorder, and no tenant
    /// bindings.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder {
            config: ArrayConfig::builder(),
            mode: ManagementMode::Autonomic,
            trace: None,
            bindings: Vec::new(),
        }
    }

    /// The validated configuration in force.
    pub fn config(&self) -> &ArrayConfig {
        self.array.config()
    }

    /// The management mode in force.
    pub fn mode(&self) -> ManagementMode {
        self.array.mode()
    }

    /// The blended trace assembled from the builder's
    /// [`bind_tenant`](SimulationBuilder::bind_tenant) calls: every
    /// bound stream re-stamped with its owner and merged in submission
    /// order. `None` when nothing was bound.
    pub fn bound_trace(&self) -> Option<&Trace> {
        self.bound.as_ref()
    }

    /// Replays the bound per-tenant workload to completion. Replays an
    /// empty trace when the builder bound nothing.
    pub fn run_bound(self) -> RunReport {
        let trace = self.bound.unwrap_or_default();
        self.array.run(&trace)
    }

    /// [`Simulation::run_bound`], returning the typed [`VerifiedRun`].
    pub fn run_bound_verified(self) -> VerifiedRun {
        let trace = self.bound.unwrap_or_default();
        self.array.run_verified(&trace)
    }

    /// Replays `trace` to completion. See [`Array::run`].
    pub fn run(self, trace: &Trace) -> RunReport {
        self.array.run(trace)
    }

    /// Replays `trace` and returns the typed [`VerifiedRun`]: report,
    /// harvested trace (when a recorder was attached), and the FTL
    /// metadata integrity audit. See [`Array::run_verified`].
    pub fn run_verified(self, trace: &Trace) -> VerifiedRun {
        self.array.run_verified(trace)
    }
}

/// Builder for [`Simulation`]; the only construction path that
/// validates the configuration before any hardware is assembled.
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    config: ArrayConfigBuilder,
    mode: ManagementMode,
    trace: Option<TraceConfig>,
    /// Per-tenant workload streams, blended at build time.
    bindings: Vec<(TenantId, Trace)>,
}

impl SimulationBuilder {
    /// Replaces the configuration with `cfg` (still validated at
    /// [`SimulationBuilder::build`] time).
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

    /// Attaches an event recorder to the built array; the run's
    /// [`VerifiedRun::trace`] will then carry the harvested events and
    /// metrics. See [`Array::with_recorder`].
    pub fn with_recorder(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Promotes this builder into a [`FederationBuilder`](crate::FederationBuilder)
    /// over `arrays` member arrays, carrying the configuration, mode,
    /// and recorder accumulated so far. The default volume stripes
    /// (unreplicated) across all members; override with
    /// [`FederationBuilder::volume`](crate::FederationBuilder::volume).
    ///
    /// Tenant bindings do not carry over — a federation replays one
    /// volume-level trace (whose requests may still be tenant-stamped).
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

    /// Binds `trace` to `tenant`: every request in the stream is
    /// re-stamped as owned by that tenant, and at
    /// [`build`](SimulationBuilder::build) time all bound streams are
    /// merged into one submission-ordered workload, replayed with
    /// [`Simulation::run_bound`]. Streams tied at the same timestamp
    /// keep binding order (the merge sort is stable), so blends are
    /// deterministic. Binding the same tenant twice concatenates the
    /// streams.
    pub fn bind_tenant(mut self, tenant: TenantId, trace: Trace) -> Self {
        self.bindings.push((tenant, trace));
        self
    }

    /// Validates the configuration and assembles the array.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the cross-field validation
    /// finds — including [`ConfigError::UnboundTenant`] when a
    /// [`bind_tenant`](SimulationBuilder::bind_tenant) call names a
    /// tenant outside the configured table; nothing is constructed on
    /// failure.
    pub fn build(self) -> Result<Simulation, ConfigError> {
        let cfg = self.config.build()?;
        let tenants = cfg.tenants.len();
        for (tenant, _) in &self.bindings {
            if tenant.index() >= tenants {
                return Err(ConfigError::UnboundTenant {
                    tenant: tenant.0,
                    tenants,
                });
            }
        }
        let bound = if self.bindings.is_empty() {
            None
        } else {
            let requests = self
                .bindings
                .into_iter()
                .flat_map(|(tenant, trace)| {
                    trace
                        .into_requests()
                        .into_iter()
                        .map(move |r| r.owned_by(tenant))
                })
                .collect::<Vec<_>>();
            Some(Trace::new(requests))
        };
        let mut array = Array::new(cfg, self.mode);
        if let Some(tc) = self.trace {
            array = array.with_recorder(tc);
        }
        Ok(Simulation { array, bound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoOp, TraceRequest};
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
        let sim = Simulation::builder().build().expect("baseline valid");
        assert_eq!(sim.mode(), ManagementMode::Autonomic);
        assert_eq!(sim.config(), &ArrayConfig::paper_baseline());
    }

    #[test]
    fn builder_rejects_invalid_configuration() {
        let err = Simulation::builder()
            .configure(|c| c.fimms_per_cluster(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ZeroDimension { .. }));
    }

    #[test]
    fn untraced_run_has_no_trace_and_clean_integrity() {
        let run = Simulation::builder()
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
        let run = Simulation::builder()
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
        assert!(trace
            .metrics
            .get("cluster.0.fimm.0.queue_depth")
            .is_some());
    }

    #[test]
    fn recorder_does_not_perturb_the_simulation() {
        let trace = (0..400)
            .map(|i| {
                TraceRequest::new(SimTime::from_nanos(i * 900), IoOp::Read, LogicalPage(i % 512), 1)
            })
            .collect();
        let plain = Simulation::builder()
            .small_test()
            .build()
            .unwrap()
            .run_verified(&trace);
        let traced = Simulation::builder()
            .small_test()
            .with_recorder(TraceConfig::all())
            .build()
            .unwrap()
            .run_verified(&trace);
        assert_eq!(plain.report, traced.report, "tracing must be zero-impact");
    }

    #[test]
    fn bound_workloads_blend_and_attribute_per_tenant() {
        use crate::tenant::TenantSpec;
        let stream = |n: u64, offset: u64| -> Trace {
            (0..n)
                .map(|i| {
                    TraceRequest::new(
                        SimTime::from_nanos(offset + i * 700),
                        IoOp::Read,
                        LogicalPage(i % 256),
                        1,
                    )
                })
                .collect()
        };
        let sim = Simulation::builder()
            .small_test()
            .configure(|c| c.with_tenants([TenantSpec::interactive(), TenantSpec::batch()]))
            .bind_tenant(TenantId(0), stream(120, 0))
            .bind_tenant(TenantId(1), stream(80, 350))
            .build()
            .unwrap();
        let blended = sim.bound_trace().expect("bindings present");
        assert_eq!(blended.len(), 200);
        assert!(blended.requests().windows(2).all(|w| w[0].at <= w[1].at));
        let report = sim.run_bound();
        assert_eq!(report.completed(), 200);
        let ts = report.tenant_stats();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].completed, 120);
        assert_eq!(ts[1].completed, 80);
    }

    #[test]
    fn binding_an_undeclared_tenant_is_a_config_error() {
        use crate::tenant::TenantSpec;
        let err = Simulation::builder()
            .small_test()
            .configure(|c| c.with_tenants([TenantSpec::interactive()]))
            .bind_tenant(TenantId(3), one_read())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnboundTenant {
                tenant: 3,
                tenants: 1
            }
        );
        assert!(err.to_string().contains("tenant.3"), "{err}");
    }

    #[test]
    fn unbound_builder_runs_an_empty_bound_trace() {
        let sim = Simulation::builder().small_test().build().unwrap();
        assert!(sim.bound_trace().is_none());
        assert_eq!(sim.run_bound().completed(), 0);
    }

    #[test]
    fn trace_config_categories_gate_harvested_events() {
        let mut tc = TraceConfig::all();
        tc.lifecycle = false;
        let run = Simulation::builder()
            .small_test()
            .with_recorder(tc)
            .build()
            .unwrap()
            .run_verified(&one_read());
        let trace = run.trace.unwrap();
        assert!(trace.events.iter().all(|e| e.kind.name() != "submit"));
        assert!(trace.events.iter().any(|e| e.kind.name() == "flash_start"));
    }
}
