//! The end-of-run harvest: the traced metric registry and the
//! [`RunReport`].

use triplea_fimm::FimmFaultKind;
use triplea_flash::WearReport;
use triplea_sim::trace::{MetricRegistry, RunTrace};

use super::Engine;
use crate::metrics::RunReport;
use crate::tenant::TenantStats;

impl Engine {
    /// Harvests the recorder and the per-component instruments into a
    /// [`RunTrace`], naming each instrument where its value is read
    /// (`cluster.N.fimm.M.queue_depth`). Runs once per traced run.
    pub(super) fn harvest_trace(&mut self) -> Option<RunTrace> {
        let rec = self.recorder.take()?;
        let now = self.last_complete;
        let mut m = MetricRegistry::new();
        m.counter("array.events", self.events);
        m.counter("array.completed", self.lat.count());
        m.counter("array.dropped_writes", self.dropped_writes);
        m.histogram("array.latency", &self.lat);
        m.histogram("array.read_latency", &self.rlat);
        m.histogram("array.write_latency", &self.wlat);
        for (g, cl) in self.clusters.iter().enumerate() {
            m.gauge(
                format!("cluster.{g}.bus.utilization"),
                cl.bus.utilization(now),
            );
            m.counter(format!("cluster.{g}.bus.bytes"), cl.bus.bytes_moved());
            m.counter(format!("cluster.{g}.served"), cl.served);
            m.counter(format!("cluster.{g}.relocs_in"), cl.relocs_in);
            m.counter(
                format!("cluster.{g}.ep_queue.high_watermark"),
                cl.ep_queue.high_watermark() as u64,
            );
            for (f, s) in cl.qdepth.iter().enumerate() {
                m.series(format!("cluster.{g}.fimm.{f}.queue_depth"), s, 512);
            }
        }
        for (s, sw) in self.switches.iter().enumerate() {
            let (down, up) = (&sw.uplink.down, &sw.uplink.up);
            m.counter(
                format!("switch.{s}.uplink.bytes"),
                down.bytes_sent() + up.bytes_sent(),
            );
            m.counter(
                format!("switch.{s}.uplink.replays"),
                down.replays() + up.replays(),
            );
        }
        if let Some(front) = &self.front {
            for (t, acc) in front.lanes.iter().enumerate() {
                m.histogram(format!("tenant.{t}.read.latency"), &acc.rlat);
                m.histogram(format!("tenant.{t}.write.latency"), &acc.wlat);
                m.counter(format!("tenant.{t}.completed"), acc.lat.count());
                m.counter(format!("tenant.{t}.violations"), acc.violations);
            }
        }
        Some(RunTrace::from_recorder(rec, m))
    }

    /// Folds the hardware's wear and fault census into the engine's own
    /// counters and produces the report. `ArrayRunner::finish` has
    /// already clamped `first_submit`.
    pub(super) fn into_report(mut self) -> RunReport {
        let mut wear = WearReport::default();
        // Retired modules (replaced by a hot spare mid-run) still carry
        // their wear, fault history, and scheduled-fault census.
        for f in self
            .clusters
            .iter()
            .flat_map(|c| c.fimms.iter())
            .chain(self.retired_fimms.iter())
        {
            wear.merge(&f.wear_report());
            let pf = f.fault_stats();
            self.faults.transient_read_faults += pf.read_transients;
            self.faults.prog_failures += pf.prog_failures;
            self.faults.erase_failures += pf.erase_failures;
            self.faults.blocks_retired_by_fault += pf.blocks_force_retired;
            for &(at, kind) in f.scheduled_faults() {
                if at <= self.last_complete {
                    match kind {
                        FimmFaultKind::Dead => self.faults.fimm_deaths += 1,
                        FimmFaultKind::Slowdown(_) => self.faults.fimm_slowdowns += 1,
                    }
                }
            }
        }
        self.recovery.degraded_p99_ns = self.degraded_lat.percentile(0.99);
        for sw in &self.switches {
            for link in std::iter::once(&sw.uplink).chain(sw.downlinks.iter()) {
                self.faults.tlp_replays += link.down.replays() + link.up.replays();
            }
        }
        let tenants = (self.front.iter().flat_map(|front| &front.lanes))
            .zip(self.cfg.tenants.specs())
            .enumerate()
            .map(|(i, (acc, spec))| TenantStats {
                tenant: i as u32,
                weight: spec.weight,
                sla_p99_ns: spec.sla_p99_ns,
                completed: acc.lat.count(),
                reads: acc.rlat.count(),
                writes: acc.wlat.count(),
                violations: acc.violations,
                p50_ns: acc.lat.percentile(0.50),
                p99_ns: acc.lat.percentile(0.99),
                read_p99_ns: acc.rlat.percentile(0.99),
                write_p99_ns: acc.wlat.percentile(0.99),
                mean_ns: acc.lat.mean().round() as u64,
                max_ns: acc.lat.max(),
            })
            .collect();
        RunReport {
            mode: self.mode,
            completed: self.lat.count(),
            reads: self.rlat.count(),
            writes: self.wlat.count(),
            first_submit: self.first_submit,
            last_complete: self.last_complete,
            latency: self.lat,
            read_latency: self.rlat,
            write_latency: self.wlat,
            bd_sum: self.bd_sum,
            attr_link: self.attr_link,
            attr_storage: self.attr_storage,
            series: self.series,
            per_cluster_requests: self.clusters.iter().map(|c| c.served).collect(),
            per_cluster_relocs_in: self.clusters.iter().map(|c| c.relocs_in).collect(),
            dropped_writes: self.dropped_writes,
            autonomic: self.auto.stats,
            ftl: self.ftl.stats(),
            wear,
            faults: self.faults,
            recovery: self.recovery,
            tenants,
            events: self.events,
        }
    }
}
