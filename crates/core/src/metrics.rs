//! Aggregated results of one simulation run.

use triplea_flash::WearReport;
use triplea_ftl::FtlStats;
use triplea_sim::stats::{Histogram, TimeSeries};
use triplea_sim::SimTime;

use crate::autonomic::AutonomicStats;
use crate::config::ManagementMode;
use crate::request::Breakdown;
use crate::tenant::TenantStats;

/// Fault-injection and degraded-mode activity observed during one run.
///
/// All-zero (see [`FaultStats::any`]) whenever the configured
/// [`FaultConfig`](crate::FaultConfig) is quiet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct FaultStats {
    /// Read commands that failed ECC and were re-issued (flash layer).
    pub transient_read_faults: u64,
    /// Program commands that hard-failed at the NAND.
    pub prog_failures: u64,
    /// Erase commands that hard-failed at the NAND.
    pub erase_failures: u64,
    /// Blocks retired as grown bad blocks by those hard failures.
    pub blocks_retired_by_fault: u64,
    /// Scheduled whole-FIMM deaths that fired during the run.
    pub fimm_deaths: u64,
    /// Scheduled whole-FIMM slowdowns that fired during the run.
    pub fimm_slowdowns: u64,
    /// Host reads served by a live sibling because the home FIMM died.
    pub degraded_reads: u64,
    /// Reads that could not be served anywhere (every module dead).
    pub unserviceable_reads: u64,
    /// Writes redirected away from a failed module or bad block.
    pub fault_write_redirects: u64,
    /// Corrupted TLPs replayed on the PCI-E fabric.
    pub tlp_replays: u64,
    /// Migrations/reshapes of a page rolled back mid-copy; the original
    /// mapping was kept and no data was lost.
    pub migration_rollbacks: u64,
    /// GC victim blocks quarantined because their erase hard-failed.
    pub gc_failed_erases: u64,
}

impl FaultStats {
    /// `true` when any fault or degraded-mode event was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

impl std::fmt::Display for FaultStats {
    /// A one-line summary; `"no faults"` when the run was quiet.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return write!(f, "no faults");
        }
        write!(
            f,
            "{} transient reads, {} prog fails, {} erase fails, {} bad blocks, \
             {} FIMM deaths, {} slowdowns, {} degraded reads, {} unserviceable, \
             {} write redirects, {} tlp replays, {} rollbacks, {} gc erase fails",
            self.transient_read_faults,
            self.prog_failures,
            self.erase_failures,
            self.blocks_retired_by_fault,
            self.fimm_deaths,
            self.fimm_slowdowns,
            self.degraded_reads,
            self.unserviceable_reads,
            self.fault_write_redirects,
            self.tlp_replays,
            self.migration_rollbacks,
            self.gc_failed_erases
        )
    }
}

/// Crash-recovery and self-healing activity observed during one run:
/// power-loss remounts (journal replay) and hot-spare rebuilds.
///
/// All-zero (see [`RecoveryStats::any`]) when no power loss was
/// scheduled and no rebuild ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct RecoveryStats {
    /// Whole-array power cuts survived.
    pub power_losses: u64,
    /// Flushed journal records replayed by mount-time recovery scans.
    pub journal_replayed: u64,
    /// Un-flushed journal records lost to the cut.
    pub journal_dropped: u64,
    /// Mid-flight migration clones rolled back by recovery scans.
    pub aborted_clones: u64,
    /// Requests that were in flight at the cut and never completed.
    pub lost_inflight_requests: u64,
    /// Queued requests re-submitted after the remount finished.
    pub requeued_requests: u64,
    /// Total simulated time the array spent remounting.
    pub remount_ns: u64,
    /// Hot-spare rebuilds completed.
    pub rebuilds_completed: u64,
    /// Live pages copied onto spares by rebuilds.
    pub rebuild_pages: u64,
    /// Summed duration of completed rebuilds (death → spare swapped in).
    pub rebuild_ns: u64,
    /// p99 end-to-end latency (ns) of host requests that completed while
    /// a module was dead and its rebuild still running — the
    /// degraded-mode service quality.
    pub degraded_p99_ns: u64,
}

impl RecoveryStats {
    /// `true` when any recovery activity was recorded.
    pub fn any(&self) -> bool {
        *self != RecoveryStats::default()
    }
}

impl std::fmt::Display for RecoveryStats {
    /// A one-line summary; `"no recovery activity"` when idle.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return write!(f, "no recovery activity");
        }
        write!(
            f,
            "{} power losses ({} replayed, {} dropped, {} clones aborted, \
             {} lost, {} requeued, {}ns remount), {} rebuilds ({} pages, \
             {}ns, degraded p99 {}ns)",
            self.power_losses,
            self.journal_replayed,
            self.journal_dropped,
            self.aborted_clones,
            self.lost_inflight_requests,
            self.requeued_requests,
            self.remount_ns,
            self.rebuilds_completed,
            self.rebuild_pages,
            self.rebuild_ns,
            self.degraded_p99_ns
        )
    }
}

/// Everything measured during a run; the benchmark harness derives every
/// table row and figure series from this.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    pub(crate) mode: ManagementMode,
    pub(crate) completed: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) first_submit: SimTime,
    pub(crate) last_complete: SimTime,
    pub(crate) latency: Histogram,
    pub(crate) read_latency: Histogram,
    pub(crate) write_latency: Histogram,
    pub(crate) bd_sum: Breakdown,
    pub(crate) attr_link: u64,
    pub(crate) attr_storage: u64,
    pub(crate) series: TimeSeries,
    pub(crate) per_cluster_requests: Vec<u64>,
    pub(crate) per_cluster_relocs_in: Vec<u64>,
    pub(crate) dropped_writes: u64,
    pub(crate) autonomic: AutonomicStats,
    pub(crate) ftl: FtlStats,
    pub(crate) wear: WearReport,
    pub(crate) faults: FaultStats,
    pub(crate) recovery: RecoveryStats,
    /// One entry per configured tenant, in tenant-id order; empty on
    /// untenanted runs.
    pub(crate) tenants: Vec<TenantStats>,
    pub(crate) events: u64,
}

impl RunReport {
    /// Which management mode produced this report.
    pub fn mode(&self) -> ManagementMode {
        self.mode
    }

    /// Requests completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Completed reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Completed writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Wall-clock span from first submission to last completion.
    pub fn makespan(&self) -> SimTime {
        SimTime::from_nanos(self.last_complete.saturating_since(self.first_submit))
    }

    /// Sustained I/O operations per second over the makespan.
    pub fn iops(&self) -> f64 {
        let secs = self.makespan().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Mean end-to-end latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Latency quantile in microseconds.
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        self.latency.percentile(p) as f64 / 1_000.0
    }

    /// Full latency histogram (nanoseconds).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// Read-only latency histogram.
    pub fn read_latency_histogram(&self) -> &Histogram {
        &self.read_latency
    }

    /// Write-only latency histogram.
    pub fn write_latency_histogram(&self) -> &Histogram {
        &self.write_latency
    }

    /// Latency CDF points `(microseconds, fraction)` — Figures 1 and 11.
    pub fn latency_cdf_us(&self) -> Vec<(f64, f64)> {
        self.latency
            .cdf_points()
            .into_iter()
            .map(|(ns, f)| (ns as f64 / 1_000.0, f))
            .collect()
    }

    fn per_req(&self, total: u64) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            total as f64 / self.completed as f64 / 1_000.0
        }
    }

    /// Mean link-contention time per request, µs (Figure 10a, Table 2):
    /// direct waits on shared buses/links *plus* the share of upstream
    /// queue-stall time those waits caused. The paper uses the same
    /// root-cause decomposition — its Table 2 queue-stall column equals
    /// link-contention + storage-contention.
    pub fn avg_link_contention_us(&self) -> f64 {
        self.per_req(self.bd_sum.link_contention() + self.attr_link)
    }

    /// Mean storage-contention time per request, µs (Figure 10b):
    /// direct waits on busy dies / full write buffers plus the share of
    /// upstream queue-stall time they caused.
    pub fn avg_storage_contention_us(&self) -> f64 {
        self.per_req(self.bd_sum.storage_contention() + self.attr_storage)
    }

    /// Mean *direct* link wait per request (bus + PCI-E only, no
    /// queue-stall attribution), µs — the Figure 15 stack component.
    pub fn avg_direct_link_wait_us(&self) -> f64 {
        self.per_req(self.bd_sum.link_contention())
    }

    /// Mean *direct* storage wait per request, µs (Figure 15).
    pub fn avg_direct_storage_wait_us(&self) -> f64 {
        self.per_req(self.bd_sum.storage_contention())
    }

    /// Mean queue-stall time per request, µs (Figure 10c).
    pub fn avg_queue_stall_us(&self) -> f64 {
        self.per_req(self.bd_sum.queue_stall())
    }

    /// Mean RC-queue stall per request, µs (Figure 15).
    pub fn avg_rc_stall_us(&self) -> f64 {
        self.per_req(self.bd_sum.rc_stall)
    }

    /// Mean switch-level stall per request, µs (Figure 15).
    pub fn avg_switch_stall_us(&self) -> f64 {
        self.per_req(self.bd_sum.switch_stall)
    }

    /// Mean pure flash service time per request, µs (Figure 15's "FIMM
    /// throughput" component).
    pub fn avg_fimm_service_us(&self) -> f64 {
        self.per_req(self.bd_sum.fimm_service)
    }

    /// Residual per-request time not covered by the other buckets
    /// (network serialisation, routing, propagation, device layers), µs.
    pub fn avg_network_us(&self) -> f64 {
        let accounted = self.bd_sum.queue_stall()
            + self.bd_sum.link_contention()
            + self.bd_sum.storage_contention()
            + self.bd_sum.fimm_service;
        let total = (self.latency.mean() * self.completed as f64) as u64;
        self.per_req(total.saturating_sub(accounted))
    }

    /// The `(submit time, latency µs)` series, if collection was enabled
    /// (Figure 16).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Requests routed to each cluster (global cluster index).
    pub fn per_cluster_requests(&self) -> &[u64] {
        &self.per_cluster_requests
    }

    /// Pages relocated *into* each cluster by migration or reshaping —
    /// diagnoses where the autonomic manager is sending data.
    pub fn per_cluster_relocations_in(&self) -> &[u64] {
        &self.per_cluster_relocs_in
    }

    /// Number of clusters that received at least `frac` of all requests
    /// — the paper's hot-cluster census (Table 1 uses 10 %).
    pub fn hot_cluster_count(&self, frac: f64) -> usize {
        let total: u64 = self.per_cluster_requests.iter().sum();
        if total == 0 {
            return 0;
        }
        self.per_cluster_requests
            .iter()
            .filter(|&&c| c as f64 / total as f64 >= frac)
            .count()
    }

    /// Fraction of I/O heading to clusters that qualify as hot at
    /// `frac` (Table 1's last column).
    pub fn hot_io_ratio(&self, frac: f64) -> f64 {
        let total: u64 = self.per_cluster_requests.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let hot: u64 = self
            .per_cluster_requests
            .iter()
            .filter(|&&c| c as f64 / total as f64 >= frac)
            .sum();
        hot as f64 / total as f64
    }

    /// Autonomic-management activity counters.
    pub fn autonomic_stats(&self) -> &AutonomicStats {
        &self.autonomic
    }

    /// FTL activity counters (host vs migration vs GC writes — §6.5).
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl
    }

    /// Array-wide NAND wear report.
    pub fn wear(&self) -> WearReport {
        self.wear
    }

    /// Fault-injection and degraded-mode activity counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Crash-recovery activity: power-loss remounts and hot-spare
    /// rebuilds.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Per-tenant results, one entry per configured tenant in
    /// tenant-id order. Empty when the array ran untenanted.
    pub fn tenant_stats(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// Total SLA violations across every tenant.
    pub fn sla_violations(&self) -> u64 {
        self.tenants.iter().map(|t| t.violations).sum()
    }

    /// Simulator events processed (diagnostics; the benchmark's
    /// `sim.events`).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Write pages dropped because the target FIMM was at end of life
    /// (every block retired; GC could reclaim nothing). Always zero
    /// until the flash wears out.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes
    }

    /// Extra writes induced by migration/reshaping relative to host
    /// writes, as a fraction (§6.5: paper reports up to 34 %).
    /// (The `Display` impl prints a human-readable summary.)
    pub fn migration_write_overhead(&self) -> f64 {
        if self.ftl.host_writes == 0 {
            if self.ftl.migration_writes > 0 {
                return 1.0;
            }
            return 0.0;
        }
        self.ftl.migration_writes as f64 / self.ftl.host_writes as f64
    }
}

impl std::fmt::Display for RunReport {
    /// A compact multi-line summary, convenient for examples and logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} requests ({} reads / {} writes) over {}",
            self.mode,
            self.completed,
            self.reads,
            self.writes,
            self.makespan()
        )?;
        writeln!(
            f,
            "  IOPS {:.0} | latency mean {:.1}us p99 {:.1}us",
            self.iops(),
            self.mean_latency_us(),
            self.latency_percentile_us(0.99)
        )?;
        write!(
            f,
            "  contention/req: link {:.1}us storage {:.1}us queue-stall {:.1}us",
            self.avg_link_contention_us(),
            self.avg_storage_contention_us(),
            self.avg_queue_stall_us()
        )?;
        if self.autonomic.migrations_started > 0 || self.autonomic.pages_reshaped > 0 {
            write!(
                f,
                "
  autonomic: {} migrations ({} pages), {} reshaped, {} write redirects",
                self.autonomic.migrations_started,
                self.autonomic.pages_migrated,
                self.autonomic.pages_reshaped,
                self.autonomic.write_redirects
            )?;
        }
        if self.faults.any() {
            write!(
                f,
                "
  faults: {} transient reads, {} prog fails, {} erase fails, {} bad blocks, {} tlp replays, {} degraded reads, {} rollbacks",
                self.faults.transient_read_faults,
                self.faults.prog_failures,
                self.faults.erase_failures,
                self.faults.blocks_retired_by_fault,
                self.faults.tlp_replays,
                self.faults.degraded_reads,
                self.faults.migration_rollbacks
            )?;
        }
        if self.recovery.any() {
            write!(
                f,
                "
  recovery: {}",
                self.recovery
            )?;
        }
        // A single tenant is just the anonymous stream with a name; the
        // per-tenant section only earns its lines when there is real
        // multi-tenancy to break down (and the quiet goldens stay put).
        if self.tenants.len() >= 2 {
            for t in &self.tenants {
                write!(
                    f,
                    "
  tenant.{}: w{} {} done ({} rd / {} wr), p99 {:.1}us (target {:.1}us), {} violations ({:.2}%)",
                    t.tenant,
                    t.weight,
                    t.completed,
                    t.reads,
                    t.writes,
                    t.p99_ns as f64 / 1_000.0,
                    t.sla_p99_ns as f64 / 1_000.0,
                    t.violations,
                    t.violation_rate() * 100.0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> RunReport {
        RunReport {
            mode: ManagementMode::NonAutonomic,
            completed: 0,
            reads: 0,
            writes: 0,
            first_submit: SimTime::ZERO,
            last_complete: SimTime::ZERO,
            latency: Histogram::new(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            bd_sum: Breakdown::default(),
            attr_link: 0,
            attr_storage: 0,
            series: TimeSeries::new(),
            per_cluster_requests: vec![0; 4],
            per_cluster_relocs_in: vec![0; 4],
            dropped_writes: 0,
            autonomic: AutonomicStats::default(),
            ftl: FtlStats::default(),
            wear: WearReport::default(),
            faults: FaultStats::default(),
            recovery: RecoveryStats::default(),
            tenants: Vec::new(),
            events: 0,
        }
    }

    #[test]
    fn empty_report_is_safe() {
        let r = empty_report();
        assert_eq!(r.iops(), 0.0);
        assert_eq!(r.mean_latency_us(), 0.0);
        assert_eq!(r.hot_cluster_count(0.1), 0);
        assert_eq!(r.hot_io_ratio(0.1), 0.0);
        assert_eq!(r.avg_network_us(), 0.0);
        assert_eq!(r.migration_write_overhead(), 0.0);
    }

    #[test]
    fn hot_cluster_census() {
        let mut r = empty_report();
        r.per_cluster_requests = vec![70, 20, 5, 5];
        assert_eq!(r.hot_cluster_count(0.10), 2);
        assert!((r.hot_io_ratio(0.10) - 0.9).abs() < 1e-12);
        assert_eq!(r.hot_cluster_count(0.5), 1);
    }

    #[test]
    fn iops_from_makespan() {
        let mut r = empty_report();
        r.completed = 1_000;
        r.first_submit = SimTime::ZERO;
        r.last_complete = SimTime::from_ms(100);
        assert!((r.iops() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_summary_is_nonempty_and_mentions_mode() {
        let mut r = empty_report();
        r.completed = 10;
        r.reads = 10;
        let text = r.to_string();
        assert!(text.contains("non-autonomic"));
        assert!(text.contains("IOPS"));
        r.autonomic.migrations_started = 3;
        assert!(r.to_string().contains("3 migrations"));
    }

    #[test]
    fn fault_stats_render_only_when_present() {
        let mut r = empty_report();
        r.completed = 1;
        assert!(!r.fault_stats().any());
        assert!(!r.to_string().contains("faults:"));
        r.faults.transient_read_faults = 7;
        r.faults.migration_rollbacks = 2;
        assert!(r.fault_stats().any());
        let text = r.to_string();
        assert!(text.contains("7 transient reads"));
        assert!(text.contains("2 rollbacks"));
    }

    #[test]
    fn recovery_stats_render_only_when_present() {
        let mut r = empty_report();
        r.completed = 1;
        assert!(!r.recovery_stats().any());
        assert!(!r.to_string().contains("recovery:"));
        r.recovery.power_losses = 1;
        r.recovery.journal_replayed = 42;
        r.recovery.rebuilds_completed = 1;
        assert!(r.recovery_stats().any());
        let text = r.to_string();
        assert!(text.contains("1 power losses"));
        assert!(text.contains("42 replayed"));
        assert!(text.contains("1 rebuilds"));
    }

    #[test]
    fn tenant_section_renders_only_with_two_or_more() {
        let mut r = empty_report();
        r.completed = 10;
        let one = TenantStats {
            tenant: 0,
            weight: 8,
            sla_p99_ns: 200_000,
            completed: 10,
            reads: 10,
            violations: 3,
            p99_ns: 450_000,
            ..TenantStats::default()
        };
        r.tenants = vec![one];
        assert!(
            !r.to_string().contains("tenant.0"),
            "a lone tenant must keep the quiet summary"
        );
        assert_eq!(r.tenant_stats().len(), 1);
        assert_eq!(r.sla_violations(), 3);
        let two = TenantStats {
            tenant: 1,
            weight: 1,
            sla_p99_ns: 5_000_000,
            completed: 4,
            writes: 4,
            ..TenantStats::default()
        };
        r.tenants.push(two);
        let text = r.to_string();
        assert!(text.contains("tenant.0: w8 10 done"));
        assert!(text.contains("3 violations (30.00%)"));
        assert!(text.contains("tenant.1: w1 4 done"));
    }

    #[test]
    fn migration_overhead_ratio() {
        let mut r = empty_report();
        r.ftl.host_writes = 100;
        r.ftl.migration_writes = 34;
        assert!((r.migration_write_overhead() - 0.34).abs() < 1e-12);
        r.ftl.host_writes = 0;
        assert_eq!(r.migration_write_overhead(), 1.0);
    }
}
