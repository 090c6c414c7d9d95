//! Array configuration.

use triplea_fimm::FimmFaultKind;
use triplea_flash::{FlashFaultProfile, FlashGeometry, FlashTiming};
use triplea_ftl::ArrayShape;
use triplea_pcie::{PcieFaultProfile, PcieParams, Topology};
use triplea_sim::Nanos;

use crate::tenant::{TenantConfig, TenantSpec};

/// Whether the array runs the autonomic management module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum ManagementMode {
    /// The paper's baseline: no contention detection, static layout.
    NonAutonomic,
    /// Full Triple-A: hot-cluster migration + laggard reshaping.
    Autonomic,
}

impl std::fmt::Display for ManagementMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ManagementMode::NonAutonomic => "non-autonomic",
            ManagementMode::Autonomic => "triple-a",
        })
    }
}

/// Which laggard detector(s) run (paper §4.2 offers two strategies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaggardStrategy {
    /// Eq. 3: per-FIMM stalled-work estimate against the SLA budget.
    LatencyMonitoring,
    /// Count stalled queue entries per FIMM when the EP queue fills.
    QueueExamination,
    /// Run both detectors (default).
    Both,
}

impl LaggardStrategy {
    /// `true` when Eq. 3 latency monitoring is active.
    pub fn monitors_latency(self) -> bool {
        matches!(
            self,
            LaggardStrategy::LatencyMonitoring | LaggardStrategy::Both
        )
    }

    /// `true` when queue examination is active.
    pub fn examines_queue(self) -> bool {
        matches!(
            self,
            LaggardStrategy::QueueExamination | LaggardStrategy::Both
        )
    }
}

/// SLA/QoS queueing budget (`t_SLA` in Eq. 3).
///
/// The paper uses 3.3 µs with its own (much faster) timing constants; we
/// scale it to ≈3.5 stalled pages of work (`150 µs` at the default
/// `t_dma + t_exe` ≈ 43.6 µs) so the detector keeps the same *intent* —
/// "a few requests' worth of stalled work" — under realistic MLC
/// latencies.
pub const SLA_NS: Nanos = 150_000;

/// Eq. 2 cold-cluster test: a sibling qualifies as migration target when
/// its recent bus utilization is below this fraction.
///
/// The paper's printed Eq. 2 reduces to "less than a single FIMM's
/// average use of the shared bus"; we express that directly as a
/// utilization threshold.
pub const COLD_BUS_THRESHOLD: f64 = 0.25;

/// Minimum time between laggard detections on the same FIMM (debounce so
/// one burst counts once).
pub const LAGGARD_COOLDOWN_NS: Nanos = 200_000;

/// Minimum time between "all FIMMs are laggards" escalations on the same
/// cluster.
pub const ESCALATION_COOLDOWN_NS: Nanos = 500_000;

/// A FIMM only counts as a laggard when its stalled-read backlog exceeds
/// the least-loaded sibling FIMM's by this factor — uniform pressure is a
/// link problem, not a layout problem.
pub const LAGGARD_IMBALANCE: f64 = 2.0;

/// Maximum pages concurrently being migrated/reshaped; further detections
/// are ignored until background programs drain, bounding the
/// interference of relocation with foreground I/O.
pub const MAX_INFLIGHT_RELOC_PAGES: usize = 256;

/// Tunables of the autonomic management module (paper §4). The settings
/// no experiment varies are constants: [`SLA_NS`], [`COLD_BUS_THRESHOLD`],
/// [`LAGGARD_COOLDOWN_NS`], [`ESCALATION_COOLDOWN_NS`],
/// [`LAGGARD_IMBALANCE`] and [`MAX_INFLIGHT_RELOC_PAGES`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutonomicParams {
    /// Eq. 1 additionally requires the cluster's shared bus to actually
    /// be the bottleneck ("the local shared bus is always busy", §4.1):
    /// recent bus utilization must exceed this fraction before a hot
    /// detection can fire. Must lie above [`COLD_BUS_THRESHOLD`].
    pub hot_bus_threshold: f64,
    /// Use *naive* migration (re-read the data from the hot cluster)
    /// instead of shadow cloning — the Figure 16b ablation.
    pub naive_migration: bool,
    /// Laggard detection strategy.
    pub laggard: LaggardStrategy,
    /// Granularity of inter-cluster data migration, in pages; at most
    /// [`MAX_INFLIGHT_RELOC_PAGES`].
    ///
    /// `1` (default) migrates exactly the straggler request's pages —
    /// the paper's "corresponding data", fully covered by shadow
    /// cloning. Larger power-of-two extents prefetch neighbouring pages
    /// at the cost of re-reading them from the hot cluster (an ablation
    /// knob; see the `ablation` bench).
    pub migration_extent_pages: u32,
    /// Break ties among equally-cold migration targets toward the
    /// least-worn cluster (§6.7's global wear-levelling view).
    pub wear_aware: bool,
}

impl Default for AutonomicParams {
    fn default() -> Self {
        AutonomicParams {
            hot_bus_threshold: 0.7,
            naive_migration: false,
            laggard: LaggardStrategy::Both,
            migration_extent_pages: 1,
            wear_aware: true,
        }
    }
}

/// Maximum number of scheduled whole-FIMM fault events per run.
///
/// Bounded (rather than a `Vec`) so [`FaultConfig`] stays `Copy`.
pub const MAX_FIMM_FAULT_EVENTS: usize = 8;

/// A scheduled whole-module fault: at `at_ns`, the named FIMM dies or
/// becomes a laggard (paper §4.2's "worn-out or broken flash" scenario).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FimmFaultEvent {
    /// Global cluster index of the victim module.
    pub cluster: u32,
    /// FIMM index within the cluster.
    pub fimm: u32,
    /// Simulation time at which the fault fires (permanent thereafter).
    pub at_ns: Nanos,
    /// What happens: death or a latency-scale slowdown.
    pub kind: FimmFaultKind,
}

/// The latest arrival instant a run accepts: 2^62 ns, about 146 years.
/// Simulated time is a `u64` nanosecond clock, and its arithmetic
/// (completion instants, utilization windows, remount delays) needs
/// headroom past the last arrival.
pub const MAX_ARRIVAL_NS: Nanos = 1 << 62;

/// Fixed remount cost after a power cut: controller restart +
/// checkpoint load.
pub const REMOUNT_BASE_NS: Nanos = 2_000_000;

/// Additional remount cost per flushed journal record replayed.
pub const REPLAY_NS_PER_RECORD: Nanos = 500;

/// A scheduled whole-array power cut: at `at_ns` the management module
/// loses its DRAM — the in-flight queue entries, the mapping cache, and
/// every un-flushed journal record — while flash contents persist. The
/// array then remounts: the FTL's recovery scan replays the flushed
/// journal onto the last checkpoint, and requests that had not yet
/// arrived arrive once the remount completes, [`REMOUNT_BASE_NS`] +
/// [`REPLAY_NS_PER_RECORD`] per replayed record after the cut.
///
/// Configuring a power loss automatically enables metadata journaling in
/// the FTL with the cadence given here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLossEvent {
    /// Simulation time of the cut.
    pub at_ns: Nanos,
    /// Journal group-commit cadence (records per flush).
    pub flush_every: u32,
    /// Flushed records between checkpoints.
    pub checkpoint_every: u32,
}

impl PowerLossEvent {
    /// A power cut at `at_ns` with the default journal cadence.
    pub fn at(at_ns: Nanos) -> Self {
        PowerLossEvent {
            at_ns,
            flush_every: 8,
            checkpoint_every: 4_096,
        }
    }
}

/// Deterministic fault-injection configuration for a whole run.
///
/// The default is *quiet*: every probability zero and no scheduled
/// events. A quiet config consumes no randomness and leaves every
/// simulated timing untouched, so fault-free runs are bit-identical to
/// builds that predate fault injection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Per-command NAND fault probabilities, applied to every package.
    pub flash: FlashFaultProfile,
    /// TLP-corruption injection, applied to every switch link direction.
    pub pcie: PcieFaultProfile,
    /// Scheduled whole-FIMM failures/slowdowns.
    pub fimm_events: [Option<FimmFaultEvent>; MAX_FIMM_FAULT_EVENTS],
    /// Scheduled whole-array power cut (at most one per run).
    pub power_loss: Option<PowerLossEvent>,
    /// Master seed; per-package and per-link RNG streams derive from it,
    /// so equal seeds reproduce the exact same fault pattern.
    pub seed: u64,
}

impl FaultConfig {
    /// `true` when nothing can ever fire: no probabilities, no events.
    pub fn is_quiet(&self) -> bool {
        self.flash.is_quiet()
            && self.pcie.is_quiet()
            && self.fimm_events.iter().all(|e| e.is_none())
            && self.power_loss.is_none()
    }

    /// Schedules a whole-array power cut.
    pub fn with_power_loss(mut self, ev: PowerLossEvent) -> Self {
        self.power_loss = Some(ev);
        self
    }

    /// Adds a scheduled FIMM fault in the first free slot.
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_FIMM_FAULT_EVENTS`] slots are taken.
    pub fn with_fimm_event(mut self, ev: FimmFaultEvent) -> Self {
        let slot = self
            .fimm_events
            .iter()
            .position(|e| e.is_none())
            .expect("no free FIMM fault-event slot");
        self.fimm_events[slot] = Some(ev);
        self
    }

    /// Adds a scheduled FIMM fault in the first free slot, or reports
    /// [`FaultScheduleFull`] when all [`MAX_FIMM_FAULT_EVENTS`] slots
    /// are taken — the non-panicking hook scenario drivers use when a
    /// generated failure storm may exceed the schedule's capacity.
    pub fn try_with_fimm_event(mut self, ev: FimmFaultEvent) -> Result<Self, FaultScheduleFull> {
        match self.fimm_events.iter().position(|e| e.is_none()) {
            Some(slot) => {
                self.fimm_events[slot] = Some(ev);
                Ok(self)
            }
            None => Err(FaultScheduleFull { dropped: ev }),
        }
    }

    /// Number of FIMM fault-event slots still free.
    pub fn free_fimm_event_slots(&self) -> usize {
        self.fimm_events.iter().filter(|e| e.is_none()).count()
    }
}

/// Error from [`FaultConfig::try_with_fimm_event`]: every one of the
/// [`MAX_FIMM_FAULT_EVENTS`] schedule slots is already occupied.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultScheduleFull {
    /// The event that could not be scheduled.
    pub dropped: FimmFaultEvent,
}

impl std::fmt::Display for FaultScheduleFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FIMM fault schedule full ({MAX_FIMM_FAULT_EVENTS} slots): dropped event at {} ns \
             for cluster {} fimm {}",
            self.dropped.at_ns, self.dropped.cluster, self.dropped.fimm
        )
    }
}

impl std::error::Error for FaultScheduleFull {}

/// A validation failure for an [`ArrayConfig`] under construction.
///
/// Returned by [`ArrayConfigBuilder::build`] and [`ArrayConfig::validate`]
/// so that impossible geometries are rejected before a simulation is
/// built, instead of panicking (or silently misbehaving) mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// A structural dimension (switches, clusters, FIMMs, packages,
    /// dies, …) is zero, so the array has no hardware to simulate.
    ZeroDimension {
        /// Which dimension is zero.
        field: &'static str,
    },
    /// A credit-queue depth is zero; flow control would deadlock on the
    /// first request.
    ZeroQueueDepth {
        /// Which queue (root complex, switch, or endpoint).
        queue: &'static str,
    },
    /// A fraction-valued tunable (bus-utilization threshold, fault
    /// probability) falls outside `[0, 1]`.
    ThresholdOutOfRange {
        /// Which tunable.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The Eq. 1 hot threshold is not above the Eq. 2 cold-cluster
    /// threshold ([`COLD_BUS_THRESHOLD`]), so a cluster could be hot and
    /// a migration target at once and data would ping-pong.
    ColdNotBelowHot {
        /// The cold-bus threshold ([`COLD_BUS_THRESHOLD`]).
        cold: f64,
        /// Configured hot-bus threshold.
        hot: f64,
    },
    /// A scheduled FIMM fault event names a cluster or FIMM outside the
    /// configured topology fan-out.
    FaultEventOutOfRange {
        /// Slot index of the offending event.
        index: usize,
        /// Its (global) cluster index.
        cluster: u32,
        /// Its FIMM index.
        fimm: u32,
    },
    /// The migration extent is zero or exceeds the relocation in-flight
    /// budget ([`MAX_INFLIGHT_RELOC_PAGES`]), so autonomic migration
    /// could never move a single extent.
    BadMigrationExtent {
        /// Configured extent in pages.
        extent_pages: u32,
        /// The in-flight relocation budget in pages.
        max_inflight: usize,
    },
    /// A tenant spec carries a zero weight, p99 target, or queue depth —
    /// the tenant could never be scheduled (or never admitted).
    BadTenantSpec {
        /// Index of the offending tenant in the configured table.
        index: usize,
        /// Which field is zero (`weight`, `sla_p99_ns`, or `qd_limit`).
        field: &'static str,
    },
    /// A flash dimension exceeds what one flash command can address
    /// ([`FlashGeometry::MAX_DIES`], [`FlashGeometry::MAX_PLANES`]).
    GeometryTooWide {
        /// Which dimension (`flash.dies` or `flash.planes`).
        field: &'static str,
        /// The configured value.
        value: u32,
        /// The supported maximum.
        max: u32,
    },
    /// More tenants than the front door supports.
    TooManyTenants {
        /// Configured tenant count.
        count: usize,
        /// Supported maximum ([`MAX_TENANTS`]).
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDimension { field } => {
                write!(f, "array dimension `{field}` must be nonzero")
            }
            ConfigError::ZeroQueueDepth { queue } => {
                write!(f, "queue depth `{queue}` must be nonzero")
            }
            ConfigError::ThresholdOutOfRange { field, value } => {
                write!(f, "`{field}` = {value} is outside [0, 1]")
            }
            ConfigError::ColdNotBelowHot { cold, hot } => {
                write!(
                    f,
                    "cold-bus threshold {cold} must be below hot-bus threshold {hot}"
                )
            }
            ConfigError::FaultEventOutOfRange {
                index,
                cluster,
                fimm,
            } => {
                write!(
                    f,
                    "FIMM fault event #{index} targets cluster {cluster} fimm {fimm}, \
                     outside the configured topology"
                )
            }
            ConfigError::BadMigrationExtent {
                extent_pages,
                max_inflight,
            } => {
                write!(
                    f,
                    "migration extent of {extent_pages} pages cannot fit the \
                     in-flight relocation budget of {max_inflight} pages"
                )
            }
            ConfigError::BadTenantSpec { index, field } => {
                write!(f, "tenant #{index}: `{field}` must be nonzero")
            }
            ConfigError::GeometryTooWide { field, value, max } => {
                write!(
                    f,
                    "`{field}` = {value} exceeds the {max} a flash command can address"
                )
            }
            ConfigError::TooManyTenants { count, max } => {
                write!(
                    f,
                    "{count} tenants configured; the front door supports at most {max}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Maximum tenants the front door supports; well above the 1000-tenant
/// experiments, merely a guard against absurd metric/lane fan-out.
pub const MAX_TENANTS: usize = 65_536;

/// Complete configuration of one all-flash array instance.
///
/// Prefer constructing these through [`ArrayConfig::builder`] (or
/// [`ArrayConfig::small_builder`] in tests), which validates cross-field
/// invariants and returns a typed [`ConfigError`]; writing a bare struct
/// literal skips validation and is discouraged outside this crate.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayConfig {
    /// Physical dimensions (network × FIMMs × packages × geometry).
    pub shape: ArrayShape,
    /// PCI-E fabric parameters.
    pub pcie: PcieParams,
    /// NAND and ONFi timing.
    pub flash_timing: FlashTiming,
    /// Autonomic-management tunables.
    pub autonomic: AutonomicParams,
    /// Write-back buffer capacity in pages per cluster (§4.2: writes
    /// return immediately while buffered; §6.6: the DRAM removed from
    /// individual SSDs is relocated to the management module, so the
    /// per-cluster buffer is DRAM-scale, not queue-scale).
    pub write_buffer_pages: usize,
    /// Trigger background GC when a FIMM's free pool drops below this
    /// many blocks.
    pub gc_threshold_blocks: u64,
    /// DFTL-style mapping-cache size in translation pages; `0` (the
    /// Triple-A default) keeps the whole map in the management module's
    /// relocated DRAM (§6.6) and translations are free. Non-zero sizes
    /// charge a flash read per translation-page miss.
    pub mapping_cache_pages: usize,
    /// Hot-spare FIMMs kept powered but unused. When a scheduled fault
    /// kills a module and a spare remains, the autonomic layer rebuilds
    /// the dead module's pages onto the spare in the background (reading
    /// survivors' copies via recovery reads), then swaps the spare into
    /// the dead module's slot. `0` (default) disables rebuild: dead
    /// modules stay dead and reads fail over to siblings forever.
    pub hot_spares: u32,
    /// Seed for the simulator's internal tie-breaking RNG.
    pub seed: u64,
    /// Record the per-request `(submit, latency)` series (Figure 16).
    pub collect_series: bool,
    /// Deterministic fault injection (quiet by default).
    pub faults: FaultConfig,
    /// Multi-tenant front door: per-tenant submission lanes with
    /// weighted-fair arbitration and admission control. Empty (default)
    /// bypasses the front door entirely — requests flow through the
    /// root-complex credit queue exactly as on an untenanted build.
    pub tenants: TenantConfig,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            shape: ArrayShape::default(),
            pcie: PcieParams::default(),
            flash_timing: FlashTiming::default(),
            autonomic: AutonomicParams::default(),
            write_buffer_pages: 2_048,
            gc_threshold_blocks: 4,
            mapping_cache_pages: 0,
            hot_spares: 0,
            seed: 0xAAA_2014,
            collect_series: false,
            faults: FaultConfig::default(),
            tenants: TenantConfig::none(),
        }
    }
}

impl ArrayConfig {
    /// The paper's §5.1 baseline: a 4×16 network of 4-FIMM clusters
    /// (16 TB).
    pub fn paper_baseline() -> Self {
        ArrayConfig::default()
    }

    /// A small 2×4 array with tiny flash geometry: fast to simulate,
    /// used throughout tests and doc examples.
    pub fn small_test() -> Self {
        ArrayConfig {
            shape: ArrayShape::small_test(),
            collect_series: true,
            ..ArrayConfig::default()
        }
    }

    /// Eq. 1 hot-cluster latency threshold for a request of `npages`
    /// pages: `t_DMA·(n_page + n_FIMM − 1) + t_exe·n_page`.
    pub fn eq1_threshold_ns(&self, npages: u32) -> Nanos {
        let t_dma = self.flash_timing.dma_nanos(self.shape.flash.page_size);
        let t_exe = self.flash_timing.exe_nanos(triplea_flash::OpKind::Read);
        t_dma * (npages as u64 + self.shape.fimms_per_cluster as u64 - 1) + t_exe * npages as u64
    }

    /// Eq. 3 stalled-work estimate for `pending_pages` pages queued on
    /// one FIMM: `Σ (t_DMA + t_exe)·n_page`.
    pub fn eq3_backlog_ns(&self, pending_pages: u64) -> Nanos {
        let t_dma = self.flash_timing.dma_nanos(self.shape.flash.page_size);
        let t_exe = self.flash_timing.exe_nanos(triplea_flash::OpKind::Read);
        (t_dma + t_exe) * pending_pages
    }

    /// A validating builder seeded with the paper's §5.1 baseline.
    pub fn builder() -> ArrayConfigBuilder {
        ArrayConfigBuilder::from_base(ArrayConfig::paper_baseline())
    }

    /// A validating builder seeded with the small 2×4 test array.
    pub fn small_builder() -> ArrayConfigBuilder {
        ArrayConfigBuilder::from_base(ArrayConfig::small_test())
    }

    /// Checks every cross-field invariant the builder enforces.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found, in a deterministic order
    /// (dimensions, flash widths, queues, thresholds, fault
    /// probabilities, fault events, migration extent).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let flash = &self.shape.flash;
        let dims: [(&'static str, u64); 10] = [
            ("topology.switches", self.shape.topology.switches as u64),
            (
                "topology.clusters_per_switch",
                self.shape.topology.clusters_per_switch as u64,
            ),
            ("fimms_per_cluster", self.shape.fimms_per_cluster as u64),
            ("packages_per_fimm", self.shape.packages_per_fimm as u64),
            ("flash.dies", flash.dies as u64),
            ("flash.planes", flash.planes as u64),
            ("flash.blocks_per_plane", flash.blocks_per_plane as u64),
            ("flash.pages_per_block", flash.pages_per_block as u64),
            ("pcie.lanes", self.pcie.lanes as u64),
            ("write_buffer_pages", self.write_buffer_pages as u64),
        ];
        for (field, v) in dims {
            if v == 0 {
                return Err(ConfigError::ZeroDimension { field });
            }
        }
        let widths = [
            ("flash.dies", flash.dies, FlashGeometry::MAX_DIES),
            ("flash.planes", flash.planes, FlashGeometry::MAX_PLANES),
        ];
        for (field, value, max) in widths {
            if value > max {
                return Err(ConfigError::GeometryTooWide { field, value, max });
            }
        }
        let queues: [(&'static str, usize); 3] = [
            ("pcie.rc_queue", self.pcie.rc_queue),
            ("pcie.switch_queue", self.pcie.switch_queue),
            ("pcie.ep_queue", self.pcie.ep_queue),
        ];
        for (queue, v) in queues {
            if v == 0 {
                return Err(ConfigError::ZeroQueueDepth { queue });
            }
        }
        let fractions: [(&'static str, f64); 5] = [
            (
                "autonomic.hot_bus_threshold",
                self.autonomic.hot_bus_threshold,
            ),
            (
                "faults.flash.read_transient_prob",
                self.faults.flash.read_transient_prob,
            ),
            (
                "faults.flash.prog_fail_prob",
                self.faults.flash.prog_fail_prob,
            ),
            (
                "faults.flash.erase_fail_prob",
                self.faults.flash.erase_fail_prob,
            ),
            ("faults.pcie.corrupt_prob", self.faults.pcie.corrupt_prob),
        ];
        for (field, value) in fractions {
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::ThresholdOutOfRange { field, value });
            }
        }
        if COLD_BUS_THRESHOLD >= self.autonomic.hot_bus_threshold {
            return Err(ConfigError::ColdNotBelowHot {
                cold: COLD_BUS_THRESHOLD,
                hot: self.autonomic.hot_bus_threshold,
            });
        }
        let total_clusters = self.shape.topology.total_clusters();
        for (index, ev) in self.faults.fimm_events.iter().enumerate() {
            if let Some(ev) = ev {
                if ev.cluster >= total_clusters || ev.fimm >= self.shape.fimms_per_cluster {
                    return Err(ConfigError::FaultEventOutOfRange {
                        index,
                        cluster: ev.cluster,
                        fimm: ev.fimm,
                    });
                }
            }
        }
        if self.autonomic.migration_extent_pages == 0
            || self.autonomic.migration_extent_pages as usize > MAX_INFLIGHT_RELOC_PAGES
        {
            return Err(ConfigError::BadMigrationExtent {
                extent_pages: self.autonomic.migration_extent_pages,
                max_inflight: MAX_INFLIGHT_RELOC_PAGES,
            });
        }
        if self.tenants.len() > MAX_TENANTS {
            return Err(ConfigError::TooManyTenants {
                count: self.tenants.len(),
                max: MAX_TENANTS,
            });
        }
        for (index, spec) in self.tenants.specs().iter().enumerate() {
            let field = if spec.weight == 0 {
                Some("weight")
            } else if spec.sla_p99_ns == 0 {
                Some("sla_p99_ns")
            } else if spec.qd_limit == 0 {
                Some("qd_limit")
            } else {
                None
            };
            if let Some(field) = field {
                return Err(ConfigError::BadTenantSpec { index, field });
            }
        }
        Ok(())
    }
}

/// Validating builder for [`ArrayConfig`]; see [`ArrayConfig::builder`].
///
/// Typed setters cover the knobs experiments actually sweep; anything
/// else goes through [`ArrayConfigBuilder::tune`], which still funnels
/// the result through [`ArrayConfig::validate`] at
/// [`build`](ArrayConfigBuilder::build) time.
#[derive(Clone, Debug)]
pub struct ArrayConfigBuilder {
    cfg: ArrayConfig,
}

impl ArrayConfigBuilder {
    /// A builder starting from an existing (presumed-sane) config.
    pub fn from_base(cfg: ArrayConfig) -> Self {
        ArrayConfigBuilder { cfg }
    }

    /// Sets the PCI-E network shape.
    pub fn topology(mut self, switches: u32, clusters_per_switch: u32) -> Self {
        self.cfg.shape.topology = Topology {
            switches,
            clusters_per_switch,
        };
        self
    }

    /// Sets the network width, keeping the switch count (the §6.4
    /// sensitivity sweeps: 8–20 clusters per switch).
    pub fn clusters_per_switch(mut self, n: u32) -> Self {
        self.cfg.shape.topology.clusters_per_switch = n;
        self
    }

    /// Sets the number of FIMMs on each cluster's shared bus.
    pub fn fimms_per_cluster(mut self, n: u32) -> Self {
        self.cfg.shape.fimms_per_cluster = n;
        self
    }

    /// Sets the per-cluster write-back buffer capacity in pages.
    pub fn write_buffer_pages(mut self, pages: usize) -> Self {
        self.cfg.write_buffer_pages = pages;
        self
    }

    /// Sets the number of hot-spare FIMMs available for rebuild.
    pub fn hot_spares(mut self, n: u32) -> Self {
        self.cfg.hot_spares = n;
        self
    }

    /// Enables/disables the per-request latency series recorder.
    pub fn collect_series(mut self, on: bool) -> Self {
        self.cfg.collect_series = on;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Configures the multi-tenant front door: tenant `i` gets the
    /// `i`-th spec. An empty iterator keeps the untenanted default
    /// path. Specs are validated (nonzero weight, p99 target, and
    /// queue depth) at [`build`](ArrayConfigBuilder::build) time.
    ///
    /// ```
    /// use triplea_core::{ArrayConfig, TenantSpec};
    ///
    /// let cfg = ArrayConfig::small_builder()
    ///     .with_tenants([TenantSpec::interactive(), TenantSpec::batch()])
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.tenants.len(), 2);
    /// ```
    pub fn with_tenants(mut self, specs: impl IntoIterator<Item = TenantSpec>) -> Self {
        self.cfg.tenants = specs.into_iter().collect();
        self
    }

    /// Escape hatch for fields without a dedicated setter: `f` mutates
    /// the config in place and the result is still validated by
    /// [`build`](ArrayConfigBuilder::build).
    pub fn tune(mut self, f: impl FnOnce(&mut ArrayConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] violated; see [`ArrayConfig::validate`].
    pub fn build(self) -> Result<ArrayConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_baseline() {
        let c = ArrayConfig::paper_baseline();
        assert_eq!(c.shape.topology.total_clusters(), 64);
        assert_eq!(c.autonomic.migration_extent_pages, 1);
        assert_eq!(c.shape.fimms_per_cluster, 4);
    }

    #[test]
    fn eq1_threshold_formula() {
        let c = ArrayConfig::paper_baseline();
        let t_dma = 2_560;
        let t_exe = 26_000;
        assert_eq!(c.eq1_threshold_ns(1), t_dma * 4 + t_exe);
        assert_eq!(c.eq1_threshold_ns(4), t_dma * 7 + t_exe * 4);
    }

    #[test]
    fn eq3_backlog_scales_linearly() {
        let c = ArrayConfig::paper_baseline();
        assert_eq!(c.eq3_backlog_ns(0), 0);
        assert_eq!(c.eq3_backlog_ns(2), 2 * c.eq3_backlog_ns(1));
    }

    #[test]
    fn network_width_builder() {
        let c = ArrayConfig::builder()
            .clusters_per_switch(20)
            .build()
            .unwrap();
        assert_eq!(c.shape.topology.total_clusters(), 80);
    }

    #[test]
    fn laggard_strategy_flags() {
        assert!(LaggardStrategy::Both.monitors_latency());
        assert!(LaggardStrategy::Both.examines_queue());
        assert!(!LaggardStrategy::QueueExamination.monitors_latency());
        assert!(!LaggardStrategy::LatencyMonitoring.examines_queue());
    }

    #[test]
    fn mode_display() {
        assert_eq!(ManagementMode::Autonomic.to_string(), "triple-a");
        assert_eq!(ManagementMode::NonAutonomic.to_string(), "non-autonomic");
    }

    #[test]
    fn default_fault_config_is_quiet() {
        assert!(FaultConfig::default().is_quiet());
        assert!(ArrayConfig::default().faults.is_quiet());
        assert!(ArrayConfig::small_test().faults.is_quiet());
    }

    #[test]
    fn fault_events_fill_free_slots() {
        let ev = FimmFaultEvent {
            cluster: 0,
            fimm: 1,
            at_ns: 5_000,
            kind: FimmFaultKind::Dead,
        };
        let fc = FaultConfig::default()
            .with_fimm_event(ev)
            .with_fimm_event(FimmFaultEvent {
                fimm: 2,
                kind: FimmFaultKind::Slowdown(4),
                ..ev
            });
        assert!(!fc.is_quiet());
        assert_eq!(fc.fimm_events[0], Some(ev));
        assert_eq!(fc.fimm_events[1].unwrap().fimm, 2);
        assert!(fc.fimm_events[2].is_none());
    }

    #[test]
    #[should_panic(expected = "no free FIMM fault-event slot")]
    fn fault_event_slots_are_bounded() {
        let ev = FimmFaultEvent {
            cluster: 0,
            fimm: 0,
            at_ns: 0,
            kind: FimmFaultKind::Dead,
        };
        let mut fc = FaultConfig::default();
        for _ in 0..=MAX_FIMM_FAULT_EVENTS {
            fc = fc.with_fimm_event(ev);
        }
    }

    #[test]
    fn try_with_fimm_event_reports_full_schedule_instead_of_panicking() {
        let ev = FimmFaultEvent {
            cluster: 1,
            fimm: 0,
            at_ns: 1_000,
            kind: FimmFaultKind::Dead,
        };
        let mut fc = FaultConfig::default();
        for i in 0..MAX_FIMM_FAULT_EVENTS {
            assert_eq!(fc.free_fimm_event_slots(), MAX_FIMM_FAULT_EVENTS - i);
            fc = fc.try_with_fimm_event(ev).unwrap();
        }
        assert_eq!(fc.free_fimm_event_slots(), 0);
        let err = fc.try_with_fimm_event(ev).unwrap_err();
        assert_eq!(err.dropped, ev);
        assert!(err.to_string().contains("schedule full"), "{err}");
        assert!(fc.fimm_events.iter().all(|e| e.is_some()));
    }

    #[test]
    fn builder_accepts_baseline_and_small_test() {
        assert_eq!(
            ArrayConfig::builder().build().unwrap(),
            ArrayConfig::paper_baseline()
        );
        assert_eq!(
            ArrayConfig::small_builder().build().unwrap(),
            ArrayConfig::small_test()
        );
    }

    #[test]
    fn builder_rejects_zero_fanout() {
        let err = ArrayConfig::builder()
            .fimms_per_cluster(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ZeroDimension {
                field: "fimms_per_cluster"
            }
        );
        let err = ArrayConfig::builder().topology(0, 16).build().unwrap_err();
        assert!(matches!(err, ConfigError::ZeroDimension { .. }), "{err}");
    }

    #[test]
    fn builder_rejects_empty_flash_geometry() {
        for field in [
            "flash.planes",
            "flash.blocks_per_plane",
            "flash.pages_per_block",
        ] {
            let err = ArrayConfig::small_builder()
                .tune(|c| {
                    let g = &mut c.shape.flash;
                    *match field {
                        "flash.planes" => &mut g.planes,
                        "flash.blocks_per_plane" => &mut g.blocks_per_plane,
                        _ => &mut g.pages_per_block,
                    } = 0;
                })
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::ZeroDimension { field });
        }
    }

    #[test]
    fn builder_rejects_flash_geometry_wider_than_a_command() {
        let max = FlashGeometry::MAX_DIES;
        let ok = ArrayConfig::small_builder().tune(|c| c.shape.flash.dies = max);
        assert!(ok.build().is_ok());
        let err = ArrayConfig::small_builder()
            .tune(|c| c.shape.flash.dies = max + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::GeometryTooWide {
                field: "flash.dies",
                value: max + 1,
                max
            }
        );
        assert!(err.to_string().contains("flash command"), "{err}");
        let max = FlashGeometry::MAX_PLANES;
        let err = ArrayConfig::small_builder()
            .tune(|c| c.shape.flash.planes = max + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::GeometryTooWide {
                field: "flash.planes",
                value: max + 1,
                max
            }
        );
    }

    #[test]
    fn builder_rejects_zero_queue_depths() {
        let err = ArrayConfig::builder()
            .tune(|c| c.pcie.switch_queue = 0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ZeroQueueDepth {
                queue: "pcie.switch_queue"
            }
        );
    }

    #[test]
    fn builder_rejects_inverted_thresholds() {
        let err = ArrayConfig::builder()
            .tune(|c| c.autonomic.hot_bus_threshold = 0.2)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ColdNotBelowHot {
                cold: COLD_BUS_THRESHOLD,
                hot: 0.2
            }
        );
        assert!(
            err.to_string().contains("below hot-bus threshold 0.2"),
            "{err}"
        );
        let err = ArrayConfig::builder()
            .tune(|c| c.autonomic.hot_bus_threshold = 1.5)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::ThresholdOutOfRange { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_out_of_range_fault_events() {
        let err = ArrayConfig::small_builder()
            .faults(FaultConfig::default().with_fimm_event(FimmFaultEvent {
                cluster: 0,
                fimm: 99,
                at_ns: 0,
                kind: FimmFaultKind::Dead,
            }))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::FaultEventOutOfRange {
                index: 0,
                cluster: 0,
                fimm: 99
            }
        );
        assert!(err.to_string().contains("fault event #0"), "{err}");
    }

    #[test]
    fn builder_rejects_oversized_migration_extent() {
        let err = ArrayConfig::builder()
            .tune(|c| c.autonomic.migration_extent_pages = 512)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadMigrationExtent {
                extent_pages: 512,
                max_inflight: MAX_INFLIGHT_RELOC_PAGES
            }
        );
        let err = ArrayConfig::builder()
            .tune(|c| c.autonomic.migration_extent_pages = 0)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::BadMigrationExtent { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_typed_setters_apply() {
        let c = ArrayConfig::builder()
            .topology(2, 8)
            .fimms_per_cluster(2)
            .collect_series(true)
            .write_buffer_pages(64)
            .build()
            .unwrap();
        assert_eq!(c.shape.topology.total_clusters(), 16);
        assert_eq!(c.shape.fimms_per_cluster, 2);
        assert!(c.collect_series);
        assert_eq!(c.write_buffer_pages, 64);
    }

    #[test]
    fn power_loss_breaks_quiet() {
        let fc = FaultConfig::default().with_power_loss(PowerLossEvent::at(9_000_000));
        assert!(!fc.is_quiet());
        let ev = fc.power_loss.unwrap();
        assert_eq!(ev.at_ns, 9_000_000);
        assert!(ev.flush_every >= 1 && ev.checkpoint_every >= 1);
    }

    #[test]
    fn hot_spares_builder() {
        let c = ArrayConfig::small_builder().hot_spares(2).build().unwrap();
        assert_eq!(c.hot_spares, 2);
        assert_eq!(ArrayConfig::default().hot_spares, 0);
    }

    #[test]
    fn with_tenants_builds_and_validates() {
        let c = ArrayConfig::small_builder()
            .with_tenants([TenantSpec::interactive(), TenantSpec::batch()])
            .build()
            .unwrap();
        assert!(c.tenants.is_active());
        assert_eq!(c.tenants.len(), 2);
        assert_eq!(c.tenants.specs()[0].weight, 8);
        assert!(!ArrayConfig::small_test().tenants.is_active());
    }

    #[test]
    fn tenant_specs_are_validated_in_order() {
        let bad = |spec: TenantSpec, field: &'static str| {
            let err = ArrayConfig::small_builder()
                .with_tenants([TenantSpec::interactive(), spec])
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::BadTenantSpec { index: 1, field });
            assert!(err.to_string().contains("tenant #1"), "{err}");
        };
        bad(
            TenantSpec {
                weight: 0,
                ..TenantSpec::batch()
            },
            "weight",
        );
        bad(
            TenantSpec {
                sla_p99_ns: 0,
                ..TenantSpec::batch()
            },
            "sla_p99_ns",
        );
        bad(
            TenantSpec {
                qd_limit: 0,
                ..TenantSpec::batch()
            },
            "qd_limit",
        );
    }

    #[test]
    fn tenant_count_is_bounded() {
        let mut c = ArrayConfig::small_test();
        c.tenants = (0..=MAX_TENANTS).map(|_| TenantSpec::batch()).collect();
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyTenants {
                count: MAX_TENANTS + 1,
                max: MAX_TENANTS
            }
        );
        assert!(err.to_string().contains("at most"), "{err}");
    }

    #[test]
    fn nonzero_probability_is_not_quiet() {
        let mut fc = FaultConfig::default();
        fc.flash.read_transient_prob = 1e-3;
        assert!(!fc.is_quiet());
        let mut fc = FaultConfig::default();
        fc.pcie.corrupt_prob = 1e-3;
        assert!(!fc.is_quiet());
    }
}
