//! Typed federation configuration: volume geometry, the inter-array
//! laggard policy, and the validating builder.

use triplea_sim::trace::TraceConfig;
use triplea_sim::Nanos;

use crate::config::{ArrayConfig, ArrayConfigBuilder, ConfigError, FaultConfig, ManagementMode};
use crate::federation::manager::Federation;

/// Member arrays a federation may hold.
pub const MAX_ARRAYS: u32 = 64;

/// Largest chunk the volume mapper will stripe by, in pages. Chunks are
/// cloned as single requests during inter-array migration, so the cap
/// bounds the burst one migration injects.
pub(crate) const MAX_CHUNK_PAGES: u64 = 4_096;

/// Geometry of one federated volume: how the volume address space
/// spreads over the member arrays.
///
/// With stripe width `W` and replication factor `R` the federation must
/// own exactly `W × R` arrays; see the module docs for the placement
/// function.
#[derive(Clone, Debug, PartialEq)]
pub struct VolumeSpec {
    /// Arrays a single copy stripes across (`W ≥ 1`).
    pub stripe_width: u32,
    /// Full copies of every chunk (`R ≥ 1`; `1` = striping only).
    pub replicas: u32,
    /// Pages per stripe chunk.
    pub chunk_pages: u64,
    /// Volume capacity in pages. `0` (the default) sizes the volume to
    /// fill the member arrays, less the migration-slot reserve.
    pub volume_pages: u64,
}

impl VolumeSpec {
    /// A striped, unreplicated volume over `width` arrays.
    pub fn striped(width: u32) -> Self {
        VolumeSpec {
            stripe_width: width,
            replicas: 1,
            chunk_pages: 64,
            volume_pages: 0,
        }
    }

    /// A striped volume with `replicas` full copies (RAID-10 layout over
    /// `width × replicas` arrays).
    pub fn replicated(width: u32, replicas: u32) -> Self {
        VolumeSpec {
            replicas,
            ..VolumeSpec::striped(width)
        }
    }

    /// Sets the stripe chunk size, in pages.
    pub fn chunk_pages(mut self, pages: u64) -> Self {
        self.chunk_pages = pages;
        self
    }

    /// Sets an explicit volume capacity, in pages.
    pub fn volume_pages(mut self, pages: u64) -> Self {
        self.volume_pages = pages;
        self
    }
}

/// The inter-array laggard policy: the Eq. 3 machinery lifted one level
/// up, where whole member arrays take the role FIMMs play inside one
/// box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaggardPolicy {
    /// Federation p99 budget, ns. An array whose cumulative p99 exceeds
    /// this *and* lags its best peer by [`LaggardPolicy::imbalance_milli`]
    /// is the federation's laggard. `0` disables the policy.
    pub sla_p99_ns: Nanos,
    /// Laggard threshold relative to the healthiest peer, in
    /// milli-units: `1500` flags an array once its p99 is 1.5× the best
    /// peer's (integer arithmetic keeps the comparison deterministic).
    pub imbalance_milli: u64,
    /// Epoch length of the federation scheduler, ns: member arrays are
    /// co-simulated in lockstep windows of this size, and the laggard
    /// detector samples once per epoch.
    pub epoch_ns: Nanos,
    /// Hot chunks shadow-cloned off the laggard per detection.
    pub max_chunks_per_epoch: u32,
    /// Migration-slot chunks reserved on every array for inbound clones;
    /// also the capacity check's reserve.
    pub migration_slots: u64,
    /// Epochs to hold off after a migration round before re-examining
    /// (the inter-array analogue of the Eq. 3 cooldown).
    pub cooldown_epochs: u32,
}

impl Default for LaggardPolicy {
    fn default() -> Self {
        LaggardPolicy {
            sla_p99_ns: 1_000_000,
            imbalance_milli: 1_300,
            epoch_ns: 500_000,
            max_chunks_per_epoch: 4,
            migration_slots: 64,
            cooldown_epochs: 2,
        }
    }
}

/// A validated federation configuration, as resolved by
/// [`FederationBuilder::build`]. Geometry fields (`chunks`, `rows`,
/// `volume_pages`) are derived and cross-checked against the member
/// array's capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct FederationConfig {
    /// Configuration of each (homogeneous) member array. Per-array fault
    /// plans may differ via [`FederationBuilder::array_faults`].
    pub array: ArrayConfig,
    /// Member-array count (`= stripe_width × replicas`).
    pub arrays: u32,
    /// The volume geometry.
    pub volume: VolumeSpec,
    /// The inter-array laggard policy.
    pub policy: LaggardPolicy,
    /// Management mode of every member array.
    pub mode: ManagementMode,
    /// Volume chunks (`ceil(volume_pages / chunk_pages)`).
    pub chunks: u64,
    /// Array-local home rows (`ceil(chunks / stripe_width)`).
    pub rows: u64,
    /// Per-array fault-plan overrides `(array index, plan)`.
    pub fault_overrides: Vec<(u32, FaultConfig)>,
    /// Recorder attached to the volume manager, when tracing.
    pub(crate) trace: Option<TraceConfig>,
}

/// Returned by [`FederationBuilder::build`] so impossible federations
/// are rejected before any member array is assembled, in the style of
/// [`ConfigError`].
#[derive(Clone, Debug, PartialEq)]
pub enum FederationError {
    /// The member-array configuration itself failed validation.
    Array(ConfigError),
    /// `arrays == 0`.
    NoArrays,
    /// More member arrays than [`MAX_ARRAYS`].
    TooManyArrays {
        /// Requested count.
        count: u32,
        /// The supported maximum.
        max: u32,
    },
    /// Stripe width, replicas, or chunk size is zero.
    ZeroGeometry {
        /// Which geometry field was zero.
        field: &'static str,
    },
    /// Chunks above `MAX_CHUNK_PAGES` (4096) pages.
    ChunkTooLarge {
        /// Requested chunk size, pages.
        chunk_pages: u64,
        /// The supported maximum.
        max: u64,
    },
    /// `stripe_width × replicas` does not equal the member-array count.
    GeometryMismatch {
        /// Member arrays configured.
        arrays: u32,
        /// Requested stripe width.
        stripe_width: u32,
        /// Requested replication factor.
        replicas: u32,
    },
    /// The volume (home rows plus the migration-slot reserve) does not
    /// fit a member array.
    VolumeOverflow {
        /// Pages each array would need.
        needed_pages: u64,
        /// Pages each array actually has.
        array_pages: u64,
    },
    /// The derived volume holds no chunks at all.
    EmptyVolume,
    /// `policy.epoch_ns == 0`: the epoch scheduler cannot advance.
    ZeroEpoch,
    /// A fault override addresses an array outside the federation.
    FaultOverrideOutOfRange {
        /// The array index the override named.
        array: u32,
        /// Member arrays configured.
        arrays: u32,
    },
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::Array(e) => write!(f, "member-array config invalid: {e}"),
            FederationError::NoArrays => write!(f, "a federation needs at least one member array"),
            FederationError::TooManyArrays { count, max } => {
                write!(
                    f,
                    "{count} member arrays configured; at most {max} supported"
                )
            }
            FederationError::ZeroGeometry { field } => {
                write!(f, "volume geometry field `{field}` must be at least 1")
            }
            FederationError::ChunkTooLarge { chunk_pages, max } => {
                write!(
                    f,
                    "chunk of {chunk_pages} pages exceeds the {max}-page maximum"
                )
            }
            FederationError::GeometryMismatch {
                arrays,
                stripe_width,
                replicas,
            } => write!(
                f,
                "stripe_width {stripe_width} × replicas {replicas} requires \
                 {} member arrays, but {arrays} are configured",
                stripe_width * replicas
            ),
            FederationError::VolumeOverflow {
                needed_pages,
                array_pages,
            } => write!(
                f,
                "volume needs {needed_pages} pages per member array \
                 (home rows + migration reserve), but each array has {array_pages}"
            ),
            FederationError::EmptyVolume => {
                write!(f, "derived volume geometry holds zero chunks")
            }
            FederationError::ZeroEpoch => {
                write!(f, "policy.epoch_ns must be at least 1 ns")
            }
            FederationError::FaultOverrideOutOfRange { array, arrays } => write!(
                f,
                "fault override addresses array.{array}, but the federation has {arrays} arrays"
            ),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<ConfigError> for FederationError {
    fn from(e: ConfigError) -> Self {
        FederationError::Array(e)
    }
}

/// Builder for a [`Federation`]; obtained from
/// [`SimulationBuilder::with_federation`](crate::SimulationBuilder::with_federation).
/// Validates the member-array configuration *and* the federation
/// geometry at [`build`](FederationBuilder::build) time.
#[derive(Clone, Debug)]
pub struct FederationBuilder {
    pub(crate) base: ArrayConfigBuilder,
    pub(crate) mode: ManagementMode,
    pub(crate) trace: Option<TraceConfig>,
    pub(crate) arrays: u32,
    pub(crate) volume: VolumeSpec,
    pub(crate) policy: LaggardPolicy,
    pub(crate) fault_overrides: Vec<(u32, FaultConfig)>,
}

impl FederationBuilder {
    /// Sets the member-array count.
    pub fn arrays(mut self, n: u32) -> Self {
        self.arrays = n;
        self
    }

    /// Sets the volume geometry.
    pub fn volume(mut self, spec: VolumeSpec) -> Self {
        self.volume = spec;
        self
    }

    /// Sets the inter-array laggard policy.
    pub fn policy(mut self, policy: LaggardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Applies typed edits to the shared member-array configuration.
    pub fn configure(mut self, f: impl FnOnce(ArrayConfigBuilder) -> ArrayConfigBuilder) -> Self {
        self.base = f(self.base);
        self
    }

    /// Sets the management mode of every member array.
    pub fn mode(mut self, mode: ManagementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a federation-level event recorder; the run's
    /// [`FederationRun::trace`](crate::FederationRun) then carries
    /// cross-array hop, laggard, and migration events plus
    /// `federation.array.N.*` metrics.
    pub fn with_recorder(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Replaces the fault plan of one member array — how a degraded-box
    /// scenario aims a fault storm at a single federation member.
    pub fn array_faults(mut self, array: u32, faults: FaultConfig) -> Self {
        self.fault_overrides.push((array, faults));
        self
    }

    /// Validates and assembles the federation.
    ///
    /// # Errors
    ///
    /// Returns the first [`FederationError`] found; nothing is
    /// constructed on failure.
    pub fn build(self) -> Result<Federation, FederationError> {
        let array = self.base.build()?;
        if self.arrays == 0 {
            return Err(FederationError::NoArrays);
        }
        if self.arrays > MAX_ARRAYS {
            return Err(FederationError::TooManyArrays {
                count: self.arrays,
                max: MAX_ARRAYS,
            });
        }
        let v = &self.volume;
        for (field, val) in [
            ("stripe_width", v.stripe_width as u64),
            ("replicas", v.replicas as u64),
            ("chunk_pages", v.chunk_pages),
        ] {
            if val == 0 {
                return Err(FederationError::ZeroGeometry { field });
            }
        }
        if v.chunk_pages > MAX_CHUNK_PAGES {
            return Err(FederationError::ChunkTooLarge {
                chunk_pages: v.chunk_pages,
                max: MAX_CHUNK_PAGES,
            });
        }
        if v.stripe_width * v.replicas != self.arrays {
            return Err(FederationError::GeometryMismatch {
                arrays: self.arrays,
                stripe_width: v.stripe_width,
                replicas: v.replicas,
            });
        }
        if self.policy.epoch_ns == 0 {
            return Err(FederationError::ZeroEpoch);
        }
        for &(a, _) in &self.fault_overrides {
            if a >= self.arrays {
                return Err(FederationError::FaultOverrideOutOfRange {
                    array: a,
                    arrays: self.arrays,
                });
            }
        }
        let array_pages = array.shape.total_pages();
        let w = v.stripe_width as u64;
        let reserve = self.policy.migration_slots * v.chunk_pages;
        let mut volume = self.volume;
        let (chunks, rows) = if volume.volume_pages == 0 {
            // Fill the member arrays, less the migration reserve.
            let rows = (array_pages.saturating_sub(reserve)) / volume.chunk_pages;
            let chunks = rows * w;
            volume.volume_pages = chunks * volume.chunk_pages;
            (chunks, rows)
        } else {
            let chunks = volume.volume_pages.div_ceil(volume.chunk_pages);
            let rows = chunks.div_ceil(w);
            let needed = rows * volume.chunk_pages + reserve;
            if needed > array_pages {
                return Err(FederationError::VolumeOverflow {
                    needed_pages: needed,
                    array_pages,
                });
            }
            (chunks, rows)
        };
        if chunks == 0 {
            return Err(FederationError::EmptyVolume);
        }
        let cfg = FederationConfig {
            array,
            arrays: self.arrays,
            volume,
            policy: self.policy,
            mode: self.mode,
            chunks,
            rows,
            fault_overrides: self.fault_overrides,
            trace: self.trace,
        };
        Ok(Federation::assemble(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    fn builder() -> FederationBuilder {
        Simulation::builder().small_test().with_federation(4)
    }

    #[test]
    fn geometry_must_match_array_count() {
        let err = builder()
            .volume(VolumeSpec::replicated(2, 3))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            FederationError::GeometryMismatch {
                arrays: 4,
                stripe_width: 2,
                replicas: 3
            }
        );
        assert!(err.to_string().contains("6 member arrays"), "{err}");
    }

    #[test]
    fn zero_geometry_fields_are_rejected() {
        let err = builder()
            .volume(VolumeSpec::striped(4).chunk_pages(0))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            FederationError::ZeroGeometry {
                field: "chunk_pages"
            }
        );
    }

    #[test]
    fn oversized_volume_is_rejected_with_capacity_math() {
        let err = builder()
            .volume(VolumeSpec::replicated(2, 2).volume_pages(u64::MAX / 2))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, FederationError::VolumeOverflow { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_member_config_surfaces_as_array_error() {
        let err = builder()
            .configure(|c| c.fimms_per_cluster(0))
            .volume(VolumeSpec::replicated(2, 2))
            .build()
            .unwrap_err();
        assert!(matches!(err, FederationError::Array(_)), "{err:?}");
    }

    #[test]
    fn fault_override_must_address_a_member() {
        let err = builder()
            .volume(VolumeSpec::replicated(2, 2))
            .array_faults(9, FaultConfig::default())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            FederationError::FaultOverrideOutOfRange {
                array: 9,
                arrays: 4
            }
        );
    }

    #[test]
    fn default_volume_fills_arrays_minus_reserve() {
        let fed = builder()
            .volume(VolumeSpec::replicated(2, 2))
            .build()
            .unwrap();
        let cfg = fed.config();
        let array_pages = cfg.array.shape.total_pages();
        let reserve = cfg.policy.migration_slots * cfg.volume.chunk_pages;
        assert!(cfg.chunks > 0);
        assert_eq!(cfg.rows, cfg.chunks / 2);
        assert!(cfg.rows * cfg.volume.chunk_pages + reserve <= array_pages);
        assert_eq!(cfg.volume.volume_pages, cfg.chunks * cfg.volume.chunk_pages);
    }
}
