//! Typed federation configuration: volume geometry and the validating
//! builder.

use triplea_sim::trace::TraceConfig;

use crate::config::{ArrayConfigBuilder, ConfigError, FaultConfig, ManagementMode};
use crate::federation::manager::{Federation, MIGRATION_SLOTS};
use crate::federation::map::VolumeMapper;

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
/// [`ArrayBuilder::with_federation`](crate::ArrayBuilder::with_federation).
/// Validates the member-array configuration *and* the federation
/// geometry at [`build`](FederationBuilder::build) time.
#[derive(Clone, Debug)]
pub struct FederationBuilder {
    pub(crate) base: ArrayConfigBuilder,
    pub(crate) mode: ManagementMode,
    pub(crate) trace: Option<TraceConfig>,
    pub(crate) arrays: u32,
    pub(crate) volume: VolumeSpec,
    pub(crate) fault_overrides: Vec<(u32, FaultConfig)>,
}

impl FederationBuilder {
    /// Sets the volume geometry.
    pub fn volume(mut self, spec: VolumeSpec) -> Self {
        self.volume = spec;
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
        for &(a, _) in &self.fault_overrides {
            if a >= self.arrays {
                return Err(FederationError::FaultOverrideOutOfRange {
                    array: a,
                    arrays: self.arrays,
                });
            }
        }
        let array_pages = array.shape.total_pages();
        let reserve = MIGRATION_SLOTS * v.chunk_pages;
        let volume_pages = match v.volume_pages {
            // Fill the member arrays, less the migration reserve, with
            // whole chunks.
            0 => {
                let rows = array_pages.saturating_sub(reserve) / v.chunk_pages;
                rows * v.chunk_pages * v.stripe_width as u64
            }
            pages => pages,
        };
        if volume_pages == 0 {
            return Err(FederationError::EmptyVolume);
        }
        let mapper = VolumeMapper::new(v.stripe_width, v.replicas, v.chunk_pages, volume_pages);
        let needed = mapper.rows() * v.chunk_pages + reserve;
        if needed > array_pages {
            return Err(FederationError::VolumeOverflow {
                needed_pages: needed,
                array_pages,
            });
        }
        Ok(Federation::new(
            array,
            self.mode,
            mapper,
            &self.fault_overrides,
            self.trace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Array;

    fn builder() -> FederationBuilder {
        Array::builder().small_test().with_federation(4)
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
        let err = Array::builder()
            .small_test()
            .configure(|c| c.fimms_per_cluster(0))
            .with_federation(4)
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
        let m = &fed.mapper;
        let array = crate::ArrayConfig::small_builder().build().unwrap();
        let array_pages = array.shape.total_pages();
        let reserve = MIGRATION_SLOTS * m.chunk_pages();
        assert!(m.chunks() > 0);
        assert_eq!(m.rows(), m.chunks() / 2);
        assert!(m.rows() * m.chunk_pages() + reserve <= array_pages);
        assert_eq!(m.volume_pages(), m.chunks() * m.chunk_pages());
    }
}
