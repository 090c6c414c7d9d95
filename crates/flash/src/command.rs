//! The NAND flash command set (paper §2.2, "Parallelism and Commands").

use crate::error::FlashError;
use crate::geometry::{FlashGeometry, PageAddr};

/// The three NAND array operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Page read: array → data register.
    Read,
    /// Page program: data register → array.
    Program,
    /// Block erase.
    Erase,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OpKind::Read => "read",
            OpKind::Program => "program",
            OpKind::Erase => "erase",
        })
    }
}

/// How a multi-target command exploits package-internal parallelism.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CmdMode {
    /// One target, no special mode.
    #[default]
    Normal,
    /// Multi-plane: targets on *different planes* of the *same die*
    /// execute concurrently in the array.
    MultiPlane,
    /// Die-interleave: targets on *different dies* execute concurrently.
    DieInterleave,
    /// Cache mode: the cache register pipelines array time against
    /// channel transfer for sequential pages.
    Cache,
}

/// A fully-formed flash command as composed by the HAL.
///
/// The command borrows its targets, so building one never allocates:
/// the single-page constructors view one address as a one-element
/// slice, and the HAL's multi-target commands point into its reused
/// output buffer.
///
/// Construct via [`FlashCommand::read`]/[`FlashCommand::program`]/
/// [`FlashCommand::erase`] or [`FlashCommand::multi`], then validate
/// against a geometry with [`FlashCommand::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashCommand<'a> {
    /// Operation performed on every target.
    pub kind: OpKind,
    /// Target pages (for erase: any page in the doomed block).
    pub targets: &'a [PageAddr],
    /// Parallelism mode; must be consistent with `targets`.
    pub mode: CmdMode,
}

impl<'a> FlashCommand<'a> {
    /// Single-page read.
    pub fn read(addr: &'a PageAddr) -> Self {
        Self::multi(OpKind::Read, std::slice::from_ref(addr), CmdMode::Normal)
    }

    /// Single-page program.
    pub fn program(addr: &'a PageAddr) -> Self {
        Self::multi(OpKind::Program, std::slice::from_ref(addr), CmdMode::Normal)
    }

    /// Block erase (the page component of `addr` is ignored).
    pub fn erase(addr: &'a PageAddr) -> Self {
        Self::multi(OpKind::Erase, std::slice::from_ref(addr), CmdMode::Normal)
    }

    /// Multi-target command with an explicit mode.
    pub fn multi(kind: OpKind, targets: &'a [PageAddr], mode: CmdMode) -> Self {
        FlashCommand {
            kind,
            targets,
            mode,
        }
    }

    /// Number of pages the command touches.
    pub fn page_count(&self) -> usize {
        self.targets.len()
    }

    /// Checks structural validity against `geom`:
    ///
    /// # Errors
    ///
    /// * [`FlashError::EmptyCommand`] — no targets.
    /// * [`FlashError::InvalidAddress`] — a target is out of range.
    /// * [`FlashError::PlaneConflict`] — multi-plane targets that share a
    ///   plane or span dies.
    /// * [`FlashError::DieConflict`] — die-interleave targets that share a
    ///   die.
    /// * [`FlashError::ModeMismatch`] — more than one target without a
    ///   parallel mode, or cache mode on an erase.
    pub fn validate(&self, geom: &FlashGeometry) -> Result<(), FlashError> {
        if self.targets.is_empty() {
            return Err(FlashError::EmptyCommand);
        }
        for &t in self.targets {
            geom.check(t)?;
        }
        match self.mode {
            CmdMode::Normal => {
                if self.targets.len() > 1 {
                    return Err(FlashError::ModeMismatch);
                }
            }
            CmdMode::MultiPlane => {
                let die = self.targets[0].die;
                let mut seen = 0u64;
                for &t in self.targets {
                    if t.die != die {
                        return Err(FlashError::PlaneConflict);
                    }
                    let bit = 1u64 << t.plane;
                    if seen & bit != 0 {
                        return Err(FlashError::PlaneConflict);
                    }
                    seen |= bit;
                }
            }
            CmdMode::DieInterleave => {
                let mut seen = 0u64;
                for &t in self.targets {
                    let bit = 1u64 << t.die;
                    if seen & bit != 0 {
                        return Err(FlashError::DieConflict);
                    }
                    seen |= bit;
                }
            }
            CmdMode::Cache => {
                if self.kind == OpKind::Erase {
                    return Err(FlashError::ModeMismatch);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(die: u32, block: u32, page: u32) -> PageAddr {
        PageAddr {
            die,
            plane: block % 2,
            block,
            page,
        }
    }

    #[test]
    fn single_target_constructors() {
        let g = FlashGeometry::default();
        for cmd in [
            FlashCommand::read(&a(0, 0, 0)),
            FlashCommand::program(&a(1, 1, 5)),
            FlashCommand::erase(&a(0, 7, 0)),
        ] {
            assert!(cmd.validate(&g).is_ok(), "{cmd:?}");
            assert_eq!(cmd.page_count(), 1);
        }
    }

    #[test]
    fn normal_mode_rejects_multi_target() {
        let g = FlashGeometry::default();
        let targets = [a(0, 0, 0), a(0, 1, 0)];
        let cmd = FlashCommand::multi(OpKind::Read, &targets, CmdMode::Normal);
        assert_eq!(cmd.validate(&g), Err(FlashError::ModeMismatch));
    }

    #[test]
    fn multiplane_requires_distinct_planes_same_die() {
        let g = FlashGeometry::default();
        let targets = [a(0, 0, 3), a(0, 1, 3)];
        let ok = FlashCommand::multi(OpKind::Read, &targets, CmdMode::MultiPlane);
        assert!(ok.validate(&g).is_ok());

        let targets = [a(0, 0, 3), a(0, 2, 3)];
        let same_plane = FlashCommand::multi(OpKind::Read, &targets, CmdMode::MultiPlane);
        assert_eq!(same_plane.validate(&g), Err(FlashError::PlaneConflict));

        let targets = [a(0, 0, 3), a(1, 1, 3)];
        let cross_die = FlashCommand::multi(OpKind::Read, &targets, CmdMode::MultiPlane);
        assert_eq!(cross_die.validate(&g), Err(FlashError::PlaneConflict));
    }

    #[test]
    fn die_interleave_requires_distinct_dies() {
        let g = FlashGeometry::default();
        let targets = [a(0, 0, 0), a(1, 0, 0)];
        let ok = FlashCommand::multi(OpKind::Program, &targets, CmdMode::DieInterleave);
        assert!(ok.validate(&g).is_ok());
        let targets = [a(0, 0, 0), a(0, 1, 0)];
        let dup = FlashCommand::multi(OpKind::Program, &targets, CmdMode::DieInterleave);
        assert_eq!(dup.validate(&g), Err(FlashError::DieConflict));
    }

    #[test]
    fn cache_erase_is_nonsense() {
        let g = FlashGeometry::default();
        let targets = [a(0, 0, 0)];
        let cmd = FlashCommand::multi(OpKind::Erase, &targets, CmdMode::Cache);
        assert_eq!(cmd.validate(&g), Err(FlashError::ModeMismatch));
    }

    #[test]
    fn empty_command_rejected() {
        let g = FlashGeometry::default();
        let targets = [];
        let cmd = FlashCommand::multi(OpKind::Read, &targets, CmdMode::Normal);
        assert_eq!(cmd.validate(&g), Err(FlashError::EmptyCommand));
    }

    #[test]
    fn opkind_display() {
        assert_eq!(OpKind::Read.to_string(), "read");
        assert_eq!(OpKind::Program.to_string(), "program");
        assert_eq!(OpKind::Erase.to_string(), "erase");
    }
}
