//! Hardware abstraction layer: flash-command composition.
//!
//! Paper §2.3: "To extract the true performance of a bare NAND flash, it
//! is essential to compose flash commands which can take advantage of
//! high degree of internal parallelism." Given the pages of one I/O
//! request that land on a single FIMM, [`compose`] picks the widest
//! applicable command mode:
//!
//! 1. pages on distinct dies → one **die-interleave** command;
//! 2. pages on one die but distinct planes → one **multi-plane** command;
//! 3. sequential pages of one block → one **cache-mode** command;
//! 4. otherwise → a sequence of normal single-page commands.

use triplea_fimm::FimmAddr;
use triplea_flash::{CmdMode, FlashCommand, OpKind, PageAddr};

/// A composed command bound for a specific package (chip-enable target).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComposedCmd<'a> {
    /// Package on the FIMM that must be chip-enabled.
    pub package: u32,
    /// The flash command to issue; its targets borrow the [`Composed`]
    /// buffer it was read from.
    pub cmd: FlashCommand<'a>,
}

/// Caller-owned output of [`compose`]: every command's targets packed
/// back to back, plus one span per command. [`Composed::clear`] keeps
/// both buffers' capacity, so a caller that reuses one `Composed`
/// composes without allocating once the buffers have grown.
#[derive(Clone, Debug, Default)]
pub struct Composed {
    targets: Vec<PageAddr>,
    spans: Vec<Span>,
}

/// One command: its package, kind and mode, and its targets as
/// `targets[start..end]`.
#[derive(Clone, Copy, Debug)]
struct Span {
    package: u32,
    kind: OpKind,
    mode: CmdMode,
    start: u32,
    end: u32,
}

impl Composed {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every command, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.targets.clear();
        self.spans.clear();
    }

    /// Number of composed commands.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no command has been composed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The composed commands in issue order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ComposedCmd<'_>> + '_ {
        self.spans.iter().map(|s| ComposedCmd {
            package: s.package,
            cmd: FlashCommand::multi(
                s.kind,
                &self.targets[s.start as usize..s.end as usize],
                s.mode,
            ),
        })
    }

    /// Emits the commands for one package whose targets are
    /// `targets[start..]`, choosing the widest mode the group supports.
    fn push_package(&mut self, kind: OpKind, package: u32, start: usize) {
        let group = &self.targets[start..];
        let first = group[0];
        let one_die = group.iter().all(|t| t.die == first.die);
        let mode = if group.len() == 1 {
            Some(CmdMode::Normal)
        } else if all_distinct(group, |t| t.die) {
            Some(CmdMode::DieInterleave)
        } else if one_die && all_distinct(group, |t| t.plane) {
            Some(CmdMode::MultiPlane)
        } else if kind != OpKind::Erase
            && one_die
            && group.iter().all(|t| t.block == first.block)
            && group.windows(2).all(|w| w[1].page == w[0].page + 1)
        {
            // Erase never uses cache mode.
            Some(CmdMode::Cache)
        } else {
            None
        };
        let (start, end) = (start as u32, self.targets.len() as u32);
        let span = |mode, start, end| Span {
            package,
            kind,
            mode,
            start,
            end,
        };
        match mode {
            Some(mode) => self.spans.push(span(mode, start, end)),
            // Fallback: one normal command per page.
            None => self
                .spans
                .extend((start..end).map(|i| span(CmdMode::Normal, i, i + 1))),
        }
    }
}

/// Composes the minimal set of flash commands covering `pages` on one
/// FIMM, exploiting die-interleave, multi-plane and cache modes, and
/// appends them to `out`.
///
/// Pages are grouped per package first (each package is a separate
/// chip-enable target), in ascending package order with request order
/// kept inside a group; then the widest mode that the group supports is
/// chosen.
///
/// # Example
///
/// ```
/// use triplea_ftl::hal::{compose, Composed};
/// use triplea_fimm::FimmAddr;
/// use triplea_flash::{OpKind, PageAddr, CmdMode};
///
/// let pages = [
///     FimmAddr { package: 0, page: PageAddr { die: 0, plane: 0, block: 0, page: 0 } },
///     FimmAddr { package: 0, page: PageAddr { die: 1, plane: 0, block: 0, page: 0 } },
/// ];
/// let mut out = Composed::new();
/// compose(OpKind::Read, &pages, &mut out);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out.iter().next().unwrap().cmd.mode, CmdMode::DieInterleave);
/// ```
pub fn compose(kind: OpKind, pages: &[FimmAddr], out: &mut Composed) {
    // Walk the distinct packages smallest first instead of sorting a
    // copy: a request's pages on one FIMM are few.
    let mut next = pages.iter().map(|p| p.package).min();
    while let Some(package) = next {
        let start = out.targets.len();
        out.targets.extend(
            pages
                .iter()
                .filter(|p| p.package == package)
                .map(|p| p.page),
        );
        out.push_package(kind, package, start);
        next = pages
            .iter()
            .map(|p| p.package)
            .filter(|&p| p > package)
            .min();
    }
}

/// `true` when `key` differs across every target. Pairwise, so it needs
/// no scratch; it stops at the first repeat, which comes within the
/// first (distinct keys + 1) targets.
fn all_distinct(group: &[PageAddr], key: impl Fn(&PageAddr) -> u32) -> bool {
    group
        .iter()
        .enumerate()
        .all(|(i, a)| group[..i].iter().all(|b| key(a) != key(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use triplea_flash::FlashGeometry;

    /// The `Vec`-returning composer the engine used before [`compose`]
    /// wrote into caller-owned storage, kept as its specification.
    mod spec {
        use super::*;

        /// One command as `(package, kind, mode, targets)`.
        pub type Cmd = (u32, OpKind, CmdMode, Vec<PageAddr>);

        pub fn compose(kind: OpKind, pages: &[FimmAddr]) -> Vec<Cmd> {
            let mut out = Vec::new();
            if pages.is_empty() {
                return out;
            }
            // Group by package, preserving order.
            let mut packages: Vec<u32> = pages.iter().map(|p| p.package).collect();
            packages.sort_unstable();
            packages.dedup();

            for pkg in packages {
                let group: Vec<FimmAddr> =
                    pages.iter().copied().filter(|p| p.package == pkg).collect();
                out.extend(compose_package(kind, pkg, &group));
            }
            out
        }

        fn all_distinct<T: Ord + Copy>(xs: impl Iterator<Item = T>) -> bool {
            let mut v: Vec<T> = xs.collect();
            let n = v.len();
            v.sort_unstable();
            v.dedup();
            v.len() == n
        }

        fn compose_package(kind: OpKind, package: u32, group: &[FimmAddr]) -> Vec<Cmd> {
            let targets: Vec<_> = group.iter().map(|g| g.page).collect();
            if targets.len() == 1 {
                return vec![(package, kind, CmdMode::Normal, targets)];
            }
            // Erase never uses cache mode and rarely batches; keep it simple.
            let dies_distinct = all_distinct(targets.iter().map(|t| t.die));
            if dies_distinct {
                return vec![(package, kind, CmdMode::DieInterleave, targets)];
            }
            let one_die = targets.iter().all(|t| t.die == targets[0].die);
            if one_die && all_distinct(targets.iter().map(|t| t.plane)) {
                return vec![(package, kind, CmdMode::MultiPlane, targets)];
            }
            let same_block = one_die && targets.iter().all(|t| t.block == targets[0].block);
            let sequential = same_block && targets.windows(2).all(|w| w[1].page == w[0].page + 1);
            if sequential && kind != OpKind::Erase {
                return vec![(package, kind, CmdMode::Cache, targets)];
            }
            // Fallback: one normal command per page.
            targets
                .into_iter()
                .map(|t| (package, kind, CmdMode::Normal, vec![t]))
                .collect()
        }
    }

    /// [`compose`] on a fresh buffer, flattened to the spec's shape.
    fn run(kind: OpKind, pages: &[FimmAddr]) -> Vec<spec::Cmd> {
        let mut out = Composed::new();
        compose(kind, pages, &mut out);
        out.iter()
            .map(|c| (c.package, c.cmd.kind, c.cmd.mode, c.cmd.targets.to_vec()))
            .collect()
    }

    fn modes(cmds: &[spec::Cmd]) -> Vec<CmdMode> {
        cmds.iter().map(|c| c.2).collect()
    }

    fn fa(pkg: u32, die: u32, block: u32, page: u32) -> FimmAddr {
        FimmAddr {
            package: pkg,
            page: PageAddr {
                die,
                plane: block % 2,
                block,
                page,
            },
        }
    }

    fn assert_valid(cmds: &[spec::Cmd]) {
        let g = FlashGeometry::default();
        for (_, kind, mode, targets) in cmds {
            FlashCommand::multi(*kind, targets, *mode)
                .validate(&g)
                .expect("composed command must validate");
        }
    }

    #[test]
    fn single_page_is_normal() {
        let cmds = run(OpKind::Read, &[fa(0, 0, 0, 0)]);
        assert_eq!(modes(&cmds), [CmdMode::Normal]);
        assert_valid(&cmds);
    }

    #[test]
    fn cross_die_uses_die_interleave() {
        let cmds = run(OpKind::Read, &[fa(0, 0, 0, 0), fa(0, 1, 5, 3)]);
        assert_eq!(modes(&cmds), [CmdMode::DieInterleave]);
        assert_valid(&cmds);
    }

    #[test]
    fn same_die_distinct_planes_multiplane() {
        let cmds = run(OpKind::Program, &[fa(0, 0, 0, 0), fa(0, 0, 1, 0)]);
        assert_eq!(modes(&cmds), [CmdMode::MultiPlane]);
        assert_valid(&cmds);
    }

    #[test]
    fn sequential_same_block_cache_mode() {
        let cmds = run(
            OpKind::Read,
            &[fa(0, 0, 2, 4), fa(0, 0, 2, 5), fa(0, 0, 2, 6)],
        );
        assert_eq!(modes(&cmds), [CmdMode::Cache]);
        assert_valid(&cmds);
    }

    #[test]
    fn scattered_same_plane_falls_back_to_singles() {
        let cmds = run(OpKind::Read, &[fa(0, 0, 0, 9), fa(0, 0, 2, 1)]);
        assert_eq!(modes(&cmds), [CmdMode::Normal, CmdMode::Normal]);
        assert_valid(&cmds);
    }

    #[test]
    fn packages_split_commands() {
        let cmds = run(OpKind::Read, &[fa(3, 0, 0, 0), fa(0, 0, 0, 0)]);
        let pkgs: Vec<u32> = cmds.iter().map(|c| c.0).collect();
        assert_eq!(pkgs, vec![0, 3]);
        assert_valid(&cmds);
    }

    #[test]
    fn empty_input_empty_output() {
        let mut out = Composed::new();
        compose(OpKind::Read, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn erase_never_cache_mode() {
        let cmds = run(OpKind::Erase, &[fa(0, 0, 2, 0), fa(0, 0, 2, 1)]);
        assert!(cmds.iter().all(|c| c.2 != CmdMode::Cache));
        assert_valid(&cmds);
    }

    #[test]
    fn compose_appends_and_clear_keeps_capacity() {
        let mut out = Composed::new();
        compose(OpKind::Read, &[fa(0, 0, 0, 0)], &mut out);
        compose(OpKind::Program, &[fa(1, 0, 0, 0), fa(1, 1, 0, 0)], &mut out);
        assert_eq!(out.len(), 2);
        let cap = (out.targets.capacity(), out.spans.capacity());
        out.clear();
        assert!(out.is_empty());
        assert_eq!((out.targets.capacity(), out.spans.capacity()), cap);
    }

    /// One generated page group: `kind` selects the operation; each page
    /// is `(package, die, plane, block, (page, run))`, where a nonzero
    /// `run` expands into that many sequential pages of one block.
    type Page = (u32, u32, u32, u32, (u32, u32));

    fn cases() -> impl Strategy<Value = (u32, Vec<Page>)> {
        let page = (0u32..4, 0u32..3, 0u32..2, 0u32..3, (0u32..6, 0u32..4));
        (0u32..3, prop::collection::vec(page, 1..7))
    }

    fn pages_of(raw: &[Page]) -> Vec<FimmAddr> {
        let mut pages = Vec::new();
        for &(package, die, plane, block, (page, run)) in raw {
            for i in 0..run.max(1) {
                pages.push(FimmAddr {
                    package,
                    page: PageAddr {
                        die,
                        plane,
                        block,
                        page: page + i,
                    },
                });
            }
        }
        pages
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        /// Over random page groups — several packages; equal and
        /// distinct dies, planes and blocks; sequential runs; every
        /// operation — the buffer-writing composer emits the same
        /// `(package, kind, mode, targets)` sequence as its
        /// specification, also when appending after earlier output.
        #[test]
        fn compose_matches_spec((kind, raw) in cases()) {
            let kind = [OpKind::Read, OpKind::Program, OpKind::Erase][kind as usize];
            let pages = pages_of(&raw);
            let want = spec::compose(kind, &pages);
            prop_assert_eq!(run(kind, &pages), want.clone());

            let mut out = Composed::new();
            compose(OpKind::Read, &pages[..1], &mut out);
            let skip = out.len();
            compose(kind, &pages, &mut out);
            let got: Vec<spec::Cmd> = out
                .iter()
                .skip(skip)
                .map(|c| (c.package, c.cmd.kind, c.cmd.mode, c.cmd.targets.to_vec()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
