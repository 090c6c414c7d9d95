//! Cross-substrate integration: the FTL's allocation decisions must be
//! physically executable on the NAND packages (program order,
//! erase-before-write), and HAL-composed commands must validate on the
//! geometry they were composed for.

use proptest::prelude::*;

use triple_a::fimm::{Fimm, FimmAddr};
use triple_a::flash::{FlashCommand, FlashGeometry, FlashTiming, OpKind, PageAddr};
use triple_a::ftl::{hal, ArrayShape, Ftl, LogicalPage};
use triple_a::pcie::ClusterId;
use triple_a::sim::SimTime;

/// Replay every FTL write allocation as a real program op on real
/// packages: if the allocator ever violated NAND program order, the
/// package model rejects it.
#[test]
fn ftl_allocations_execute_on_real_packages() {
    let shape = ArrayShape::small_test();
    let mut ftl = Ftl::new(shape);
    let mut fimms: Vec<Vec<Fimm>> = (0..shape.topology.total_clusters())
        .map(|_| {
            (0..shape.fimms_per_cluster)
                .map(|_| Fimm::new(shape.packages_per_fimm, shape.flash, FlashTiming::default()))
                .collect()
        })
        .collect();

    // Interleave writes to many LPNs, with overwrites.
    for i in 0..5_000u64 {
        let lpn = LogicalPage((i * 37) % 2_000);
        let loc = ftl.write_alloc(lpn, None).unwrap();
        let g = shape.topology.global_index(loc.cluster) as usize;
        fimms[g][loc.fimm as usize]
            .begin_op(
                SimTime::from_us(i),
                loc.addr.package,
                &FlashCommand::program(&loc.addr.page),
            )
            .unwrap_or_else(|e| panic!("allocation {i} physically invalid: {e}"));
    }
}

/// GC's rewrite + erase sequence must also be physically executable.
#[test]
fn gc_cycle_executes_on_real_packages() {
    let mut shape = ArrayShape::small_test();
    shape.flash.blocks_per_plane = 8;
    let mut ftl = Ftl::new(shape);
    let cluster = ClusterId::default();
    let mut fimm = Fimm::new(shape.packages_per_fimm, shape.flash, FlashTiming::default());

    fn program(t: &mut u64, fimm: &mut Fimm, addr: FimmAddr) {
        *t += 1;
        fimm.begin_op(
            SimTime::from_us(*t),
            addr.package,
            &FlashCommand::program(&addr.page),
        )
        .expect("program order preserved");
    }

    // Overwrite a tiny working set until the FIMM needs GC.
    let mut t = 0u64;
    let home = ftl.locate(LogicalPage(0));
    for i in 0..20_000u64 {
        let lpn = LogicalPage((i % 32) * shape.fimms_per_cluster as u64);
        let loc = match ftl.write_alloc(lpn, Some((cluster, home.fimm))) {
            Ok(loc) => loc,
            Err(_) => {
                // Out of space: run one GC unit, then retry.
                let work = ftl.gc_pick(cluster, home.fimm).expect("victim exists");
                for l in work.valid.clone() {
                    if let Some(new_loc) = ftl.gc_rewrite(l, &work).unwrap() {
                        program(&mut t, &mut fimm, new_loc.addr);
                    }
                }
                fimm.begin_op(
                    SimTime::from_us(t),
                    work.package,
                    &FlashCommand::erase(&PageAddr {
                        die: work.die,
                        plane: work.block % shape.flash.planes,
                        block: work.block,
                        page: 0,
                    }),
                )
                .expect("erase valid");
                ftl.gc_finish(&work);
                ftl.write_alloc(lpn, Some((cluster, home.fimm)))
                    .expect("write succeeds after GC")
            }
        };
        program(&mut t, &mut fimm, loc.addr);
    }
    assert!(ftl.stats().gc_erases > 0, "test never exercised GC");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Any set of in-range pages composes into commands that validate
    /// against the geometry and cover exactly the input pages.
    #[test]
    fn hal_compose_is_valid_and_complete(
        raw in prop::collection::vec((0u32..8, 0u32..2, 0u32..128, 0u32..32), 1..9)
    ) {
        let geom = FlashGeometry::default();
        let pages: Vec<FimmAddr> = raw
            .into_iter()
            .map(|(pkg, die, block, page)| FimmAddr {
                package: pkg,
                page: PageAddr { die, plane: block % geom.planes, block, page },
            })
            .collect();
        let mut cmds = hal::Composed::new();
        hal::compose(OpKind::Read, &pages, &mut cmds);
        let mut covered = 0usize;
        for c in cmds.iter() {
            prop_assert!(c.cmd.validate(&geom).is_ok(), "invalid: {:?}", c.cmd);
            covered += c.cmd.page_count();
        }
        prop_assert_eq!(covered, pages.len(), "pages lost or duplicated");
    }

    /// The FTL never hands out the same physical page twice without an
    /// intervening erase.
    #[test]
    fn ftl_never_double_allocates(ops in prop::collection::vec(0u64..512, 1..400)) {
        let shape = ArrayShape::small_test();
        let mut ftl = Ftl::new(shape);
        let mut seen = std::collections::HashSet::new();
        for lpn in ops {
            let loc = ftl.write_alloc(LogicalPage(lpn), None).unwrap();
            prop_assert!(
                seen.insert((shape.topology.global_index(loc.cluster), loc.fimm, loc.addr)),
                "physical page handed out twice: {loc}"
            );
        }
    }

    /// Page-map lookups always return locations inside the array.
    #[test]
    fn ftl_locations_always_in_shape(lpns in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let shape = ArrayShape::small_test();
        let ftl = Ftl::new(shape);
        let total = shape.total_pages();
        for lpn in lpns {
            let loc = ftl.locate(LogicalPage(lpn % total));
            prop_assert!(shape.contains(loc), "{loc} outside shape");
        }
    }
}
