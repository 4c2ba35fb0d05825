//! Pins every ring placement of two reference deployments.
//!
//! The digest below was recorded on the `BTreeMap`-backed ring (commit
//! `3bd5218`) and must survive any change of the ring's representation
//! unblessed: goldens and transcript hashes would catch a moved placement
//! late and far away; this names it.

use neutrino_common::{CpfId, UeId};
use neutrino_geo::{Deployment, RegionLayout, RingStack};

fn fnv(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Folds `(primary, backups)` of UEs 0..4 096 into `digest`; `u64::MAX`
/// closes each UE's record so a backup cannot pass for the next primary.
fn fold_placements(digest: &mut u64, stack: &RingStack) {
    for ue in (0..4_096).map(UeId::new) {
        fnv(digest, stack.primary(ue).map_or(u64::MAX, CpfId::raw));
        for backup in stack.backups(ue) {
            fnv(digest, backup.raw());
        }
        fnv(digest, u64::MAX);
    }
}

/// Every region's placements before and after the region loses its first
/// CPF (level-1 removal) and its first sibling's first CPF (level-2 removal),
/// with the paper's two backups per UE.
#[expect(clippy::expect_used, reason = "a test helper: every region has a stack and siblings")]
fn placement_digest(layout: RegionLayout) -> u64 {
    let deployment = Deployment::build(layout, 2);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for region in deployment.regions() {
        let mut stack = deployment
            .ring_stack(region.id)
            .expect("region has a stack")
            .clone();
        fold_placements(&mut digest, &stack);
        stack.remove(region.cpfs[0]);
        fold_placements(&mut digest, &stack);
        let sibling = deployment.level2_siblings(region.id)[0];
        stack.remove(deployment.region(sibling).expect("sibling exists").cpfs[0]);
        fold_placements(&mut digest, &stack);
    }
    digest
}

#[test]
fn ring_placement_pin() {
    assert_eq!(
        placement_digest(RegionLayout::default()),
        0x86e3_ae40_cefc_dc46,
        "default layout"
    );
    assert_eq!(
        placement_digest(RegionLayout {
            level2_regions: 2,
            ..RegionLayout::default()
        }),
        0xc6a3_b263_3c77_a8c0,
        "two level-2 regions"
    );
}
