//! The edge deployment model (§4.3, Fig. 6).
//!
//! The deployment area divides into **level-1 regions** — each with multiple
//! base stations, one CTA co-located with a pool of CPFs, and UPFs — grouped
//! four-at-a-time (by geohash prefix) into **level-2 regions**.

use crate::geohash::GeoHash;
use crate::ring::RingStack;
use neutrino_common::{BsId, CpfId, CtaId, RegionId, UpfId};
use serde::{Deserialize, Serialize};

/// One level-1 region: the unit of CTA/CPF-pool deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Level1Region {
    /// Region id.
    pub id: RegionId,
    /// Geohash locating the region; the parent hash names its level-2
    /// region.
    pub geohash: GeoHash,
    /// Base stations in the region.
    pub bss: Vec<BsId>,
    /// The region's control traffic aggregator.
    pub cta: CtaId,
    /// The region's CPF pool.
    pub cpfs: Vec<CpfId>,
    /// The region's UPFs.
    pub upfs: Vec<UpfId>,
}

/// Shape parameters for building a deployment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RegionLayout {
    /// Number of level-2 regions (each contains exactly 4 level-1 regions).
    pub level2_regions: usize,
    /// Base stations per level-1 region.
    pub bss_per_region: usize,
    /// CPFs per level-1 region (the paper's evaluation uses 5).
    pub cpfs_per_region: usize,
    /// UPFs per level-1 region.
    pub upfs_per_region: usize,
}

impl Default for RegionLayout {
    fn default() -> Self {
        // Matches §5: experiments run with five CPF instances per pool.
        RegionLayout {
            level2_regions: 1,
            bss_per_region: 8,
            cpfs_per_region: 5,
            upfs_per_region: 2,
        }
    }
}

/// The raw ids of one kind the `region`-th level-1 region holds: every kind
/// is numbered contiguously, region by region.
fn ids(region: u64, per_region: usize) -> std::ops::Range<u64> {
    let per_region = per_region as u64;
    region * per_region..(region + 1) * per_region
}

impl RegionLayout {
    /// The CPF pool of the `region`-th level-1 region.
    pub fn pool(&self, region: u64) -> impl Iterator<Item = CpfId> {
        ids(region, self.cpfs_per_region).map(CpfId::new)
    }
}

/// A complete deployment: regions, their level-2 siblings, and the ring
/// stack each region's CTA and CPFs copy.
#[derive(Debug, Clone)]
pub struct Deployment {
    regions: Vec<Level1Region>,
    /// Per region: the other level-1 regions sharing its geohash parent.
    siblings: Vec<Vec<RegionId>>,
    /// Per region: level-1 ring over its own pool, level-2 ring over its
    /// siblings' pools.
    stacks: Vec<RingStack>,
}

impl Deployment {
    /// Builds a deployment with contiguous ids: level-2 region `g` holds
    /// level-1 regions `4g..4g+4`, laid out on a geohash grid. Each ring
    /// stack places `replicas` (the backup count N) backups per UE.
    pub fn build(layout: RegionLayout, replicas: usize) -> Deployment {
        assert!(
            layout.level2_regions >= 1,
            "need at least one level-2 region"
        );
        assert!(layout.cpfs_per_region >= 1, "need at least one CPF");
        let mut regions = Vec::new();
        for g in 0..layout.level2_regions {
            // Each level-2 region is one level-5 geohash cell; its four
            // level-1 children are the cell's sub-cells. Bases 20° apart in
            // both axes always land in distinct level-5 cells (11.25°×5.625°).
            let base_lon = -170.0 + (g as f64 % 16.0) * 20.0;
            let base_lat = -80.0 + (g as f64 / 16.0).floor() * 20.0;
            let parent = GeoHash::encode(base_lon, base_lat, 5);
            for corner in 0..4 {
                let index = regions.len() as u64;
                regions.push(Level1Region {
                    id: RegionId::new(index),
                    geohash: parent.child(corner),
                    bss: ids(index, layout.bss_per_region).map(BsId::new).collect(),
                    cta: CtaId::new(index),
                    cpfs: layout.pool(index).collect(),
                    upfs: ids(index, layout.upfs_per_region).map(UpfId::new).collect(),
                });
            }
        }
        let siblings: Vec<Vec<RegionId>> = regions
            .iter()
            .map(|me| {
                let others = regions
                    .iter()
                    .filter(|r| r.id != me.id && r.geohash.parent() == me.geohash.parent());
                others.map(|r| r.id).collect()
            })
            .collect();
        let stacks = regions
            .iter()
            .zip(&siblings)
            .map(|(me, siblings)| {
                let others: Vec<CpfId> = siblings
                    .iter()
                    .flat_map(|s| &regions[s.raw() as usize].cpfs)
                    .copied()
                    .collect();
                RingStack::new(&me.cpfs, &others, replicas)
            })
            .collect();
        Deployment {
            regions,
            siblings,
            stacks,
        }
    }

    /// All level-1 regions.
    pub fn regions(&self) -> &[Level1Region] {
        &self.regions
    }

    /// A region by id.
    pub fn region(&self, id: RegionId) -> Option<&Level1Region> {
        self.regions.get(id.raw() as usize)
    }

    /// The level-2 siblings of a region: the other level-1 regions sharing
    /// its geohash parent.
    pub fn level2_siblings(&self, id: RegionId) -> &[RegionId] {
        self.siblings
            .get(id.raw() as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// The ring stack a region's CTA holds: level-1 ring over its own CPF
    /// pool, level-2 ring over the sibling regions' CPFs. Built once with
    /// the deployment; every node that needs one clones it.
    pub fn ring_stack(&self, id: RegionId) -> Option<&RingStack> {
        self.stacks.get(id.raw() as usize)
    }

    /// Every CPF in the deployment.
    pub fn all_cpfs(&self) -> Vec<CpfId> {
        self.regions.iter().flat_map(|r| r.cpfs.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backup count the paper evaluates (`SystemConfig::neutrino`).
    const N: usize = 2;

    #[test]
    fn default_layout_matches_paper() {
        let d = Deployment::build(RegionLayout::default(), N);
        assert_eq!(d.regions().len(), 4);
        assert_eq!(d.regions()[0].cpfs.len(), 5);
    }

    #[test]
    fn level2_groups_are_quads() {
        let d = Deployment::build(
            RegionLayout {
                level2_regions: 3,
                ..RegionLayout::default()
            },
            N,
        );
        assert_eq!(d.regions().len(), 12);
        for r in d.regions() {
            let sibs = d.level2_siblings(r.id);
            assert_eq!(sibs.len(), 3, "region {} has wrong siblings", r.id);
            // Region 4g + k's siblings are the rest of 4g..4g+4.
            let quad = r.id.raw() / 4;
            for &s in sibs {
                assert_ne!(s, r.id);
                assert_eq!(s.raw() / 4, quad, "region {} is not in {}'s quad", s, r.id);
                let sibling = d.region(s).unwrap();
                assert_eq!(sibling.geohash.parent(), r.geohash.parent());
            }
        }
    }

    #[test]
    fn cross_level2_regions_are_not_siblings() {
        let d = Deployment::build(
            RegionLayout {
                level2_regions: 2,
                ..RegionLayout::default()
            },
            N,
        );
        let sibs = d.level2_siblings(RegionId::new(0));
        assert!(!sibs.contains(&RegionId::new(4)));
        assert!(sibs.contains(&RegionId::new(3)));
    }

    #[test]
    fn ids_are_globally_unique() {
        let d = Deployment::build(
            RegionLayout {
                level2_regions: 2,
                ..RegionLayout::default()
            },
            N,
        );
        let cpfs = d.all_cpfs();
        let set: std::collections::BTreeSet<_> = cpfs.iter().collect();
        assert_eq!(set.len(), cpfs.len());
        let bss: Vec<BsId> = d.regions().iter().flat_map(|r| r.bss.clone()).collect();
        let set: std::collections::BTreeSet<_> = bss.iter().collect();
        assert_eq!(set.len(), bss.len());
        // A region and its CTA share one number.
        for (i, r) in d.regions().iter().enumerate() {
            assert_eq!((r.id.raw(), r.cta.raw()), (i as u64, i as u64));
        }
    }

    #[test]
    fn ring_stack_uses_sibling_cpfs_for_backups() {
        let d = Deployment::build(RegionLayout::default(), N);
        let stack = d.ring_stack(RegionId::new(0)).unwrap();
        let my_cpfs = &d.region(RegionId::new(0)).unwrap().cpfs;
        for ue in 0..100 {
            let ue = neutrino_common::UeId::new(ue);
            let primary = stack.primary(ue).unwrap();
            assert!(my_cpfs.contains(&primary));
            let backups: Vec<_> = stack.backups(ue).collect();
            assert_eq!(backups.len(), N);
            for b in backups {
                assert!(!my_cpfs.contains(&b), "backups live in sibling regions");
            }
        }
    }
}
