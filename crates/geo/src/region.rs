//! The edge deployment model (§4.3, Fig. 6).
//!
//! The deployment area divides into **level-1 regions** — each with multiple
//! base stations, one CTA co-located with a pool of CPFs, and UPFs — grouped
//! four-at-a-time (by geohash prefix) into **level-2 regions**.

use crate::geohash::GeoHash;
use crate::ring::RingStack;
use neutrino_common::{BsId, CpfId, CtaId, RegionId, UpfId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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
    /// Backup replica count N.
    pub replicas: usize,
}

impl Default for RegionLayout {
    fn default() -> Self {
        // Matches §5: experiments run with five CPF instances per pool.
        RegionLayout {
            level2_regions: 1,
            bss_per_region: 8,
            cpfs_per_region: 5,
            upfs_per_region: 2,
            replicas: 2,
        }
    }
}

/// A complete deployment: regions plus reverse lookups.
#[derive(Debug, Clone)]
pub struct Deployment {
    regions: Vec<Level1Region>,
    bs_to_region: HashMap<BsId, RegionId>,
    cpf_to_region: HashMap<CpfId, RegionId>,
    cta_to_region: HashMap<CtaId, RegionId>,
    layout: RegionLayout,
}

impl Deployment {
    /// Builds a deployment with contiguous ids: level-2 region `g` holds
    /// level-1 regions `4g..4g+4`, laid out on a geohash grid.
    pub fn build(layout: RegionLayout) -> Deployment {
        assert!(
            layout.level2_regions >= 1,
            "need at least one level-2 region"
        );
        assert!(layout.cpfs_per_region >= 1, "need at least one CPF");
        let mut regions = Vec::new();
        let mut next_bs = 0u64;
        let mut next_cpf = 0u64;
        let mut next_upf = 0u64;
        let mut region_id = 0u64;
        for g in 0..layout.level2_regions {
            // Each level-2 region is one level-5 geohash cell; its four
            // level-1 children are the cell's sub-cells. Bases 20° apart in
            // both axes always land in distinct level-5 cells (11.25°×5.625°).
            let base_lon = -170.0 + (g as f64 % 16.0) * 20.0;
            let base_lat = -80.0 + (g as f64 / 16.0).floor() * 20.0;
            let parent = GeoHash::encode(base_lon, base_lat, 5);
            for corner in 0..4 {
                let geohash = parent.child(corner);
                let bss = (0..layout.bss_per_region)
                    .map(|_| {
                        let id = BsId::new(next_bs);
                        next_bs += 1;
                        id
                    })
                    .collect();
                let cpfs = (0..layout.cpfs_per_region)
                    .map(|_| {
                        let id = CpfId::new(next_cpf);
                        next_cpf += 1;
                        id
                    })
                    .collect();
                let upfs = (0..layout.upfs_per_region)
                    .map(|_| {
                        let id = UpfId::new(next_upf);
                        next_upf += 1;
                        id
                    })
                    .collect();
                regions.push(Level1Region {
                    id: RegionId::new(region_id),
                    geohash,
                    bss,
                    cta: CtaId::new(region_id),
                    cpfs,
                    upfs,
                });
                region_id += 1;
            }
        }
        let mut bs_to_region = HashMap::new();
        let mut cpf_to_region = HashMap::new();
        let mut cta_to_region = HashMap::new();
        for r in &regions {
            for &bs in &r.bss {
                bs_to_region.insert(bs, r.id);
            }
            for &cpf in &r.cpfs {
                cpf_to_region.insert(cpf, r.id);
            }
            cta_to_region.insert(r.cta, r.id);
        }
        Deployment {
            regions,
            bs_to_region,
            cpf_to_region,
            cta_to_region,
            layout,
        }
    }

    /// The layout this deployment was built from.
    pub fn layout(&self) -> RegionLayout {
        self.layout
    }

    /// All level-1 regions.
    pub fn regions(&self) -> &[Level1Region] {
        &self.regions
    }

    /// A region by id.
    pub fn region(&self, id: RegionId) -> Option<&Level1Region> {
        self.regions.get(id.raw() as usize)
    }

    /// The region a base station belongs to.
    pub fn region_of_bs(&self, bs: BsId) -> Option<RegionId> {
        self.bs_to_region.get(&bs).copied()
    }

    /// The region a CPF belongs to.
    pub fn region_of_cpf(&self, cpf: CpfId) -> Option<RegionId> {
        self.cpf_to_region.get(&cpf).copied()
    }

    /// The region a CTA serves.
    pub fn region_of_cta(&self, cta: CtaId) -> Option<RegionId> {
        self.cta_to_region.get(&cta).copied()
    }

    /// The level-2 siblings of a region: the other level-1 regions sharing
    /// its geohash parent.
    pub fn level2_siblings(&self, id: RegionId) -> Vec<RegionId> {
        let me = match self.region(id) {
            Some(r) => r,
            None => return Vec::new(),
        };
        let parent = match me.geohash.parent() {
            Some(p) => p,
            None => return Vec::new(),
        };
        self.regions
            .iter()
            .filter(|r| r.id != id && r.geohash.parent() == Some(parent))
            .map(|r| r.id)
            .collect()
    }

    /// True when two regions share a level-2 region — fast handover is
    /// possible between them (§4.3).
    pub fn same_level2(&self, a: RegionId, b: RegionId) -> bool {
        match (self.region(a), self.region(b)) {
            (Some(ra), Some(rb)) => ra.geohash.parent() == rb.geohash.parent(),
            _ => false,
        }
    }

    /// Builds the ring stack a region's CTA holds: level-1 ring over its own
    /// CPF pool, level-2 ring over the sibling regions' CPFs.
    pub fn ring_stack(&self, id: RegionId) -> Option<RingStack> {
        let me = self.region(id)?;
        let mut others = Vec::new();
        for sib in self.level2_siblings(id) {
            if let Some(r) = self.region(sib) {
                others.extend_from_slice(&r.cpfs);
            }
        }
        Some(RingStack::new(&me.cpfs, &others, self.layout.replicas))
    }

    /// Every CPF in the deployment.
    pub fn all_cpfs(&self) -> Vec<CpfId> {
        self.regions.iter().flat_map(|r| r.cpfs.clone()).collect()
    }

    /// Every base station in the deployment.
    pub fn all_bss(&self) -> Vec<BsId> {
        self.regions.iter().flat_map(|r| r.bss.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_matches_paper() {
        let d = Deployment::build(RegionLayout::default());
        assert_eq!(d.regions().len(), 4);
        assert_eq!(d.regions()[0].cpfs.len(), 5);
    }

    #[test]
    fn level2_groups_are_quads() {
        let d = Deployment::build(RegionLayout {
            level2_regions: 3,
            ..RegionLayout::default()
        });
        assert_eq!(d.regions().len(), 12);
        for r in d.regions() {
            let sibs = d.level2_siblings(r.id);
            assert_eq!(sibs.len(), 3, "region {} has wrong siblings", r.id);
            for s in sibs {
                assert!(d.same_level2(r.id, s));
            }
        }
    }

    #[test]
    fn cross_level2_regions_are_not_siblings() {
        let d = Deployment::build(RegionLayout {
            level2_regions: 2,
            ..RegionLayout::default()
        });
        assert!(!d.same_level2(RegionId::new(0), RegionId::new(4)));
        assert!(d.same_level2(RegionId::new(0), RegionId::new(3)));
    }

    #[test]
    fn reverse_lookups_are_consistent() {
        let d = Deployment::build(RegionLayout {
            level2_regions: 2,
            ..RegionLayout::default()
        });
        for r in d.regions() {
            for &bs in &r.bss {
                assert_eq!(d.region_of_bs(bs), Some(r.id));
            }
            for &cpf in &r.cpfs {
                assert_eq!(d.region_of_cpf(cpf), Some(r.id));
            }
            assert_eq!(d.region_of_cta(r.cta), Some(r.id));
        }
    }

    #[test]
    fn ids_are_globally_unique() {
        let d = Deployment::build(RegionLayout {
            level2_regions: 2,
            ..RegionLayout::default()
        });
        let cpfs = d.all_cpfs();
        let set: std::collections::HashSet<_> = cpfs.iter().collect();
        assert_eq!(set.len(), cpfs.len());
        let bss = d.all_bss();
        let set: std::collections::HashSet<_> = bss.iter().collect();
        assert_eq!(set.len(), bss.len());
    }

    #[test]
    fn ring_stack_uses_sibling_cpfs_for_backups() {
        let d = Deployment::build(RegionLayout {
            level2_regions: 1,
            ..RegionLayout::default()
        });
        let stack = d.ring_stack(RegionId::new(0)).unwrap();
        let my_cpfs = &d.region(RegionId::new(0)).unwrap().cpfs;
        for ue in 0..100 {
            let ue = neutrino_common::UeId::new(ue);
            let primary = stack.primary(ue).unwrap();
            assert!(my_cpfs.contains(&primary));
            for b in stack.backups(ue) {
                assert!(!my_cpfs.contains(&b), "backups live in sibling regions");
            }
        }
    }
}
