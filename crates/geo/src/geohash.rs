//! The paper's geohash: 2 bits per character (§5, "we implemented 2 bits per
//! character version of the Geo Hashing"), so each character removed from
//! the tail quadruples the region area.
//!
//! Encoding interleaves one longitude bisection bit and one latitude
//! bisection bit per character. Characters render as `0`–`3` for
//! readability.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A geohash of up to 31 characters (62 bits).
///
/// ```
/// use neutrino_geo::GeoHash;
/// let cell = GeoHash::encode(74.35, 31.52, 6);
/// let parent = cell.parent().unwrap();
/// assert!(parent.contains(&cell));
/// assert_eq!(parent.child(cell.char_at(5).unwrap()), cell);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GeoHash {
    /// Packed 2-bit characters, most significant first.
    bits: u64,
    /// Number of characters.
    len: u8,
}

impl GeoHash {
    /// Maximum precision in characters.
    pub const MAX_LEN: u8 = 31;

    /// Encodes a (longitude, latitude) pair — degrees, lon ∈ [-180, 180),
    /// lat ∈ [-90, 90) — to `len` characters.
    pub fn encode(lon: f64, lat: f64, len: u8) -> GeoHash {
        let len = len.min(Self::MAX_LEN);
        let mut lon_range = (-180.0f64, 180.0f64);
        let mut lat_range = (-90.0f64, 90.0f64);
        let mut bits = 0u64;
        for _ in 0..len {
            let lon_mid = (lon_range.0 + lon_range.1) / 2.0;
            let lon_bit = if lon >= lon_mid {
                lon_range.0 = lon_mid;
                1
            } else {
                lon_range.1 = lon_mid;
                0
            };
            let lat_mid = (lat_range.0 + lat_range.1) / 2.0;
            let lat_bit = if lat >= lat_mid {
                lat_range.0 = lat_mid;
                1
            } else {
                lat_range.1 = lat_mid;
                0
            };
            bits = (bits << 2) | (lon_bit << 1) | lat_bit;
        }
        GeoHash { bits, len }
    }

    /// Number of characters.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-character hash (the whole world).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops the last character: the containing region, 4× larger. This is
    /// how a level-1 region maps to its level-2 region.
    pub fn parent(&self) -> Option<GeoHash> {
        if self.len == 0 {
            None
        } else {
            Some(GeoHash {
                bits: self.bits >> 2,
                len: self.len - 1,
            })
        }
    }

    /// Appends one character (0..=3): one of the four sub-cells. Inverse of
    /// [`GeoHash::parent`].
    pub fn child(&self, c: u8) -> GeoHash {
        assert!(c < 4, "geohash characters are 2 bits");
        assert!(self.len < Self::MAX_LEN, "geohash at max precision");
        GeoHash {
            bits: (self.bits << 2) | u64::from(c),
            len: self.len + 1,
        }
    }

    /// True when `self` spatially contains `other` (prefix relation).
    pub fn contains(&self, other: &GeoHash) -> bool {
        if other.len < self.len {
            return false;
        }
        (other.bits >> (2 * (other.len - self.len))) == self.bits
    }

    /// The character (0..=3) at position `i`.
    pub fn char_at(&self, i: u8) -> Option<u8> {
        if i >= self.len {
            return None;
        }
        Some(((self.bits >> (2 * (self.len - 1 - i))) & 0b11) as u8)
    }

    /// The center of this hash's cell, as (lon, lat).
    pub fn center(&self) -> (f64, f64) {
        let mut lon_range = (-180.0f64, 180.0f64);
        let mut lat_range = (-90.0f64, 90.0f64);
        for i in 0..self.len {
            let c = self.char_at(i).expect("in range");
            let lon_mid = (lon_range.0 + lon_range.1) / 2.0;
            if c & 0b10 != 0 {
                lon_range.0 = lon_mid;
            } else {
                lon_range.1 = lon_mid;
            }
            let lat_mid = (lat_range.0 + lat_range.1) / 2.0;
            if c & 0b01 != 0 {
                lat_range.0 = lat_mid;
            } else {
                lat_range.1 = lat_mid;
            }
        }
        (
            (lon_range.0 + lon_range.1) / 2.0,
            (lat_range.0 + lat_range.1) / 2.0,
        )
    }

    /// Stable numeric key (useful for hashing into rings).
    pub fn key(&self) -> u64 {
        (self.bits << 6) | u64::from(self.len)
    }
}

impl fmt::Debug for GeoHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gh:")?;
        for i in 0..self.len {
            write!(f, "{}", self.char_at(i).expect("in range"))?;
        }
        Ok(())
    }
}

impl fmt::Display for GeoHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_deterministic() {
        let a = GeoHash::encode(74.35, 31.52, 10); // Lahore-ish
        let b = GeoHash::encode(74.35, 31.52, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn nearby_points_share_prefixes() {
        let a = GeoHash::encode(74.350, 31.520, 12);
        let b = GeoHash::encode(74.351, 31.521, 12);
        // Truncated to coarse precision they must agree.
        let mut pa = a;
        let mut pb = b;
        while pa.len() > 6 {
            pa = pa.parent().unwrap();
            pb = pb.parent().unwrap();
        }
        assert_eq!(pa, pb);
    }

    #[test]
    fn distant_points_differ_early() {
        let lahore = GeoHash::encode(74.35, 31.52, 8);
        let nyc = GeoHash::encode(-74.0, 40.7, 8);
        assert_ne!(lahore.char_at(0), nyc.char_at(0));
    }

    #[test]
    fn parent_contains_child() {
        let child = GeoHash::encode(10.0, 50.0, 9);
        let parent = child.parent().unwrap();
        assert!(parent.contains(&child));
        assert!(!child.contains(&parent));
        assert_eq!(parent.len(), 8);
    }

    #[test]
    fn parent_region_is_4x_in_the_sibling_sense() {
        // All four children of a parent share it as a prefix; siblings with
        // different last characters are distinct but have the same parent.
        let child = GeoHash::encode(10.0, 50.0, 6);
        let parent = child.parent().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        // Sample a grid inside the parent cell and count distinct level-6
        // hashes under it: exactly 4.
        let (clon, clat) = parent.center();
        for dl in [-0.9, 0.9] {
            for dt in [-0.45, 0.45] {
                // Offsets scaled to stay within the parent cell at level 5.
                let h = GeoHash::encode(
                    clon + dl * 360.0 / f64::from(1u32 << 6),
                    clat + dt * 180.0 / f64::from(1u32 << 6),
                    6,
                );
                if parent.contains(&h) {
                    seen.insert(h.key());
                }
            }
        }
        assert_eq!(seen.len(), 4, "a parent cell holds exactly 4 children");
    }

    #[test]
    fn contains_is_a_prefix_check() {
        let h = GeoHash::encode(0.0, 0.0, 5);
        assert!(h.contains(&h));
        let root = GeoHash { bits: 0, len: 0 };
        assert!(root.contains(&h));
    }

    #[test]
    fn center_round_trips_through_encode() {
        let h = GeoHash::encode(74.35, 31.52, 16);
        let (lon, lat) = h.center();
        let again = GeoHash::encode(lon, lat, 16);
        assert_eq!(h, again);
    }

    #[test]
    fn display_renders_characters() {
        let h = GeoHash::encode(74.35, 31.52, 4);
        let s = format!("{h}");
        assert!(s.starts_with("gh:"));
        assert_eq!(s.len(), 3 + 4);
    }
}
