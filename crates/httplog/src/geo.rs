//! Coarse geography: the four continents the paper's users span.

/// A coarse client region.
///
/// The paper's logs cover users "in four different continents"; requests are
/// routed to the nearest CDN PoP by region, and local-time analyses use the
/// region's representative UTC offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
}

impl Region {
    /// All regions in a stable order.
    pub const ALL: [Region; 4] = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::Asia,
    ];

    /// Representative UTC offsets (seconds) spanned by the region, used when
    /// assigning a synthetic user's local timezone.
    pub const fn utc_offsets_secs(self) -> &'static [i32] {
        match self {
            Region::NorthAmerica => &[-8 * 3600, -7 * 3600, -6 * 3600, -5 * 3600],
            Region::SouthAmerica => &[-5 * 3600, -4 * 3600, -3 * 3600],
            Region::Europe => &[0, 3600, 2 * 3600, 3 * 3600],
            Region::Asia => &[5 * 3600 + 1800, 7 * 3600, 8 * 3600, 9 * 3600],
        }
    }

    /// Stable wire code.
    pub const fn code(self) -> u8 {
        match self {
            Region::NorthAmerica => 0,
            Region::SouthAmerica => 1,
            Region::Europe => 2,
            Region::Asia => 3,
        }
    }

    /// Inverse of [`Region::code`].
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Region::NorthAmerica),
            1 => Some(Region::SouthAmerica),
            2 => Some(Region::Europe),
            3 => Some(Region::Asia),
            _ => None,
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Region::NorthAmerica => "north-america",
            Region::SouthAmerica => "south-america",
            Region::Europe => "europe",
            Region::Asia => "asia",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for r in Region::ALL {
            assert_eq!(Region::from_code(r.code()), Some(r));
        }
        assert_eq!(Region::from_code(9), None);
    }

    #[test]
    fn offsets_within_utc_range() {
        for r in Region::ALL {
            assert!(!r.utc_offsets_secs().is_empty());
            for &off in r.utc_offsets_secs() {
                assert!((-12 * 3600..=14 * 3600).contains(&off));
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Region::Asia.to_string(), "asia");
        assert_eq!(Region::NorthAmerica.to_string(), "north-america");
    }
}
