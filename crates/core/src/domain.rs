//! Protection-domain identifiers.

use crate::fault::ProtectionFault;
use std::fmt;

/// A protection-domain identifier.
///
/// Harbor supports eight domains: user domains `0..=6` and the **trusted**
/// domain `7` (the kernel), whose identifier doubles as the "free" owner in
/// the memory map (Table 1 of the paper: `1111` = free or trusted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(u8);

impl TryFrom<u8> for DomainId {
    type Error = ProtectionFault;

    fn try_from(n: u8) -> Result<DomainId, ProtectionFault> {
        DomainId::new(n)
    }
}

impl From<DomainId> for u8 {
    fn from(d: DomainId) -> u8 {
        d.index()
    }
}

impl DomainId {
    /// The trusted (kernel) domain. It may write anywhere and is the only
    /// domain allowed to program the protection hardware.
    pub const TRUSTED: DomainId = DomainId(7);

    /// Number of domains in the multi-domain configuration.
    pub const COUNT: u8 = 8;

    /// Creates a domain id.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::InvalidDomain`] if `n > 7`.
    pub const fn new(n: u8) -> Result<DomainId, ProtectionFault> {
        if n < Self::COUNT {
            Ok(DomainId(n))
        } else {
            Err(ProtectionFault::InvalidDomain { id: n })
        }
    }

    /// Creates a domain id, panicking on overflow — for static tables.
    ///
    /// # Panics
    ///
    /// Panics if `n > 7`.
    pub const fn num(n: u8) -> DomainId {
        match Self::new(n) {
            Ok(d) => d,
            Err(_) => panic!("domain id out of range"),
        }
    }

    /// The numeric id, `0..=7`.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the trusted (kernel) domain.
    pub const fn is_trusted(self) -> bool {
        self.0 == Self::TRUSTED.0
    }

    /// Iterates over the seven user domains (`0..=6`).
    pub fn user_domains() -> impl Iterator<Item = DomainId> {
        (0..7).map(DomainId)
    }

    /// Iterates over all eight domains.
    pub fn all() -> impl Iterator<Item = DomainId> {
        (0..Self::COUNT).map(DomainId)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_trusted() {
            f.write_str("trusted")
        } else {
            write!(f, "dom{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bounds() {
        assert_eq!(DomainId::new(0).unwrap().index(), 0);
        assert_eq!(DomainId::new(7).unwrap(), DomainId::TRUSTED);
        assert!(DomainId::new(8).is_err());
        assert!(DomainId::TRUSTED.is_trusted());
        assert!(!DomainId::num(3).is_trusted());
    }

    #[test]
    fn iterators() {
        assert_eq!(DomainId::user_domains().count(), 7);
        assert!(DomainId::user_domains().all(|d| !d.is_trusted()));
        assert_eq!(DomainId::all().count(), 8);
    }

    #[test]
    fn display() {
        assert_eq!(DomainId::num(2).to_string(), "dom2");
        assert_eq!(DomainId::TRUSTED.to_string(), "trusted");
    }
}
