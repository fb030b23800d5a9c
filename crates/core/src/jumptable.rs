//! Per-domain jump-table geometry for cross-domain linking (Section 3).
//!
//! Each domain owns one flash page of jump instructions; all pages are
//! co-located starting at a fixed base. This makes the call-target check a
//! single compare against the base, with the upper bound deferred to the
//! domain-id range check — exactly the paper's optimization.

use crate::domain::DomainId;
use crate::fault::ProtectionFault;

/// Geometry of the co-located per-domain jump tables in flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JumpTableLayout {
    base: u16,
    entries_per_domain: u16,
    domains: u8,
}

impl JumpTableLayout {
    /// One flash page (256 B) of one-word `rjmp` entries per domain — the
    /// paper's AVR configuration, giving 128 exportable functions per domain.
    pub const ENTRIES_PER_PAGE: u16 = 128;

    /// Creates the layout: `domains` consecutive pages of
    /// [`ENTRIES_PER_PAGE`](Self::ENTRIES_PER_PAGE) entries starting at word
    /// address `base`.
    pub const fn new(base: u16, domains: u8) -> JumpTableLayout {
        JumpTableLayout { base, entries_per_domain: Self::ENTRIES_PER_PAGE, domains }
    }

    /// Creates a layout with a custom per-domain entry count ("this limit can
    /// be easily extended by allocating more space").
    pub const fn with_entries(base: u16, domains: u8, entries_per_domain: u16) -> JumpTableLayout {
        JumpTableLayout { base, entries_per_domain, domains }
    }

    /// Word address of the first (domain 0) table.
    pub const fn base(&self) -> u16 {
        self.base
    }

    /// Entries per domain.
    pub const fn entries_per_domain(&self) -> u16 {
        self.entries_per_domain
    }

    /// Number of domains with tables.
    pub const fn domains(&self) -> u8 {
        self.domains
    }

    /// First word address past the last table.
    pub const fn end(&self) -> u16 {
        self.base + self.total_words()
    }

    /// Total size in words.
    pub const fn total_words(&self) -> u16 {
        self.entries_per_domain * self.domains as u16
    }

    /// Total size in bytes — the flash cost reported in Table 5 of the paper
    /// (2048 B for 8 domains × 128 one-word entries).
    pub const fn total_bytes(&self) -> u16 {
        self.total_words() * 2
    }

    /// Word address of `entry` in `domain`'s table.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range (static linking error).
    pub fn entry_addr(&self, domain: DomainId, entry: u16) -> u16 {
        assert!(entry < self.entries_per_domain, "jump table entry out of range");
        self.base + domain.index() as u16 * self.entries_per_domain + entry
    }

    /// Whether `target` (a word address) lies anywhere at or past the table
    /// base — the single compare the hardware performs first.
    pub const fn is_candidate(&self, target: u16) -> bool {
        target >= self.base
    }

    /// Classifies a call target: `Ok(None)` for an ordinary (local) call
    /// below the table base, `Ok(Some((domain, entry)))` for a cross-domain
    /// call through the table.
    ///
    /// # Example
    ///
    /// ```
    /// use harbor::{DomainId, JumpTableLayout};
    ///
    /// # fn main() -> Result<(), harbor::ProtectionFault> {
    /// let jt = JumpTableLayout::new(0x0800, 8);
    /// assert_eq!(jt.classify(0x0100)?, None); // local call
    /// assert_eq!(jt.classify(0x0885)?, Some((DomainId::new(1)?, 5)));
    /// assert!(jt.classify(0x0c00).is_err()); // past the last table
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::JumpTableOverflow`] when the computed domain id
    /// falls past the last table (the deferred upper-bound check).
    pub fn classify(&self, target: u16) -> Result<Option<(DomainId, u16)>, ProtectionFault> {
        if target < self.base {
            return Ok(None);
        }
        let off = target - self.base;
        let dom = off / self.entries_per_domain;
        if dom >= self.domains as u16 {
            return Err(ProtectionFault::JumpTableOverflow { target });
        }
        let entry = off % self.entries_per_domain;
        Ok(Some((DomainId::num(dom as u8), entry)))
    }

    /// [`JumpTableLayout::classify`] with trace emission: a target landing
    /// in a table records a [`harbor_scope::Event::JumpTableDispatch`]
    /// (local calls and overflows emit nothing — the tracker reports those).
    ///
    /// # Errors
    ///
    /// Exactly as [`JumpTableLayout::classify`].
    pub fn classify_traced(
        &self,
        target: u16,
        cycles: u64,
        sink: &mut dyn harbor_scope::TraceSink,
    ) -> Result<Option<(DomainId, u16)>, ProtectionFault> {
        let r = self.classify(target);
        if let Ok(Some((dom, entry))) = &r {
            sink.record(&harbor_scope::Event::JumpTableDispatch {
                cycles,
                domain: dom.index(),
                entry: *entry,
                target,
            });
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_flash_cost() {
        let jt = JumpTableLayout::new(0x0800, 8);
        assert_eq!(jt.total_bytes(), 2048, "Table 5: jump table FLASH cost");
        assert_eq!(jt.total_words(), 1024);
        assert_eq!(jt.end(), 0x0c00);
    }

    #[test]
    fn entry_addresses() {
        let jt = JumpTableLayout::new(0x0800, 8);
        assert_eq!(jt.entry_addr(DomainId::num(0), 0), 0x0800);
        assert_eq!(jt.entry_addr(DomainId::num(0), 127), 0x087f);
        assert_eq!(jt.entry_addr(DomainId::num(1), 0), 0x0880);
        assert_eq!(jt.entry_addr(DomainId::TRUSTED, 5), 0x0800 + 7 * 128 + 5);
    }

    #[test]
    #[should_panic(expected = "entry out of range")]
    fn entry_addr_bounds() {
        JumpTableLayout::new(0x0800, 8).entry_addr(DomainId::num(0), 128);
    }

    #[test]
    fn classify_targets() {
        let jt = JumpTableLayout::new(0x0800, 8);
        assert_eq!(jt.classify(0x0100).unwrap(), None, "below base: local call");
        assert_eq!(jt.classify(0x0800).unwrap(), Some((DomainId::num(0), 0)));
        assert_eq!(jt.classify(0x0885).unwrap(), Some((DomainId::num(1), 5)));
        assert_eq!(
            jt.classify(0x0bff).unwrap(),
            Some((DomainId::TRUSTED, 127)),
            "last entry of the trusted table"
        );
        assert!(matches!(
            jt.classify(0x0c00),
            Err(ProtectionFault::JumpTableOverflow { target: 0x0c00 })
        ));
    }

    #[test]
    fn custom_entry_count() {
        let jt = JumpTableLayout::with_entries(0x0400, 4, 32);
        assert_eq!(jt.total_bytes(), 4 * 32 * 2);
        assert_eq!(jt.classify(0x0400 + 33).unwrap(), Some((DomainId::num(1), 1)));
    }

    #[test]
    fn traced_classify_emits_only_on_dispatch() {
        use harbor_scope::{Event, ScopeSink};
        let jt = JumpTableLayout::new(0x0800, 8);
        let mut sink = ScopeSink::stream();
        assert_eq!(jt.classify_traced(0x0100, 1, &mut sink), jt.classify(0x0100));
        assert_eq!(jt.classify_traced(0x0885, 2, &mut sink), jt.classify(0x0885));
        assert_eq!(jt.classify_traced(0x0c00, 3, &mut sink), jt.classify(0x0c00));
        assert_eq!(
            sink.events(),
            vec![Event::JumpTableDispatch { cycles: 2, domain: 1, entry: 5, target: 0x0885 }]
        );
    }
}
