//! The complete write-permission rule: memory map + stack bound + region
//! layout, composed the way the MMC hardware (or the SFI check routine)
//! evaluates it.

use crate::fault::ProtectionFault;
use crate::memmap::MemoryMap;
use crate::tracker::DomainTracker;

/// The kernel's data-memory layout, one concrete instance of the paper's
/// flexible scheme:
///
/// ```text
/// sram_base ── kernel globals (trusted only)
///           ── protected range [prot_bottom, prot_top): heap + safe stack,
///              covered by the memory map
///           ── run-time stack, growing down from stack_top,
///              guarded by the stack bound
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// First SRAM address (kernel globals start here).
    pub sram_base: u16,
    /// Start of the memory-map-protected range (`mem_prot_bot`).
    pub prot_bottom: u16,
    /// End (exclusive) of the protected range (`mem_prot_top`).
    pub prot_top: u16,
    /// Highest stack address (`RAMEND`; the run-time stack grows down).
    pub stack_top: u16,
}

/// Coarse classification of a data address under a [`MemoryLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionClass {
    /// The memory-mapped register file (`0x00..=0x1f`).
    Registers,
    /// The I/O ports (`0x20..=0x5f`).
    Io,
    /// Kernel globals below the protected range — trusted writes only.
    KernelData,
    /// The memory-map-protected range (heap + safe stack).
    Protected,
    /// The shared run-time stack — guarded by the stack bound.
    RuntimeStack,
    /// Beyond `stack_top` (unimplemented memory).
    OutOfRange,
}

impl MemoryLayout {
    /// Classifies a data-space address.
    pub const fn classify(&self, addr: u16) -> RegionClass {
        if addr < 0x20 {
            RegionClass::Registers
        } else if addr < 0x60 {
            RegionClass::Io
        } else if addr < self.prot_bottom {
            RegionClass::KernelData
        } else if addr < self.prot_top {
            RegionClass::Protected
        } else if addr <= self.stack_top {
            RegionClass::RuntimeStack
        } else {
            RegionClass::OutOfRange
        }
    }
}

/// Verdict for an allowed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteVerdict {
    /// Stall cycles the MMC hardware charges (1 for memory-map-checked
    /// stores — Table 3; 0 for stack-bound-only and trusted-region stores,
    /// whose comparisons happen in parallel registers).
    pub mmc_stall_cycles: u8,
    /// Which region the store hit.
    pub region: RegionClass,
}

/// The full Harbor protection state: memory map, domain tracker and layout.
///
/// This is the specification the `umpu` hardware model and the `harbor-sfi`
/// run-time both implement; differential tests drive all three with the same
/// operation streams.
#[derive(Debug, Clone)]
pub struct ProtectionModel {
    map: MemoryMap,
    tracker: DomainTracker,
    layout: MemoryLayout,
}

impl ProtectionModel {
    /// Assembles the model. The memory map's protected range must match the
    /// layout's.
    ///
    /// # Panics
    ///
    /// Panics if the map geometry disagrees with the layout (construction
    /// bug, not a runtime fault).
    pub fn new(map: MemoryMap, tracker: DomainTracker, layout: MemoryLayout) -> ProtectionModel {
        assert_eq!(map.config().prot_bottom(), layout.prot_bottom);
        assert_eq!(map.config().prot_top(), layout.prot_top);
        ProtectionModel { map, tracker, layout }
    }

    /// The memory map.
    pub const fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// Mutable memory map (kernel allocator operations).
    pub fn map_mut(&mut self) -> &mut MemoryMap {
        &mut self.map
    }

    /// The domain tracker.
    pub const fn tracker(&self) -> &DomainTracker {
        &self.tracker
    }

    /// Mutable tracker (call/return arbitration).
    pub fn tracker_mut(&mut self) -> &mut DomainTracker {
        &mut self.tracker
    }

    /// The layout.
    pub const fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// The paper's complete store-permission rule, evaluated for the active
    /// domain:
    ///
    /// 1. trusted stores are always allowed;
    /// 2. stores in the protected range must hit a block the domain owns
    ///    (memory-map check; 1 stall cycle);
    /// 3. stores in the run-time stack must be at or below the stack bound;
    /// 4. stores to kernel globals are denied;
    /// 5. register/I/O destinations are outside the MMC's purview (allowed;
    ///    protection-configuration ports are guarded separately).
    ///
    /// # Errors
    ///
    /// The corresponding [`ProtectionFault`] for rules 2–4.
    pub fn check_store(&self, addr: u16) -> Result<WriteVerdict, ProtectionFault> {
        let dom = self.tracker.current_domain();
        let region = self.layout.classify(addr);
        // The MMC steals the bus for one cycle whenever the store address
        // falls inside the mapped range, regardless of outcome or domain.
        let stall = if matches!(region, RegionClass::Protected) { 1 } else { 0 };
        if dom.is_trusted() {
            return Ok(WriteVerdict { mmc_stall_cycles: stall, region });
        }
        match region {
            RegionClass::Registers | RegionClass::Io => {
                Ok(WriteVerdict { mmc_stall_cycles: 0, region })
            }
            RegionClass::KernelData => {
                Err(ProtectionFault::KernelSpaceViolation { addr, domain: dom.index() })
            }
            RegionClass::Protected => {
                self.map.check_write(dom, addr)?;
                Ok(WriteVerdict { mmc_stall_cycles: 1, region })
            }
            RegionClass::RuntimeStack => {
                if addr <= self.tracker.stack_bound() {
                    Ok(WriteVerdict { mmc_stall_cycles: 0, region })
                } else {
                    Err(ProtectionFault::StackBoundViolation {
                        addr,
                        bound: self.tracker.stack_bound(),
                    })
                }
            }
            RegionClass::OutOfRange => Err(ProtectionFault::OutOfProtectedRange { addr }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainId;
    use crate::jumptable::JumpTableLayout;
    use crate::memmap::MemMapConfig;
    use crate::safestack::SafeStack;

    fn model() -> ProtectionModel {
        let cfg = MemMapConfig::multi_domain(0x0200, 0x0e00).unwrap();
        let map = MemoryMap::new(cfg);
        let jt = JumpTableLayout::new(0x0800, 8);
        let ss = SafeStack::new(0x0d00, 256);
        let tracker = DomainTracker::new(jt, ss, 0x0fff);
        let layout = MemoryLayout {
            sram_base: 0x0060,
            prot_bottom: 0x0200,
            prot_top: 0x0e00,
            stack_top: 0x0fff,
        };
        ProtectionModel::new(map, tracker, layout)
    }

    #[test]
    fn region_classification() {
        let l = model().layout().to_owned();
        assert_eq!(l.classify(0x0010), RegionClass::Registers);
        assert_eq!(l.classify(0x0030), RegionClass::Io);
        assert_eq!(l.classify(0x0100), RegionClass::KernelData);
        assert_eq!(l.classify(0x0200), RegionClass::Protected);
        assert_eq!(l.classify(0x0dff), RegionClass::Protected);
        assert_eq!(l.classify(0x0e00), RegionClass::RuntimeStack);
        assert_eq!(l.classify(0x0fff), RegionClass::RuntimeStack);
        assert_eq!(l.classify(0x1000), RegionClass::OutOfRange);
    }

    #[test]
    fn trusted_writes_anywhere() {
        let m = model();
        for addr in [0x0070u16, 0x0200, 0x0d80, 0x0f00] {
            assert!(m.check_store(addr).is_ok(), "trusted store to {addr:#06x}");
        }
        // Stores in the mapped range stall 1 cycle even for trusted code.
        assert_eq!(m.check_store(0x0200).unwrap().mmc_stall_cycles, 1);
        assert_eq!(m.check_store(0x0f00).unwrap().mmc_stall_cycles, 0);
    }

    #[test]
    fn user_domain_rules() {
        let mut m = model();
        let d1 = DomainId::num(1);
        m.map_mut().set_segment(d1, 0x0300, 64).unwrap();
        m.tracker_mut().set_current_domain(d1);

        // Own heap segment: allowed, 1 stall.
        let v = m.check_store(0x0320).unwrap();
        assert_eq!(v.mmc_stall_cycles, 1);
        // Someone else's (free) heap: memory-map violation.
        assert!(matches!(m.check_store(0x0400), Err(ProtectionFault::MemMapViolation { .. })));
        // Kernel globals: denied.
        assert!(matches!(m.check_store(0x0100), Err(ProtectionFault::KernelSpaceViolation { .. })));
        // Run-time stack below the bound: allowed (bound = 0x0fff initially).
        assert!(m.check_store(0x0f00).is_ok());
        // I/O: outside the MMC's purview.
        assert!(m.check_store(0x0030).is_ok());
    }

    #[test]
    fn stack_bound_enforced_after_cross_domain_call() {
        let mut m = model();
        // trusted calls into domain 1 with SP = 0x0f80.
        m.tracker_mut().on_call(0x0880, 0x0042, 0x0f80).unwrap();
        assert_eq!(m.tracker().current_domain(), DomainId::num(1));
        // Callee may write its own frames (<= bound)...
        assert!(m.check_store(0x0f80).is_ok());
        assert!(m.check_store(0x0f10).is_ok());
        // ...but not the caller's frames above the bound.
        assert!(matches!(
            m.check_store(0x0f81),
            Err(ProtectionFault::StackBoundViolation { addr: 0x0f81, bound: 0x0f80 })
        ));
        // After the return the bound is restored.
        m.tracker_mut().on_ret().unwrap();
        assert!(m.check_store(0x0f81).is_ok());
    }

    #[test]
    fn safe_stack_region_is_trusted_owned() {
        let mut m = model();
        m.tracker_mut().set_current_domain(DomainId::num(0));
        // The safe stack lives in the protected range and its blocks are
        // free (trusted-owned), so user stores fault.
        assert!(matches!(m.check_store(0x0d00), Err(ProtectionFault::MemMapViolation { .. })));
    }
}
