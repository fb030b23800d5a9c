//! The safe stack: return addresses and cross-domain frames in trusted
//! memory (Sections 3.2–3.4 of the paper).
//!
//! The safe stack lives at the end of global data and grows *up*, toward the
//! run-time stack growing down — the two approach one another. Plain entries
//! are 2-byte return addresses; cross-domain frames additionally save the
//! caller's domain id and stack bound (5 bytes total, pushed one byte per
//! cycle by the hardware unit).

use crate::domain::DomainId;
use crate::fault::ProtectionFault;

/// Bytes used by a plain return-address entry.
pub const RET_ADDR_BYTES: u16 = 2;
/// Bytes used by a cross-domain frame: return address (2) + stack bound
/// (2) + caller domain id (1). Matches the paper's "five bytes … one byte
/// per clock cycle" overhead accounting.
pub const CROSS_DOMAIN_FRAME_BYTES: u16 = 5;

/// One entry on the safe stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafeStackEntry {
    /// A local-call return address (word address).
    RetAddr(u16),
    /// A cross-domain frame saving the caller's context.
    CrossDomain {
        /// The calling domain to restore on return.
        caller: DomainId,
        /// The caller's stack bound to restore on return.
        stack_bound: u16,
        /// The return address in the caller (word address).
        ret_addr: u16,
    },
}

impl SafeStackEntry {
    /// Size of the entry on the byte-level safe stack.
    pub const fn byte_len(&self) -> u16 {
        match self {
            SafeStackEntry::RetAddr(_) => RET_ADDR_BYTES,
            SafeStackEntry::CrossDomain { .. } => CROSS_DOMAIN_FRAME_BYTES,
        }
    }

    /// The entry's byte-level layout, in ascending address order. This is
    /// the format the UMPU safe-stack unit writes to RAM (and the kernel's
    /// SFI stubs replicate), so differential tests can compare raw memory.
    pub fn to_bytes(&self) -> Vec<u8> {
        match *self {
            SafeStackEntry::RetAddr(r) => vec![r as u8, (r >> 8) as u8],
            SafeStackEntry::CrossDomain { caller, stack_bound, ret_addr } => vec![
                ret_addr as u8,
                (ret_addr >> 8) as u8,
                stack_bound as u8,
                (stack_bound >> 8) as u8,
                caller.index(),
            ],
        }
    }
}

/// Golden model of the safe stack: typed entries with a byte-accurate
/// pointer.
///
/// The hardware keeps only `safe_stack_ptr`; the typed entry list here is
/// the *specification* of what those bytes mean.
///
/// # Example
///
/// ```
/// use harbor::{SafeStack, SafeStackEntry};
///
/// # fn main() -> Result<(), harbor::ProtectionFault> {
/// let mut s = SafeStack::new(0x0d00, 256);
/// s.push(SafeStackEntry::RetAddr(0x0123))?;
/// assert_eq!(s.ptr(), 0x0d02, "two bytes consumed; the pointer grows up");
/// assert_eq!(s.pop()?, SafeStackEntry::RetAddr(0x0123));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeStack {
    base: u16,
    capacity: u16,
    entries: Vec<SafeStackEntry>,
    used: u16,
}

impl SafeStack {
    /// Creates an empty safe stack at data address `base` with room for
    /// `capacity` bytes.
    pub fn new(base: u16, capacity: u16) -> SafeStack {
        SafeStack { base, capacity, entries: Vec::new(), used: 0 }
    }

    /// The base address (`safe_stack_ptr`'s reset value).
    pub const fn base(&self) -> u16 {
        self.base
    }

    /// The configured capacity in bytes.
    pub const fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Current byte usage.
    pub const fn used_bytes(&self) -> u16 {
        self.used
    }

    /// The current `safe_stack_ptr` value (next free byte; grows up).
    pub const fn ptr(&self) -> u16 {
        self.base + self.used
    }

    /// Number of entries.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, bottom to top.
    pub fn entries(&self) -> &[SafeStackEntry] {
        &self.entries
    }

    /// Peeks at the top entry.
    pub fn top(&self) -> Option<&SafeStackEntry> {
        self.entries.last()
    }

    /// Pushes an entry.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::SafeStackOverflow`] if it would exceed capacity.
    pub fn push(&mut self, e: SafeStackEntry) -> Result<(), ProtectionFault> {
        let len = e.byte_len();
        if self.used + len > self.capacity {
            return Err(ProtectionFault::SafeStackOverflow { ptr: self.ptr() });
        }
        self.used += len;
        self.entries.push(e);
        Ok(())
    }

    /// Pops the top entry.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::SafeStackUnderflow`] if empty.
    pub fn pop(&mut self) -> Result<SafeStackEntry, ProtectionFault> {
        let e = self.entries.pop().ok_or(ProtectionFault::SafeStackUnderflow)?;
        self.used -= e.byte_len();
        Ok(e)
    }

    /// [`SafeStack::push`] with trace emission: a successful push records a
    /// [`harbor_scope::Event::SafeStackPush`] (with the post-push pointer),
    /// an overflow records [`harbor_scope::Event::SafeStackOverflow`].
    ///
    /// # Errors
    ///
    /// Exactly as [`SafeStack::push`].
    pub fn push_traced(
        &mut self,
        e: SafeStackEntry,
        cycles: u64,
        sink: &mut dyn harbor_scope::TraceSink,
    ) -> Result<(), ProtectionFault> {
        let frame = matches!(e, SafeStackEntry::CrossDomain { .. });
        let r = self.push(e);
        match r {
            Ok(()) => {
                sink.record(&harbor_scope::Event::SafeStackPush { cycles, frame, ptr: self.ptr() })
            }
            Err(_) => {
                sink.record(&harbor_scope::Event::SafeStackOverflow { cycles, ptr: self.ptr() })
            }
        }
        r
    }

    /// [`SafeStack::pop`] with trace emission: a successful pop records a
    /// [`harbor_scope::Event::SafeStackPop`] with the post-pop pointer.
    ///
    /// # Errors
    ///
    /// Exactly as [`SafeStack::pop`].
    pub fn pop_traced(
        &mut self,
        cycles: u64,
        sink: &mut dyn harbor_scope::TraceSink,
    ) -> Result<SafeStackEntry, ProtectionFault> {
        let r = self.pop();
        if let Ok(e) = &r {
            sink.record(&harbor_scope::Event::SafeStackPop {
                cycles,
                frame: matches!(e, SafeStackEntry::CrossDomain { .. }),
                ptr: self.ptr(),
            });
        }
        r
    }

    /// Serialises the whole stack to bytes, bottom to top — the exact RAM
    /// image at [`SafeStack::base`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.used as usize);
        for e in &self.entries {
            out.extend_from_slice(&e.to_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_sizes_match_paper() {
        assert_eq!(SafeStackEntry::RetAddr(0).byte_len(), 2);
        assert_eq!(
            SafeStackEntry::CrossDomain { caller: DomainId::num(1), stack_bound: 0, ret_addr: 0 }
                .byte_len(),
            5,
            "the 5 bytes pushed in 5 cycles (Table 3)"
        );
    }

    #[test]
    fn push_pop_and_pointer() {
        let mut s = SafeStack::new(0x0200, 64);
        assert_eq!(s.ptr(), 0x0200);
        s.push(SafeStackEntry::RetAddr(0x1234)).unwrap();
        assert_eq!(s.ptr(), 0x0202);
        s.push(SafeStackEntry::CrossDomain {
            caller: DomainId::num(2),
            stack_bound: 0x0f00,
            ret_addr: 0x0456,
        })
        .unwrap();
        assert_eq!(s.ptr(), 0x0207);
        assert_eq!(s.depth(), 2);
        let top = s.pop().unwrap();
        assert!(matches!(top, SafeStackEntry::CrossDomain { stack_bound: 0x0f00, .. }));
        assert_eq!(s.pop().unwrap(), SafeStackEntry::RetAddr(0x1234));
        assert_eq!(s.pop(), Err(ProtectionFault::SafeStackUnderflow));
    }

    #[test]
    fn overflow_detected() {
        let mut s = SafeStack::new(0x0200, 5);
        s.push(SafeStackEntry::RetAddr(1)).unwrap();
        s.push(SafeStackEntry::RetAddr(2)).unwrap();
        assert_eq!(
            s.push(SafeStackEntry::RetAddr(3)),
            Err(ProtectionFault::SafeStackOverflow { ptr: 0x0204 })
        );
        assert_eq!(s.depth(), 2, "failed push leaves state intact");
    }

    #[test]
    fn byte_layout() {
        let mut s = SafeStack::new(0x0300, 32);
        s.push(SafeStackEntry::RetAddr(0xbbaa)).unwrap();
        s.push(SafeStackEntry::CrossDomain {
            caller: DomainId::num(3),
            stack_bound: 0x0fee,
            ret_addr: 0x1122,
        })
        .unwrap();
        assert_eq!(
            s.to_bytes(),
            vec![0xaa, 0xbb, 0x22, 0x11, 0xee, 0x0f, 3],
            "ret-addr little endian, then frame: ret, bound, caller"
        );
    }

    #[test]
    fn traced_push_pop_emit_and_match_untraced() {
        use harbor_scope::{Event, ScopeSink};
        let mut s = SafeStack::new(0x0300, 7);
        let mut sink = ScopeSink::stream();
        s.push_traced(SafeStackEntry::RetAddr(0x10), 1, &mut sink).unwrap();
        s.push_traced(
            SafeStackEntry::CrossDomain {
                caller: DomainId::num(1),
                stack_bound: 0xf00,
                ret_addr: 0x20,
            },
            2,
            &mut sink,
        )
        .unwrap();
        // Full: a further push overflows and reports the failed pointer.
        assert!(s.push_traced(SafeStackEntry::RetAddr(0x30), 3, &mut sink).is_err());
        let popped = s.pop_traced(4, &mut sink).unwrap();
        assert!(matches!(popped, SafeStackEntry::CrossDomain { .. }));
        assert_eq!(
            sink.events(),
            vec![
                Event::SafeStackPush { cycles: 1, frame: false, ptr: 0x0302 },
                Event::SafeStackPush { cycles: 2, frame: true, ptr: 0x0307 },
                Event::SafeStackOverflow { cycles: 3, ptr: 0x0307 },
                Event::SafeStackPop { cycles: 4, frame: true, ptr: 0x0302 },
            ]
        );
    }
}
