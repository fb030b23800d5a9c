//! Protection faults and their compact numeric codes.

use std::fmt;

/// A violation detected by the Harbor protection mechanisms.
///
/// Hardware (UMPU) and software (SFI) implementations raise the same faults;
/// [`fault_code`] gives each a stable numeric code for transport through the
/// simulator's compact environment-fault channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionFault {
    /// A store into memory-map-protected space hit a block the active domain
    /// does not own.
    MemMapViolation {
        /// The write address.
        addr: u16,
        /// The active domain that attempted the write.
        domain: u8,
        /// The owner recorded in the memory map.
        owner: u8,
    },
    /// A store into the run-time stack above the current stack bound (i.e.
    /// into the caller's frames).
    StackBoundViolation {
        /// The write address.
        addr: u16,
        /// The active stack bound.
        bound: u16,
    },
    /// A store by an untrusted domain below the protected region (kernel
    /// globals / reserved space).
    KernelSpaceViolation {
        /// The write address.
        addr: u16,
        /// The active domain.
        domain: u8,
    },
    /// A cross-domain call targeted the jump-table region but fell past the
    /// last domain's table ("the target domain identifier exceeds the
    /// maximum number of domains").
    JumpTableOverflow {
        /// The call target (word address).
        target: u16,
    },
    /// Control flow left the active domain's code region other than through
    /// the jump table (fetch-decoder check).
    CfiViolation {
        /// The offending program counter (word address).
        pc: u16,
        /// The active domain.
        domain: u8,
    },
    /// The safe stack grew into the run-time stack (or its configured
    /// capacity).
    SafeStackOverflow {
        /// Safe-stack pointer at the time of the push.
        ptr: u16,
    },
    /// A return was attempted with an empty (or mismatched) safe stack.
    SafeStackUnderflow,
    /// Cross-domain call nesting exceeded the tracker's hardware depth.
    TrackerDepthExceeded {
        /// The depth that was requested.
        depth: u16,
    },
    /// An untrusted domain wrote a protection configuration register.
    ConfigAccessViolation {
        /// The I/O port written.
        port: u8,
        /// The active domain.
        domain: u8,
    },
    /// A domain id outside `0..=7` was supplied.
    InvalidDomain {
        /// The rejected id.
        id: u8,
    },
    /// An address or length did not satisfy the memory map's alignment or
    /// range requirements.
    BadSegment {
        /// The offending address.
        addr: u16,
        /// The requested length.
        len: u16,
    },
    /// An operation on memory not owned by the requesting domain (e.g. `free`
    /// or `change_own` by a non-owner).
    NotOwner {
        /// Address of the segment.
        addr: u16,
        /// The requesting domain.
        domain: u8,
        /// The recorded owner.
        owner: u8,
    },
    /// An address fell outside the memory-map-protected range where a mapped
    /// address was required.
    OutOfProtectedRange {
        /// The offending address.
        addr: u16,
    },
}

impl fmt::Display for ProtectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ProtectionFault::*;
        match *self {
            MemMapViolation { addr, domain, owner } => {
                write!(f, "memory-map violation: dom{domain} wrote {addr:#06x} owned by dom{owner}")
            }
            StackBoundViolation { addr, bound } => {
                write!(f, "stack-bound violation: write to {addr:#06x} above bound {bound:#06x}")
            }
            KernelSpaceViolation { addr, domain } => write!(
                f,
                "kernel-space violation: dom{domain} wrote {addr:#06x} below the protected region"
            ),
            JumpTableOverflow { target } => {
                write!(f, "call target {target:#06x} is past the last jump table")
            }
            CfiViolation { pc, domain } => write!(
                f,
                "control-flow violation: dom{domain} fetched {pc:#06x} outside its code region"
            ),
            SafeStackOverflow { ptr } => {
                write!(f, "safe stack overflow at {ptr:#06x}")
            }
            SafeStackUnderflow => f.write_str("safe stack underflow"),
            TrackerDepthExceeded { depth } => {
                write!(f, "cross-domain nesting depth {depth} exceeds tracker capacity")
            }
            ConfigAccessViolation { port, domain } => {
                write!(f, "dom{domain} wrote protection config port {port:#04x} (trusted only)")
            }
            InvalidDomain { id } => write!(f, "invalid domain id {id}"),
            BadSegment { addr, len } => {
                write!(f, "bad segment: addr {addr:#06x} len {len}")
            }
            NotOwner { addr, domain, owner } => {
                write!(f, "dom{domain} is not the owner of {addr:#06x} (owner dom{owner})")
            }
            OutOfProtectedRange { addr } => {
                write!(f, "address {addr:#06x} is outside the protected range")
            }
        }
    }
}

impl std::error::Error for ProtectionFault {}

/// Stable numeric codes for transporting faults through compact channels
/// (the simulator's [`EnvFault`](https://docs.rs/avr-core) `code` field and
/// the kernel's software exception register).
pub mod fault_code {
    /// [`MemMapViolation`](super::ProtectionFault::MemMapViolation).
    pub const MEM_MAP: u16 = 1;
    /// [`StackBoundViolation`](super::ProtectionFault::StackBoundViolation).
    pub const STACK_BOUND: u16 = 2;
    /// [`KernelSpaceViolation`](super::ProtectionFault::KernelSpaceViolation).
    pub const KERNEL_SPACE: u16 = 3;
    /// [`JumpTableOverflow`](super::ProtectionFault::JumpTableOverflow).
    pub const JUMP_TABLE: u16 = 4;
    /// [`CfiViolation`](super::ProtectionFault::CfiViolation).
    pub const CFI: u16 = 5;
    /// [`SafeStackOverflow`](super::ProtectionFault::SafeStackOverflow).
    pub const SAFE_STACK_OVERFLOW: u16 = 6;
    /// [`SafeStackUnderflow`](super::ProtectionFault::SafeStackUnderflow).
    pub const SAFE_STACK_UNDERFLOW: u16 = 7;
    /// [`TrackerDepthExceeded`](super::ProtectionFault::TrackerDepthExceeded).
    pub const TRACKER_DEPTH: u16 = 8;
    /// [`ConfigAccessViolation`](super::ProtectionFault::ConfigAccessViolation).
    pub const CONFIG_ACCESS: u16 = 9;
    /// [`InvalidDomain`](super::ProtectionFault::InvalidDomain).
    pub const INVALID_DOMAIN: u16 = 10;
    /// [`BadSegment`](super::ProtectionFault::BadSegment).
    pub const BAD_SEGMENT: u16 = 11;
    /// [`NotOwner`](super::ProtectionFault::NotOwner).
    pub const NOT_OWNER: u16 = 12;
    /// [`OutOfProtectedRange`](super::ProtectionFault::OutOfProtectedRange).
    pub const OUT_OF_RANGE: u16 = 13;
}

impl ProtectionFault {
    /// The fault's stable numeric code (see [`fault_code`]).
    pub const fn code(&self) -> u16 {
        use ProtectionFault::*;
        match self {
            MemMapViolation { .. } => fault_code::MEM_MAP,
            StackBoundViolation { .. } => fault_code::STACK_BOUND,
            KernelSpaceViolation { .. } => fault_code::KERNEL_SPACE,
            JumpTableOverflow { .. } => fault_code::JUMP_TABLE,
            CfiViolation { .. } => fault_code::CFI,
            SafeStackOverflow { .. } => fault_code::SAFE_STACK_OVERFLOW,
            SafeStackUnderflow => fault_code::SAFE_STACK_UNDERFLOW,
            TrackerDepthExceeded { .. } => fault_code::TRACKER_DEPTH,
            ConfigAccessViolation { .. } => fault_code::CONFIG_ACCESS,
            InvalidDomain { .. } => fault_code::INVALID_DOMAIN,
            BadSegment { .. } => fault_code::BAD_SEGMENT,
            NotOwner { .. } => fault_code::NOT_OWNER,
            OutOfProtectedRange { .. } => fault_code::OUT_OF_RANGE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct() {
        let faults = [
            ProtectionFault::MemMapViolation { addr: 0, domain: 0, owner: 1 },
            ProtectionFault::StackBoundViolation { addr: 0, bound: 0 },
            ProtectionFault::KernelSpaceViolation { addr: 0, domain: 0 },
            ProtectionFault::JumpTableOverflow { target: 0 },
            ProtectionFault::CfiViolation { pc: 0, domain: 0 },
            ProtectionFault::SafeStackOverflow { ptr: 0 },
            ProtectionFault::SafeStackUnderflow,
            ProtectionFault::TrackerDepthExceeded { depth: 0 },
            ProtectionFault::ConfigAccessViolation { port: 0, domain: 0 },
            ProtectionFault::InvalidDomain { id: 9 },
            ProtectionFault::BadSegment { addr: 0, len: 0 },
            ProtectionFault::NotOwner { addr: 0, domain: 0, owner: 0 },
            ProtectionFault::OutOfProtectedRange { addr: 0 },
        ];
        let mut codes: Vec<u16> = faults.iter().map(|f| f.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), faults.len(), "fault codes must be unique");
    }

    #[test]
    fn display_is_informative() {
        let f = ProtectionFault::MemMapViolation { addr: 0x123, domain: 2, owner: 5 };
        let s = f.to_string();
        assert!(s.contains("dom2") && s.contains("0x0123") && s.contains("dom5"));
    }
}
