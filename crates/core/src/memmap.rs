//! The memory map: per-block ownership and layout records for the protected
//! address range (Section 2 of the paper).

use crate::domain::DomainId;
use crate::fault::ProtectionFault;
use std::fmt;

/// A power-of-two protection block size in bytes (`2..=256`; the paper's
/// running example and the kernel default is 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSize(u8); // stored as log2

impl TryFrom<u16> for BlockSize {
    type Error = ProtectionFault;

    fn try_from(bytes: u16) -> Result<BlockSize, ProtectionFault> {
        BlockSize::new(bytes)
    }
}

impl From<BlockSize> for u16 {
    fn from(b: BlockSize) -> u16 {
        b.bytes()
    }
}

impl BlockSize {
    /// The paper's default block size, 8 bytes.
    pub const DEFAULT: BlockSize = BlockSize(3);

    /// Creates a block size from a byte count.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::BadSegment`] if `bytes` is not a power of two in
    /// `2..=256`.
    pub const fn new(bytes: u16) -> Result<BlockSize, ProtectionFault> {
        if bytes.is_power_of_two() && bytes >= 2 && bytes <= 256 {
            Ok(BlockSize(bytes.trailing_zeros() as u8))
        } else {
            Err(ProtectionFault::BadSegment { addr: 0, len: bytes })
        }
    }

    /// The block size in bytes.
    pub const fn bytes(self) -> u16 {
        1 << self.0
    }

    /// log2 of the block size (the shift used in address translation).
    pub const fn log2(self) -> u8 {
        self.0
    }
}

impl Default for BlockSize {
    fn default() -> Self {
        BlockSize::DEFAULT
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.bytes())
    }
}

/// How many domains the map distinguishes, which sets the record width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainMode {
    /// Kernel/user protection: 2-bit records (owner bit + start bit). The
    /// only user domain is domain 0.
    Two,
    /// Full multi-domain protection: 4-bit records per Table 1 of the paper
    /// (3-bit owner + start bit, owner 7 = trusted/free).
    Multi,
}

impl DomainMode {
    /// Record width in bits (2 or 4).
    pub const fn bits_per_record(self) -> u8 {
        match self {
            DomainMode::Two => 2,
            DomainMode::Multi => 4,
        }
    }

    /// Records packed per memory-map byte (4 or 2).
    pub const fn records_per_byte(self) -> u8 {
        8 / self.bits_per_record()
    }
}

/// One memory-map record: who owns a block and whether it begins a segment.
///
/// The paper's Table 1 encoding: `owner << 1 | start`, with owner 7 meaning
/// trusted-or-free (`1111` = free / start of trusted segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owning domain ([`DomainId::TRUSTED`] also means "free").
    pub owner: DomainId,
    /// Whether this block starts a logical segment of allocation.
    pub start: bool,
}

impl Record {
    /// The record marking a free block (`1111`).
    pub const FREE: Record = Record { owner: DomainId::TRUSTED, start: true };

    /// Encodes to the 4-bit form of Table 1.
    pub const fn to_nibble(self) -> u8 {
        (self.owner.index() << 1) | self.start as u8
    }

    /// Decodes from the 4-bit form of Table 1.
    pub const fn from_nibble(n: u8) -> Record {
        Record { owner: DomainId::num((n >> 1) & 0x7), start: n & 1 != 0 }
    }

    /// Encodes to the 2-bit two-domain form (owner bit: 1 = trusted/free,
    /// 0 = user domain 0).
    pub const fn to_two_bit(self) -> u8 {
        let owner_bit = if self.owner.is_trusted() { 1 } else { 0 };
        (owner_bit << 1) | self.start as u8
    }

    /// Decodes from the 2-bit two-domain form.
    pub const fn from_two_bit(n: u8) -> Record {
        Record {
            owner: if (n >> 1) & 1 != 0 { DomainId::TRUSTED } else { DomainId::num(0) },
            start: n & 1 != 0,
        }
    }
}

/// Result of translating a write address to its memory-map record location
/// (Figure 4b of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapLookup {
    /// Block number within the protected range.
    pub block: u16,
    /// Byte index into the memory-map table.
    pub byte_index: u16,
    /// Bit shift of the record within that byte (even blocks at shift 0).
    pub shift: u8,
}

/// Memory-map geometry: protected range, block size and domain mode.
///
/// Mirrors the paper's configuration registers: `mem_prot_bot`,
/// `mem_prot_top` and `mem_map_config` (block size + domain count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemMapConfig {
    block_size: BlockSize,
    mode: DomainMode,
    prot_bottom: u16,
    prot_top: u16, // exclusive
}

impl MemMapConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::BadSegment`] if the bounds are not block-aligned
    /// or `bottom >= top`.
    pub fn new(
        mode: DomainMode,
        block_size: BlockSize,
        prot_bottom: u16,
        prot_top: u16,
    ) -> Result<MemMapConfig, ProtectionFault> {
        let bs = block_size.bytes();
        if prot_bottom >= prot_top
            || !prot_bottom.is_multiple_of(bs)
            || !prot_top.is_multiple_of(bs)
        {
            return Err(ProtectionFault::BadSegment {
                addr: prot_bottom,
                len: prot_top.wrapping_sub(prot_bottom),
            });
        }
        Ok(MemMapConfig { block_size, mode, prot_bottom, prot_top })
    }

    /// Multi-domain protection with the default 8-byte blocks.
    ///
    /// # Errors
    ///
    /// See [`MemMapConfig::new`].
    pub fn multi_domain(prot_bottom: u16, prot_top: u16) -> Result<MemMapConfig, ProtectionFault> {
        MemMapConfig::new(DomainMode::Multi, BlockSize::DEFAULT, prot_bottom, prot_top)
    }

    /// Two-domain (kernel/user) protection with the default 8-byte blocks.
    ///
    /// # Errors
    ///
    /// See [`MemMapConfig::new`].
    pub fn two_domain(prot_bottom: u16, prot_top: u16) -> Result<MemMapConfig, ProtectionFault> {
        MemMapConfig::new(DomainMode::Two, BlockSize::DEFAULT, prot_bottom, prot_top)
    }

    /// The block size.
    pub const fn block_size(&self) -> BlockSize {
        self.block_size
    }

    /// The domain mode.
    pub const fn mode(&self) -> DomainMode {
        self.mode
    }

    /// Inclusive lower bound of the protected range (`mem_prot_bot`).
    pub const fn prot_bottom(&self) -> u16 {
        self.prot_bottom
    }

    /// Exclusive upper bound of the protected range (`mem_prot_top`).
    pub const fn prot_top(&self) -> u16 {
        self.prot_top
    }

    /// Whether `addr` falls in the protected range.
    pub const fn contains(&self, addr: u16) -> bool {
        addr >= self.prot_bottom && addr < self.prot_top
    }

    /// Number of protection blocks covered.
    pub const fn num_blocks(&self) -> u16 {
        (self.prot_top - self.prot_bottom) >> self.block_size.log2()
    }

    /// Size of the memory-map table in bytes — the RAM cost of protection
    /// (Table 5 / Section 6.2 of the paper).
    pub const fn map_size_bytes(&self) -> u16 {
        let per = self.mode.records_per_byte() as u16;
        self.num_blocks().div_ceil(per)
    }

    /// Translates a protected address to its record location (Figure 4b).
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::OutOfProtectedRange`] outside the range.
    pub fn lookup(&self, addr: u16) -> Result<MapLookup, ProtectionFault> {
        if !self.contains(addr) {
            return Err(ProtectionFault::OutOfProtectedRange { addr });
        }
        let offset = addr - self.prot_bottom;
        let block = offset >> self.block_size.log2();
        let per = self.mode.records_per_byte() as u16;
        let bits = self.mode.bits_per_record();
        Ok(MapLookup { block, byte_index: block / per, shift: (block % per) as u8 * bits })
    }

    /// First data address of block number `block`.
    pub const fn block_addr(&self, block: u16) -> u16 {
        self.prot_bottom + (block << self.block_size.log2())
    }
}

/// The memory map itself: the packed record table plus its geometry.
///
/// The kernel keeps this table in trusted RAM; the MMC hardware (or the SFI
/// check routine) consults it on every store. This host-level model owns its
/// bytes; [`MemoryMap::as_bytes`] exposes them so tests can compare against
/// the table maintained in simulated kernel RAM.
///
/// # Example
///
/// ```
/// use harbor::{DomainId, MemMapConfig, MemoryMap};
///
/// # fn main() -> Result<(), harbor::ProtectionFault> {
/// let mut map = MemoryMap::new(MemMapConfig::multi_domain(0x0200, 0x0400)?);
/// let app = DomainId::new(2)?;
/// map.set_segment(app, 0x0200, 24)?;            // 3 blocks
/// assert!(map.check_write(app, 0x0210).is_ok());
/// assert_eq!(map.segment_blocks(0x0200)?, 3);
/// map.change_own(app, 0x0200, DomainId::new(5)?)?;
/// assert!(map.check_write(app, 0x0210).is_err(), "old owner locked out");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryMap {
    cfg: MemMapConfig,
    bytes: Vec<u8>,
}

impl MemoryMap {
    /// Creates a map with every block free.
    pub fn new(cfg: MemMapConfig) -> MemoryMap {
        // Free is `1111` (multi) / `11` (two): all-ones either way.
        MemoryMap { cfg, bytes: vec![0xff; cfg.map_size_bytes() as usize] }
    }

    /// Rebuilds a map from raw table bytes (e.g. read out of simulated RAM).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly [`MemMapConfig::map_size_bytes`] long.
    pub fn from_raw(cfg: MemMapConfig, bytes: Vec<u8>) -> MemoryMap {
        assert_eq!(bytes.len(), cfg.map_size_bytes() as usize, "raw table size mismatch");
        MemoryMap { cfg, bytes }
    }

    /// The geometry.
    pub const fn config(&self) -> &MemMapConfig {
        &self.cfg
    }

    /// The packed record table.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reads the record for block number `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range (internal indexing error).
    pub fn record(&self, block: u16) -> Record {
        let per = self.cfg.mode.records_per_byte() as u16;
        let bits = self.cfg.mode.bits_per_record();
        let byte = self.bytes[(block / per) as usize];
        let raw = (byte >> ((block % per) as u8 * bits)) & ((1 << bits) - 1);
        match self.cfg.mode {
            DomainMode::Two => Record::from_two_bit(raw),
            DomainMode::Multi => Record::from_nibble(raw),
        }
    }

    fn set_record(&mut self, block: u16, rec: Record) {
        let per = self.cfg.mode.records_per_byte() as u16;
        let bits = self.cfg.mode.bits_per_record();
        let raw = match self.cfg.mode {
            DomainMode::Two => rec.to_two_bit(),
            DomainMode::Multi => rec.to_nibble(),
        };
        let shift = (block % per) as u8 * bits;
        let mask = ((1u8 << bits) - 1) << shift;
        let b = &mut self.bytes[(block / per) as usize];
        *b = (*b & !mask) | (raw << shift);
    }

    /// Record for the block containing `addr`.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::OutOfProtectedRange`] outside the range.
    pub fn record_at(&self, addr: u16) -> Result<Record, ProtectionFault> {
        Ok(self.record(self.cfg.lookup(addr)?.block))
    }

    /// Owner of the block containing `addr` ([`DomainId::TRUSTED`] for free
    /// blocks).
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::OutOfProtectedRange`] outside the range.
    pub fn owner_of(&self, addr: u16) -> Result<DomainId, ProtectionFault> {
        Ok(self.record_at(addr)?.owner)
    }

    /// Whether `addr`'s block starts a logical segment.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::OutOfProtectedRange`] outside the range.
    pub fn is_segment_start(&self, addr: u16) -> Result<bool, ProtectionFault> {
        Ok(self.record_at(addr)?.start)
    }

    /// The memory-map checker's core rule: may `domain` store to `addr`?
    /// The trusted domain may always write.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::MemMapViolation`] if the block belongs to another
    /// domain, [`ProtectionFault::OutOfProtectedRange`] outside the range.
    pub fn check_write(&self, domain: DomainId, addr: u16) -> Result<(), ProtectionFault> {
        if domain.is_trusted() {
            return Ok(());
        }
        let owner = self.owner_of(addr)?;
        if owner == domain {
            Ok(())
        } else {
            Err(ProtectionFault::MemMapViolation {
                addr,
                domain: domain.index(),
                owner: owner.index(),
            })
        }
    }

    /// [`MemoryMap::check_write`] with trace emission: the decision is
    /// recorded as a [`harbor_scope::Event::MemMapCheck`] stamped with
    /// `cycles` (stall 1, the hardware checker's extra bus cycle). The
    /// arbitration itself is byte-for-byte the untraced method.
    ///
    /// # Errors
    ///
    /// Exactly as [`MemoryMap::check_write`].
    pub fn check_write_traced(
        &self,
        domain: DomainId,
        addr: u16,
        cycles: u64,
        sink: &mut dyn harbor_scope::TraceSink,
    ) -> Result<(), ProtectionFault> {
        let r = self.check_write(domain, addr);
        sink.record(&harbor_scope::Event::MemMapCheck {
            cycles,
            domain: domain.index(),
            addr,
            granted: r.is_ok(),
            stall: 1,
        });
        r
    }

    /// Marks `len` bytes starting at block-aligned `addr` as a segment owned
    /// by `owner` (the first block gets the start flag). `len` is rounded up
    /// to whole blocks.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::BadSegment`] for unaligned/zero/out-of-range
    /// segments; [`ProtectionFault::InvalidDomain`] if `owner` is a user
    /// domain other than 0 in two-domain mode.
    pub fn set_segment(
        &mut self,
        owner: DomainId,
        addr: u16,
        len: u16,
    ) -> Result<(), ProtectionFault> {
        let blocks = self.segment_block_range(addr, len)?;
        if self.cfg.mode == DomainMode::Two && !owner.is_trusted() && owner.index() != 0 {
            return Err(ProtectionFault::InvalidDomain { id: owner.index() });
        }
        for (i, block) in blocks.enumerate() {
            self.set_record(block, Record { owner, start: i == 0 });
        }
        Ok(())
    }

    /// Frees the segment starting at `addr`, enforcing the paper's ownership
    /// rule: only the block owner (or the trusted domain) may free it.
    /// Returns the number of blocks freed.
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::NotOwner`] if `requester` does not own the
    /// segment; [`ProtectionFault::BadSegment`] if `addr` is not a segment
    /// start.
    pub fn free_segment(&mut self, requester: DomainId, addr: u16) -> Result<u16, ProtectionFault> {
        let blocks = self.owned_segment(requester, addr)?;
        let n = blocks.len() as u16;
        for b in blocks {
            self.set_record(b, Record::FREE);
        }
        Ok(n)
    }

    /// Transfers ownership of the segment starting at `addr` to `new_owner`,
    /// enforcing that only the current owner (or trusted) may transfer.
    /// Returns the number of blocks transferred.
    ///
    /// # Errors
    ///
    /// As [`MemoryMap::free_segment`], plus [`ProtectionFault::InvalidDomain`]
    /// for an illegal `new_owner` in two-domain mode.
    pub fn change_own(
        &mut self,
        requester: DomainId,
        addr: u16,
        new_owner: DomainId,
    ) -> Result<u16, ProtectionFault> {
        if self.cfg.mode == DomainMode::Two && !new_owner.is_trusted() && new_owner.index() != 0 {
            return Err(ProtectionFault::InvalidDomain { id: new_owner.index() });
        }
        let blocks = self.owned_segment(requester, addr)?;
        let n = blocks.len() as u16;
        for (i, b) in blocks.into_iter().enumerate() {
            self.set_record(b, Record { owner: new_owner, start: i == 0 });
        }
        Ok(n)
    }

    /// Length in blocks of the segment starting at `addr` (a start block
    /// followed by its continuation blocks).
    ///
    /// # Errors
    ///
    /// [`ProtectionFault::BadSegment`] if `addr` is not a segment start.
    pub fn segment_blocks(&self, addr: u16) -> Result<u16, ProtectionFault> {
        Ok(self.collect_segment(addr)?.len() as u16)
    }

    /// Frees **every** block owned by `owner` (the kernel's cleanup when a
    /// module is unloaded) and returns the segments reclaimed as
    /// `(start address, blocks)` pairs.
    ///
    /// A no-op for the trusted domain (its records also encode "free", and
    /// kernel memory is never bulk-reclaimed).
    pub fn free_all_owned(&mut self, owner: DomainId) -> Vec<(u16, u16)> {
        if owner.is_trusted() {
            return Vec::new();
        }
        let mut reclaimed = Vec::new();
        let total = self.cfg.num_blocks();
        let mut b = 0u16;
        while b < total {
            let rec = self.record(b);
            if rec.owner == owner && rec.start {
                let addr = self.cfg.block_addr(b);
                let n = self.free_segment(DomainId::TRUSTED, addr).expect("start block frees");
                reclaimed.push((addr, n));
                b += n;
            } else {
                b += 1;
            }
        }
        reclaimed
    }

    fn owned_segment(&self, requester: DomainId, addr: u16) -> Result<Vec<u16>, ProtectionFault> {
        let blocks = self.collect_segment(addr)?;
        let owner = self.record(blocks[0]).owner;
        if requester.is_trusted() || owner == requester {
            Ok(blocks)
        } else {
            Err(ProtectionFault::NotOwner { addr, domain: requester.index(), owner: owner.index() })
        }
    }

    fn collect_segment(&self, addr: u16) -> Result<Vec<u16>, ProtectionFault> {
        let first = self.cfg.lookup(addr)?.block;
        let rec = self.record(first);
        if !rec.start {
            return Err(ProtectionFault::BadSegment { addr, len: 0 });
        }
        let mut blocks = vec![first];
        let total = self.cfg.num_blocks();
        let mut b = first + 1;
        while b < total {
            let r = self.record(b);
            if r.start || r.owner != rec.owner {
                break;
            }
            blocks.push(b);
            b += 1;
        }
        Ok(blocks)
    }

    fn segment_block_range(
        &self,
        addr: u16,
        len: u16,
    ) -> Result<std::ops::Range<u16>, ProtectionFault> {
        let bs = self.cfg.block_size.bytes();
        if len == 0 || !addr.is_multiple_of(bs) {
            return Err(ProtectionFault::BadSegment { addr, len });
        }
        let first = self.cfg.lookup(addr)?.block;
        let nblocks = len.div_ceil(bs);
        let last = first + nblocks - 1;
        if last >= self.cfg.num_blocks() {
            return Err(ProtectionFault::BadSegment { addr, len });
        }
        Ok(first..first + nblocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemMapConfig {
        MemMapConfig::multi_domain(0x0100, 0x0200).unwrap()
    }

    #[test]
    fn block_size_validation() {
        assert_eq!(BlockSize::new(8).unwrap().bytes(), 8);
        assert_eq!(BlockSize::new(8).unwrap().log2(), 3);
        assert_eq!(BlockSize::new(256).unwrap().bytes(), 256);
        assert!(BlockSize::new(0).is_err());
        assert!(BlockSize::new(1).is_err(), "1-byte blocks are not supported");
        assert!(BlockSize::new(12).is_err(), "non-power-of-two");
        assert!(BlockSize::new(512).is_err());
    }

    #[test]
    fn table1_nibble_encoding() {
        // 1111 = free / start of trusted.
        assert_eq!(Record::FREE.to_nibble(), 0b1111);
        // 1110 = later portion of trusted.
        assert_eq!(Record { owner: DomainId::TRUSTED, start: false }.to_nibble(), 0b1110);
        // xxx1 = start of domain segment.
        let d3 = DomainId::num(3);
        assert_eq!(Record { owner: d3, start: true }.to_nibble(), 0b0111);
        assert_eq!(Record { owner: d3, start: false }.to_nibble(), 0b0110);
        for n in 0..16u8 {
            assert_eq!(Record::from_nibble(n).to_nibble(), n, "nibble {n} round-trips");
        }
        for n in 0..4u8 {
            assert_eq!(Record::from_two_bit(n).to_two_bit(), n);
        }
    }

    #[test]
    fn config_validation_and_sizes() {
        assert!(MemMapConfig::multi_domain(0x101, 0x200).is_err(), "unaligned bottom");
        assert!(MemMapConfig::multi_domain(0x200, 0x100).is_err(), "inverted");
        let c = cfg();
        assert_eq!(c.num_blocks(), 32);
        assert_eq!(c.map_size_bytes(), 16);
        // Paper numbers: 4 KiB space, 8-byte blocks, multi-domain = 256 B.
        let paper = MemMapConfig::multi_domain(0x0000, 0x1000).unwrap();
        assert_eq!(paper.map_size_bytes(), 256);
        // Heap + safe stack only (2240 B) = 140 B multi, 70 B two-domain.
        let heap = MemMapConfig::multi_domain(0x0100, 0x0100 + 2240).unwrap();
        assert_eq!(heap.map_size_bytes(), 140);
        let two = MemMapConfig::two_domain(0x0100, 0x0100 + 2240).unwrap();
        assert_eq!(two.map_size_bytes(), 70);
    }

    #[test]
    fn address_translation() {
        let c = cfg();
        let l = c.lookup(0x0100).unwrap();
        assert_eq!((l.block, l.byte_index, l.shift), (0, 0, 0));
        let l = c.lookup(0x0108).unwrap();
        assert_eq!((l.block, l.byte_index, l.shift), (1, 0, 4));
        let l = c.lookup(0x0117).unwrap();
        assert_eq!((l.block, l.byte_index, l.shift), (2, 1, 0));
        assert!(c.lookup(0x00ff).is_err());
        assert!(c.lookup(0x0200).is_err(), "top is exclusive");
        assert_eq!(c.block_addr(2), 0x0110);
    }

    #[test]
    fn two_domain_translation_packs_four_per_byte() {
        let c = MemMapConfig::two_domain(0x0100, 0x0200).unwrap();
        let l = c.lookup(0x0100 + 3 * 8).unwrap();
        assert_eq!((l.block, l.byte_index, l.shift), (3, 0, 6));
        let l = c.lookup(0x0100 + 4 * 8).unwrap();
        assert_eq!((l.block, l.byte_index, l.shift), (4, 1, 0));
    }

    #[test]
    fn fresh_map_is_all_free() {
        let m = MemoryMap::new(cfg());
        assert!(m.as_bytes().iter().all(|&b| b == 0xff));
        assert_eq!(m.owner_of(0x0100).unwrap(), DomainId::TRUSTED);
        assert!(m.is_segment_start(0x0100).unwrap());
    }

    #[test]
    fn set_segment_and_ownership() {
        let mut m = MemoryMap::new(cfg());
        let d2 = DomainId::num(2);
        m.set_segment(d2, 0x0110, 20).unwrap(); // 20 B -> 3 blocks
        assert_eq!(m.owner_of(0x0110).unwrap(), d2);
        assert_eq!(m.owner_of(0x0120).unwrap(), d2);
        assert_eq!(m.owner_of(0x0128).unwrap(), DomainId::TRUSTED, "past the segment");
        assert!(m.is_segment_start(0x0110).unwrap());
        assert!(!m.is_segment_start(0x0118).unwrap());
        assert_eq!(m.segment_blocks(0x0110).unwrap(), 3);
    }

    #[test]
    fn set_segment_validation() {
        let mut m = MemoryMap::new(cfg());
        let d = DomainId::num(0);
        assert!(m.set_segment(d, 0x0111, 8).is_err(), "unaligned");
        assert!(m.set_segment(d, 0x0110, 0).is_err(), "zero length");
        assert!(m.set_segment(d, 0x01f8, 16).is_err(), "runs past the top");
        assert!(m.set_segment(d, 0x01f8, 8).is_ok(), "last block exactly");
    }

    #[test]
    fn check_write_rules() {
        let mut m = MemoryMap::new(cfg());
        let d1 = DomainId::num(1);
        let d2 = DomainId::num(2);
        m.set_segment(d1, 0x0100, 8).unwrap();
        assert!(m.check_write(d1, 0x0107).is_ok());
        assert!(m.check_write(DomainId::TRUSTED, 0x0107).is_ok(), "trusted writes anywhere");
        let err = m.check_write(d2, 0x0107).unwrap_err();
        assert!(matches!(
            err,
            ProtectionFault::MemMapViolation { addr: 0x0107, domain: 2, owner: 1 }
        ));
        // Free blocks belong to trusted: user writes are violations.
        assert!(m.check_write(d2, 0x0180).is_err());
    }

    #[test]
    fn free_requires_ownership() {
        let mut m = MemoryMap::new(cfg());
        let d1 = DomainId::num(1);
        let d2 = DomainId::num(2);
        m.set_segment(d1, 0x0120, 24).unwrap();
        assert!(matches!(m.free_segment(d2, 0x0120), Err(ProtectionFault::NotOwner { .. })));
        assert!(m.free_segment(d1, 0x0128).is_err(), "not a segment start");
        assert_eq!(m.free_segment(d1, 0x0120).unwrap(), 3);
        assert_eq!(m.owner_of(0x0120).unwrap(), DomainId::TRUSTED);
        assert!(m.is_segment_start(0x0128).unwrap(), "freed blocks read as free");
    }

    #[test]
    fn trusted_can_free_anything() {
        let mut m = MemoryMap::new(cfg());
        m.set_segment(DomainId::num(4), 0x0130, 8).unwrap();
        assert_eq!(m.free_segment(DomainId::TRUSTED, 0x0130).unwrap(), 1);
    }

    #[test]
    fn change_own_transfers_segment() {
        let mut m = MemoryMap::new(cfg());
        let d1 = DomainId::num(1);
        let d5 = DomainId::num(5);
        m.set_segment(d1, 0x0140, 16).unwrap();
        assert!(matches!(m.change_own(d5, 0x0140, d5), Err(ProtectionFault::NotOwner { .. })));
        assert_eq!(m.change_own(d1, 0x0140, d5).unwrap(), 2);
        assert_eq!(m.owner_of(0x0140).unwrap(), d5);
        assert_eq!(m.owner_of(0x0148).unwrap(), d5);
        assert!(m.is_segment_start(0x0140).unwrap());
        assert!(!m.is_segment_start(0x0148).unwrap());
        assert!(m.check_write(d1, 0x0140).is_err(), "old owner lost access");
    }

    #[test]
    fn adjacent_segments_same_owner_stay_distinct() {
        let mut m = MemoryMap::new(cfg());
        let d = DomainId::num(3);
        m.set_segment(d, 0x0150, 8).unwrap();
        m.set_segment(d, 0x0158, 8).unwrap();
        assert_eq!(m.segment_blocks(0x0150).unwrap(), 1, "start flag delimits");
        assert_eq!(m.segment_blocks(0x0158).unwrap(), 1);
        assert_eq!(m.free_segment(d, 0x0150).unwrap(), 1);
        assert_eq!(m.owner_of(0x0158).unwrap(), d, "neighbour survives");
    }

    #[test]
    fn two_domain_mode_restricts_owners() {
        let mut m = MemoryMap::new(MemMapConfig::two_domain(0x0100, 0x0200).unwrap());
        let d0 = DomainId::num(0);
        assert!(m.set_segment(DomainId::num(1), 0x0100, 8).is_err());
        m.set_segment(d0, 0x0100, 8).unwrap();
        assert_eq!(m.owner_of(0x0100).unwrap(), d0);
        assert!(m.check_write(d0, 0x0100).is_ok());
        assert!(m.change_own(d0, 0x0100, DomainId::num(2)).is_err());
        assert_eq!(m.change_own(d0, 0x0100, DomainId::TRUSTED).unwrap(), 1);
    }

    #[test]
    fn from_raw_round_trips() {
        let mut m = MemoryMap::new(cfg());
        m.set_segment(DomainId::num(2), 0x0100, 32).unwrap();
        let clone = MemoryMap::from_raw(*m.config(), m.as_bytes().to_vec());
        assert_eq!(clone, m);
    }

    #[test]
    fn traced_check_matches_untraced_and_emits() {
        use harbor_scope::{Event, ScopeSink};
        let mut m = MemoryMap::new(cfg());
        let d2 = DomainId::num(2);
        m.set_segment(d2, 0x0110, 8).unwrap();
        let mut sink = ScopeSink::stream();
        let ok = m.check_write_traced(d2, 0x0112, 10, &mut sink);
        assert_eq!(ok, m.check_write(d2, 0x0112));
        let denied = m.check_write_traced(DomainId::num(3), 0x0112, 11, &mut sink);
        assert_eq!(denied, m.check_write(DomainId::num(3), 0x0112));
        assert_eq!(
            sink.events(),
            vec![
                Event::MemMapCheck { cycles: 10, domain: 2, addr: 0x0112, granted: true, stall: 1 },
                Event::MemMapCheck {
                    cycles: 11,
                    domain: 3,
                    addr: 0x0112,
                    granted: false,
                    stall: 1
                },
            ]
        );
    }
}
