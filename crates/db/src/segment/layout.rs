//! The on-disk layout of a snapshot segment.
//!
//! A segment is a single byte image laid out as:
//!
//! ```text
//! +--------------------+ 0
//! | header (32 bytes)  |   magic, format version, schema version,
//! |                    |   section count, record count, string count
//! +--------------------+ 32
//! | section table      |   `section_count` entries x 24 bytes:
//! |                    |   { id: u32, reserved: u32, offset: u64, len: u64 }
//! +--------------------+ first 8-aligned offset after the table
//! | sections ...       |   each section starts 8-aligned; `len` is the
//! |                    |   exact payload size (padding bytes between
//! +--------------------+   sections are zero and belong to no section)
//! ```
//!
//! All integers are little-endian. Readers never cast byte ranges to
//! structs — every access goes through the checked `*_at` helpers below, so
//! the format needs no `#[repr(C)]`, no `unsafe`, and no host-alignment
//! assumptions (sections are nevertheless 8-aligned so an `mmap(2)`
//! backing could hand out typed slices). `lib.rs` forbids `unsafe_code`,
//! so the compiler holds the crate to this.
//!
//! Unknown section ids are skipped by readers, mirroring the TLV codec's
//! unknown-field rule: additive sections never break old readers.

/// Magic bytes identifying a segment image.
pub const MAGIC: [u8; 8] = *b"UOPSSEG\x01";

/// Layout version of this module. Bumped only on breaking layout changes.
pub const FORMAT_VERSION: u32 = 1;

/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 32;

/// Size of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Section ids. Every id is written by the current writer; readers require
/// all of them (a segment is self-contained) and skip ids they do not know.
pub mod section {
    /// `(string_count + 1)` little-endian `u32` offsets into
    /// [`STR_BYTES`], ascending; string `i` is the byte range
    /// `offsets[i]..offsets[i + 1]`. Strings are unique and sorted
    /// lexicographically, so symbol order equals string order.
    pub const STR_OFFSETS: u32 = 1;
    /// Concatenated UTF-8 bytes of all interned strings.
    pub const STR_BYTES: u32 = 2;
    /// The producer string, raw UTF-8 (not interned).
    pub const GENERATOR: u32 = 3;
    /// Microarchitecture metadata: entries of 6 `u32`s — name symbol,
    /// processor symbol, year, ports, characterized, skipped — sorted by
    /// (year, name).
    pub const UARCH_META: u32 = 4;
    /// Per-record mnemonic symbols (`record_count` x `u32`).
    pub const COL_MNEMONIC: u32 = 5;
    /// Per-record variant symbols (`record_count` x `u32`).
    pub const COL_VARIANT: u32 = 6;
    /// Per-record extension symbols (`record_count` x `u32`).
    pub const COL_EXTENSION: u32 = 7;
    /// Per-record microarchitecture symbols (`record_count` x `u32`).
    pub const COL_UARCH: u32 = 8;
    /// Per-record µop counts (`record_count` x `u32`).
    pub const COL_UOPS: u32 = 9;
    /// Per-record unattributed-µop counts (`record_count` x `u32`).
    pub const COL_UNATTRIBUTED: u32 = 10;
    /// Per-record port-mask unions (`record_count` x `u16`).
    pub const COL_PORT_UNION: u32 = 11;
    /// Per-record measured throughput (`record_count` x `f64`).
    pub const COL_TP_MEASURED: u32 = 12;
    /// Per-record port-model throughput values (`record_count` x `f64`;
    /// 0.0 where absent — see the presence bitmap).
    pub const COL_TP_PORTS: u32 = 13;
    /// Presence bitmap for [`COL_TP_PORTS`] (bit `i` = record `i`).
    pub const BITS_TP_PORTS: u32 = 14;
    /// Per-record low-value throughput values (`record_count` x `f64`).
    pub const COL_TP_LOW: u32 = 15;
    /// Presence bitmap for [`COL_TP_LOW`].
    pub const BITS_TP_LOW: u32 = 16;
    /// Per-record dependency-breaking throughput values
    /// (`record_count` x `f64`).
    pub const COL_TP_BREAKING: u32 = 17;
    /// Presence bitmap for [`COL_TP_BREAKING`].
    pub const BITS_TP_BREAKING: u32 = 18;
    /// Per-record precomputed maximum latency (`record_count` x `f64`).
    pub const COL_MAX_LATENCY: u32 = 19;
    /// Presence bitmap for [`COL_MAX_LATENCY`] (clear = no latency data).
    pub const BITS_MAX_LATENCY: u32 = 20;
    /// Prefix sums into the port-entry arrays
    /// (`(record_count + 1)` x `u32`): record `i` owns entries
    /// `range[i]..range[i + 1]`.
    pub const PORTS_RANGE: u32 = 21;
    /// Port masks of all port entries (`u16` each).
    pub const PORTS_MASK: u32 = 22;
    /// µop counts of all port entries (`u32` each).
    pub const PORTS_UOPS: u32 = 23;
    /// Prefix sums into the latency-edge arrays (`(record_count + 1)` x
    /// `u32`).
    pub const LAT_RANGE: u32 = 24;
    /// Latency-edge source operand indexes (`u32` each).
    pub const LAT_SOURCE: u32 = 25;
    /// Latency-edge target operand indexes (`u32` each).
    pub const LAT_TARGET: u32 = 26;
    /// Latency-edge cycle counts (`f64` each).
    pub const LAT_CYCLES: u32 = 27;
    /// Latency-edge flag bytes (`u8` each): bit 0 = upper bound, bit 1 =
    /// same-register latency present, bit 2 = low-value latency present.
    pub const LAT_FLAGS: u32 = 28;
    /// Latency-edge same-register cycles (`f64` each; 0.0 where absent).
    pub const LAT_SAME_REG: u32 = 29;
    /// Latency-edge low-value cycles (`f64` each; 0.0 where absent).
    pub const LAT_LOW_VALUE: u32 = 30;
    /// Mnemonic posting-list keys: entries of `{ sym: u32, start: u32,
    /// len: u32 }` sorted by symbol; `start`/`len` index into
    /// [`POSTINGS`].
    pub const IDX_MNEMONIC: u32 = 31;
    /// Extension posting-list keys (same entry layout).
    pub const IDX_EXTENSION: u32 = 32;
    /// Microarchitecture posting-list keys (same entry layout).
    pub const IDX_UARCH: u32 = 33;
    /// (µarch, port) posting-list keys: entries of `{ key: u64, start:
    /// u32, len: u32 }` sorted by key, where `key = (sym << 8) | port`.
    pub const IDX_UARCH_PORT: u32 = 34;
    /// The shared flat array of posting-list record ids (`u32` each), each
    /// list sorted ascending.
    pub const POSTINGS: u32 = 35;
}

/// Highest known section id; the reader keeps a slot per id.
pub const MAX_SECTION_ID: u32 = section::POSTINGS;

/// Bit 0 of a latency-edge flag byte: the value is only an upper bound.
pub const LAT_FLAG_UPPER_BOUND: u8 = 1 << 0;
/// Bit 1: a same-register latency is present.
pub const LAT_FLAG_SAME_REG: u8 = 1 << 1;
/// Bit 2: a low-value latency is present.
pub const LAT_FLAG_LOW_VALUE: u8 = 1 << 2;

/// Size of one `{ sym, start, len }` posting-key entry.
pub const IDX_ENTRY_LEN: usize = 12;
/// Size of one `{ key: u64, start, len }` (µarch, port) posting-key entry.
pub const IDX_PORT_ENTRY_LEN: usize = 16;
/// Size of one microarchitecture-metadata entry.
pub const UARCH_META_LEN: usize = 24;

/// Rounds `n` up to the next multiple of 8.
#[must_use]
pub fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Checked little-endian `u16` read at byte offset `off` (0 on
/// out-of-range — segments are size-validated at open, so in-bounds
/// accessors never observe the fallback).
#[must_use]
pub fn u16_at(bytes: &[u8], off: usize) -> u16 {
    bytes.get(off..off + 2).map_or(0, |b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
}

/// Checked little-endian `u32` read at byte offset `off`.
#[must_use]
pub fn u32_at(bytes: &[u8], off: usize) -> u32 {
    bytes.get(off..off + 4).map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Checked little-endian `u64` read at byte offset `off`.
#[must_use]
pub fn u64_at(bytes: &[u8], off: usize) -> u64 {
    bytes.get(off..off + 8).map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Checked little-endian `f64` read at byte offset `off`.
#[must_use]
pub fn f64_at(bytes: &[u8], off: usize) -> f64 {
    f64::from_bits(u64_at(bytes, off))
}

/// Checked bitmap probe: bit `i` of a little-endian bitmap.
#[must_use]
pub fn bit_at(bytes: &[u8], i: usize) -> bool {
    bytes.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_reads_are_defensive() {
        let bytes = 0x1122_3344_5566_7788u64.to_le_bytes();
        assert_eq!(u16_at(&bytes, 0), 0x7788);
        assert_eq!(u32_at(&bytes, 0), 0x5566_7788);
        assert_eq!(u64_at(&bytes, 0), 0x1122_3344_5566_7788);
        assert_eq!(u32_at(&bytes, 6), 0, "partial tail reads fall back to 0");
        assert_eq!(u64_at(&bytes, 1), 0);
        assert_eq!(f64_at(&1.5f64.to_le_bytes(), 0), 1.5);
    }

    #[test]
    fn bitmap_probe() {
        let bits = [0b0000_0101u8, 0b1000_0000];
        assert!(bit_at(&bits, 0));
        assert!(!bit_at(&bits, 1));
        assert!(bit_at(&bits, 2));
        assert!(bit_at(&bits, 15));
        assert!(!bit_at(&bits, 16), "out-of-range bits read as clear");
    }

    #[test]
    fn alignment() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(13), 16);
    }
}
