//! The image hash: what the generation store records for each published
//! segment image, what recovery checks an image against, and what the
//! server folds into every ETag.
//!
//! [`image_hash`] reads the image as little-endian `u64` words and runs
//! four interleaved FNV-style lanes over them: word `i` goes to lane
//! `i % 4`, and each lane step is
//! `lane = ((lane ^ word) * FNV_PRIME).rotate_left(LANE_ROTATE)`. The four
//! multiply chains are independent, so they overlap in the CPU and the
//! pass runs at close to memory speed, where byte-wise FNV-1a
//! ([`crate::fnv1a_64`]) waits on one dependent multiply per byte. The
//! lanes, then the tail bytes past the last whole 32-byte block
//! (byte-wise FNV-1a), then the length are folded into one value, and a
//! final xor-shift-multiply mix spreads every bit over the result.
//!
//! Every step is a bijection of the state and of the word it takes in
//! (xor, a multiply by an odd constant, a rotate), so two inputs of the
//! same length that differ in one word, or in one tail byte, always hash
//! apart. The rotate carries a difference in a lane's high bits back to
//! its low bits, where the next multiply spreads it: without it, flipping
//! bit 63 of two words of one lane would cancel and collide.
//!
//! The tests below pin the definition with known-answer vectors: the
//! manifest stores these values, so a change to the hash needs a new
//! manifest version.

use crate::plan::{fnv1a_extend, FNV_OFFSET, FNV_PRIME};

/// Independent lanes; a block is one `u64` word for each.
const LANES: usize = 4;

/// Bytes consumed by one step of all lanes.
const BLOCK: usize = LANES * 8;

/// Lane seeds: the FNV offset basis plus 0, 1, 2 and 3 times the 64-bit
/// golden ratio, so no two lanes start alike.
const LANE_SEEDS: [u64; LANES] =
    [0xcbf2_9ce4_8422_2325, 0x6a2a_169e_036c_9f3a, 0x0861_9057_82b7_1b4f, 0xa699_0a11_0201_9764];

/// Bits each lane rotates left after its multiply.
const LANE_ROTATE: u32 = 23;

/// One lane or fold step: xor in `word`, multiply by the FNV prime, rotate.
#[inline(always)]
fn step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME).rotate_left(LANE_ROTATE)
}

/// The hash of a segment image (see the module docs for the definition):
/// four interleaved FNV-style lanes over little-endian `u64` words, then
/// the lanes, the tail bytes and the length folded together and mixed.
#[must_use]
pub fn image_hash(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    }
    let folded = lanes.iter().fold(FNV_OFFSET, |hash, &lane| step(hash, lane));
    let hash = fnv1a_extend(folded, blocks.remainder()) ^ bytes.len() as u64;
    mix(hash)
}

/// The final mix (MurmurHash3's `fmix64`): xor-shifts and odd multiplies,
/// each a bijection, so every input bit reaches every output bit.
fn mix(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded xorshift64* byte stream.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            out.extend_from_slice(&state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The definition written out word by word, with no block loop: word
    /// `i` steps lane `i % 4`.
    fn reference(bytes: &[u8]) -> u64 {
        let whole = bytes.len() / BLOCK * BLOCK;
        let mut lanes = LANE_SEEDS;
        for (i, word) in bytes[..whole].chunks(8).enumerate() {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            lanes[i % LANES] = step(lanes[i % LANES], word);
        }
        let mut hash = FNV_OFFSET;
        for lane in lanes {
            hash = step(hash, lane);
        }
        for &byte in &bytes[whole..] {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        mix(hash ^ bytes.len() as u64)
    }

    /// `0, 1, 2, …` truncated to `len` bytes.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn known_answers_pin_the_definition() {
        assert_eq!(image_hash(b""), EMPTY);
        for (len, want) in (1..=31).zip(TAIL_ONLY) {
            assert_eq!(image_hash(&counting(len)), want, "{len} bytes");
        }
        assert_eq!(image_hash(&counting(32)), ONE_BLOCK);
        assert_eq!(image_hash(&counting(33)), ONE_BLOCK_AND_A_BYTE);
        let image = seeded(3_188_376, 27);
        assert_eq!(image_hash(&image), SEEDED_IMAGE);
        assert_eq!(image_hash(&image), reference(&image));
    }

    #[test]
    fn block_loop_matches_the_word_by_word_definition() {
        let bytes = seeded(1024, 5);
        for len in 0..=bytes.len() {
            assert_eq!(image_hash(&bytes[..len]), reference(&bytes[..len]), "{len} bytes");
        }
    }

    #[test]
    fn flipping_any_byte_changes_the_hash() {
        let bytes = seeded(97, 11);
        let base = image_hash(&bytes);
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut changed = bytes.clone();
                changed[at] ^= flip;
                assert_ne!(image_hash(&changed), base, "offset {at}, flip {flip:#04x}");
            }
        }

        // 1 MB plus a 3-byte tail: every lane and block boundary near the
        // start and the end, the tail, and seeded offsets in between.
        let bytes = seeded((1 << 20) + 3, 13);
        let base = image_hash(&bytes);
        let len = bytes.len();
        let tail = len / BLOCK * BLOCK;
        let mut offsets = vec![0, 7, 8, 15, 16, 23, 24, 31, 32, 33, tail - 1, tail, len - 1];
        offsets.extend(
            seeded(64 * 8, 17)
                .chunks(8)
                .map(|w| (u64::from_le_bytes(w.try_into().unwrap()) % len as u64) as usize),
        );
        for at in offsets {
            let mut changed = bytes.clone();
            changed[at] ^= 0x40;
            assert_ne!(image_hash(&changed), base, "offset {at}");
        }
    }

    #[test]
    fn high_bit_differences_in_one_lane_do_not_cancel() {
        // Words 0 and 4 both feed lane 0; flip bit 63 of each.
        let bytes = seeded(64, 19);
        let mut changed = bytes.clone();
        changed[7] ^= 0x80;
        changed[39] ^= 0x80;
        assert_ne!(image_hash(&changed), image_hash(&bytes));
    }

    #[test]
    fn the_length_is_part_of_the_hash() {
        let mut bytes = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..=96 {
            assert!(seen.insert(image_hash(&bytes)), "{} zero bytes collide", bytes.len());
            bytes.push(0);
        }
    }

    /// `image_hash(b"")`.
    const EMPTY: u64 = 0xf120_5445_baa0_41ef;

    /// `image_hash(&counting(len))` for `len` in 1..=31: the tail alone.
    const TAIL_ONLY: [u64; 31] = [
        0x968c_a1ef_71c7_fd94,
        0x53e9_36e0_a5ef_bc94,
        0x7410_bbe0_b2f3_1d29,
        0xc508_f63c_8e80_a123,
        0xc3d3_0d38_1fae_b63a,
        0x9bdf_efb9_65fd_25ac,
        0x5c40_e8ad_cde3_a207,
        0x030f_214e_b7b3_010b,
        0xa8c6_59ea_9dc8_1d9d,
        0xf732_e574_6054_e4f5,
        0x3948_65e4_8606_ef9a,
        0x9e3d_2386_ab8b_3a36,
        0x3faf_e42a_a103_6875,
        0x0e1f_f8ed_44fb_307d,
        0xaf4f_4241_c156_c38c,
        0xfa35_1f5b_aefb_9227,
        0x61a9_eb2c_11c3_b415,
        0x46a2_82f2_7425_95e8,
        0x0646_5a6e_4dc9_1f89,
        0x88b6_82ec_5d61_4fb0,
        0xb04d_22f5_f948_51c5,
        0x8b19_2ef5_8dfa_54a7,
        0xe63d_1c58_1d39_d179,
        0xbfbc_f048_db56_2bee,
        0x52a7_0a34_ec3e_25c3,
        0x995f_7040_e7ac_ffc6,
        0x060a_3fd6_f048_8b79,
        0xbea2_ab96_1250_4dc5,
        0xcfbf_87c9_564b_e0a9,
        0x7ca8_332b_a498_42b6,
        0x5f07_d84d_04b9_fbcc,
    ];

    /// `image_hash(&counting(32))`: one whole block, no tail.
    const ONE_BLOCK: u64 = 0x97a3_9a36_c720_70dd;

    /// `image_hash(&counting(33))`: one block and a one-byte tail.
    const ONE_BLOCK_AND_A_BYTE: u64 = 0x2e5a_c024_30a6_cd31;

    /// `image_hash(&seeded(3_188_376, 27))`: an image-sized buffer with a
    /// 24-byte tail.
    const SEEDED_IMAGE: u64 = 0xc0a9_79c0_ff7a_dd24;
}
