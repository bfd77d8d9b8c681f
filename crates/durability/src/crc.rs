//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum that
//! seals the snapshot format.
//!
//! Self-contained table-driven implementation: the build container is
//! offline, so no external checksum crate. [`crc32`] runs slice-by-16:
//! sixteen 256-entry tables fold sixteen input bytes per step with
//! independent lookups, so a snapshot body is checked at memory speed
//! rather than one dependent table lookup per byte. It computes the same
//! function as the byte-at-a-time loop (which still finishes the last
//! `len % 16` bytes, and is the reference the tests compare with), so the
//! format is unchanged and files sealed byte-wise still validate. (A no-op
//! flush, one that finds the cache as the last successful flush left it,
//! writes no file and computes no CRC.) The golden test below pins the
//! standard check value (`crc32(b"123456789") == 0xCBF43926`), which also
//! pins the on-disk format across toolchain upgrades.

/// Bytes folded per slice-by-16 step.
const STRIDE: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes. Computed at
/// compile time.
const TABLES: [[u32; 256]; STRIDE] = {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Fold `bytes` into a running (pre-inverted) CRC one byte at a time.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut blocks = bytes.chunks_exact(STRIDE);
    for b in &mut blocks {
        // The running CRC is XORed into the block's first four bytes; each
        // byte then contributes through the table for its distance from
        // the block's end.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    !update_bytewise(crc, blocks.remainder())
}

/// CRC-32 of a byte slice, one table lookup per byte: the reference
/// [`crc32`] must agree with.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    !update_bytewise(u32::MAX, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abc\0"));
    }

    /// Slice-by-16 equals the byte-wise loop for every length up to 4096
    /// and every start offset modulo the stride, so the block loop, its
    /// remainder and unaligned slices are all covered.
    #[test]
    fn slice_by_16_matches_bytewise_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + STRIDE)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for offset in 0..STRIDE {
            for len in 0..=4096 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }
}
