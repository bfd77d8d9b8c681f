//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum that
//! seals the snapshot format.
//!
//! Self-contained table-driven implementation: the build container is
//! offline, so no external checksum crate. The golden test below pins the
//! standard check value (`crc32(b"123456789") == 0xCBF43926`), which also
//! pins the on-disk format across toolchain upgrades.

/// 256-entry lookup table, computed at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"abc\0"));
    }
}
