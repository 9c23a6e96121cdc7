//! CRC-32 (IEEE), the checksum of every record and block kvstore writes.

use std::sync::OnceLock;

/// Slicing-by-8 tables for CRC-32 (IEEE, reflected polynomial
/// `0xEDB88320`): `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// CRC-32 (IEEE) of a byte slice, eight bytes per step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference the sliced CRC-32 must reproduce: byte by byte, each
    /// byte one bit at a time, no tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            skip in 0usize..8,
        ) {
            // Random lengths at start offsets 0..8: the sliced loop sees
            // every alignment and every remainder.
            let data = &bytes[skip.min(bytes.len())..];
            assert_eq!(crc32(data), crc32_bitwise(data), "len {}", data.len());
        }
    }
}
