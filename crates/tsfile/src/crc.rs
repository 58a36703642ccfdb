//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! Chunk payloads and the footer are checksummed so a reader can detect
//! torn writes and bit rot — the same integrity role TsFile's chunk
//! checksums play. The store's manifest frames and recovery verify use
//! the same function.
//!
//! The classic table-driven loop folds one byte per step, so each step
//! waits on the previous one's table lookup. Slicing-by-8 folds eight
//! bytes per step through eight tables: `TABLES[k][b]` is the CRC
//! contribution of byte `b` followed by `k` zero bytes, so the eight
//! lookups of one step are independent and XOR together. The polynomial
//! and every checksum are unchanged; the tail (< 8 bytes) runs bytewise.

/// Reflected polynomial of CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables, computed at compile time. `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][i]` advances `TABLES[k - 1][i]` by one
/// zero byte.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// Folds one byte into a running (pre-inverted) CRC state.
#[inline]
fn fold_byte(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = u32::MAX;
    let (words, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(b4)]
            ^ t2[usize::from(b5)]
            ^ t1[usize::from(b6)]
            ^ t0[usize::from(b7)];
    }
    for &b in tail {
        crc = fold_byte(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(u32::MAX, |crc, &b| fold_byte(crc, b))
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_matches_bytewise_every_length_and_offset() {
        let data: Vec<u8> = (0..(257u32 + 8))
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_any_flip() {
        let data = vec![0xA5u8; 1000];
        let base = crc32(&data);
        for i in (0..data.len()).step_by(97) {
            let mut corrupted = data.clone();
            corrupted[i] ^= 1;
            assert_ne!(crc32(&corrupted), base, "flip at {i} undetected");
        }
    }
}
