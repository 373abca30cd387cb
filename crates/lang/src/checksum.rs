//! Checksum functions giving the `crc32_ok` intrinsic its semantics.
//!
//! The same functions are used by `diode-format`'s Peach-style input
//! reconstructor to *repair* checksums in generated inputs, which is why
//! the intrinsic never flips between seed and candidate runs (see
//! `docs/ARCHITECTURE.md`, "Substitutions").

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the PNG chunk
/// checksum.
///
/// # Examples
///
/// ```
/// assert_eq!(diode_lang::checksum::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32 (RFC 1950), provided for zlib-style containers.
///
/// # Examples
///
/// ```
/// assert_eq!(diode_lang::checksum::adler32(b"Wikipedia"), 0x11E6_0398);
/// ```
#[must_use]
pub fn adler32(bytes: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let (mut a, mut b) = (1u32, 0u32);
    for &byte in bytes {
        a = (a + u32::from(byte)) % MOD;
        b = (b + a) % MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_any_single_byte_change() {
        let base = b"IHDR\x00\x00\x01\x18\x00\x00\x00\xb4\x08\x02\x00\x00\x00".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 0x40;
            assert_ne!(crc32(&changed), reference, "byte {i}");
        }
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }
}
