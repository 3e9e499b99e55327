//! Minimal hex encoding (no external dependency).

/// Encodes bytes as lowercase hex.
pub fn encode(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0x0F) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known_vectors() {
        assert_eq!(encode(&[]), "");
        assert_eq!(encode(&[0x00, 0xFF, 0x10]), "00ff10");
    }

    #[test]
    fn every_byte_is_two_lowercase_digits() {
        let all: Vec<u8> = (0..=255).collect();
        let hex = encode(&all);
        assert_eq!(hex.len(), 512);
        assert!(hex.starts_with("000102") && hex.ends_with("fdfeff"));
    }
}
