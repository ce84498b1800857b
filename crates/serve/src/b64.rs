//! Standard base64 (RFC 4648, with padding) — the transport encoding of
//! binary `.mochy` snapshots inside the JSON `POST /v1/datasets` body.
//!
//! The workspace vendors no encoding crate and the HTTP layer is
//! deliberately JSON-only on the wire (every body, every error), so binary
//! uploads ride inside a JSON string. Decoding is strict: non-alphabet
//! bytes, bad padding, and non-canonical trailing bits are all errors —
//! an upload that decodes at all decodes to exactly one byte string.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marker in [`REVERSE`] for bytes outside the alphabet.
const INVALID: u8 = 0xff;

/// 256-entry reverse lookup: one indexed load per input symbol (a linear
/// alphabet scan per symbol would cost ~64x more comparisons on a
/// megabyte-sized snapshot upload, on a resident worker thread).
const REVERSE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut index = 0;
    while index < ALPHABET.len() {
        // mochy-lint: allow(panic-free-serve) reason="const-evaluated table build; an out-of-range index here is a compile error, not a runtime panic"
        table[ALPHABET[index] as usize] = index as u8;
        index += 1;
    }
    table
};

/// The alphabet symbol encoding the low six bits of `bits`.
fn symbol(bits: u32) -> char {
    // mochy-lint: allow(panic-free-serve) reason="index is masked to 0x3f and ALPHABET has exactly 64 entries"
    ALPHABET[(bits & 0x3f) as usize] as char
}

/// Encodes `bytes` as standard padded base64.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = u32::from(chunk.first().copied().unwrap_or(0));
        let b1 = u32::from(chunk.get(1).copied().unwrap_or(0));
        let b2 = u32::from(chunk.get(2).copied().unwrap_or(0));
        let word = (b0 << 16) | (b1 << 8) | b2;
        out.push(symbol(word >> 18));
        out.push(symbol(word >> 12));
        out.push(if chunk.len() > 1 {
            symbol(word >> 6)
        } else {
            '='
        });
        out.push(if chunk.len() > 2 { symbol(word) } else { '=' });
    }
    out
}

/// Decodes standard padded base64. Strict: rejects non-alphabet bytes,
/// lengths that are not a multiple of four, interior padding, and
/// non-canonical encodings (set bits beyond the payload).
pub fn decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (index, chunk) in bytes.chunks(4).enumerate() {
        let last = index + 1 == bytes.len() / 4;
        let padding = chunk.iter().filter(|&&b| b == b'=').count();
        if padding > 2 || (padding > 0 && !last) {
            return Err("padding may only end the input".to_string());
        }
        // The `padding` trailing bytes are '='; no '=' may appear earlier.
        // (`padding <= 2` was checked above, so the range is in bounds; the
        // full-chunk fallback keeps this panic-free regardless.)
        let payload = chunk.get(..4 - padding).unwrap_or(chunk);
        if payload.contains(&b'=') {
            return Err("malformed padding".to_string());
        }
        let mut word = 0u32;
        for &byte in payload {
            let value = REVERSE.get(usize::from(byte)).copied().unwrap_or(INVALID);
            if value == INVALID {
                return Err(format!("byte {byte:#04x} is not base64"));
            }
            word = (word << 6) | u32::from(value);
        }
        match padding {
            0 => {
                out.push((word >> 16) as u8);
                out.push((word >> 8) as u8);
                out.push(word as u8);
            }
            1 => {
                // 18 bits of payload in 3 symbols; the low 2 bits must be 0.
                if word & 0x3 != 0 {
                    return Err("non-canonical base64 (trailing bits set)".to_string());
                }
                out.push((word >> 10) as u8);
                out.push((word >> 2) as u8);
            }
            _ => {
                // 12 bits of payload in 2 symbols; the low 4 bits must be 0.
                if word & 0xf != 0 {
                    return Err("non-canonical base64 (trailing bits set)".to_string());
                }
                out.push((word >> 4) as u8);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_test_vectors() {
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), encoded);
            assert_eq!(decode(encoded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn binary_round_trip() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).cycle().take(1000).collect();
        assert_eq!(decode(&encode(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn strict_decoding_rejects_malformed_input() {
        for bad in [
            "Zg=",      // bad length
            "Zg===a",   // bad length
            "Z!==",     // non-alphabet
            "Zg==Zm8=", // interior padding
            "====",     // all padding
            "Zh==",     // trailing bits set (h = 0b100001)
            "=A==",     // padding before payload symbols
            "Zm9=Zm9v", // padded quartet that is not the last
        ] {
            assert!(decode(bad).is_err(), "`{bad}` decoded");
        }
    }
}
