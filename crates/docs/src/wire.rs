//! Length-prefixed binary encoding helpers: the one byte-codec layer
//! every wire format in the workspace reads and writes through.
//!
//! All multi-byte integers are big-endian; variable-length fields carry a
//! `u32` length prefix. Readers take a `&mut &[u8]` cursor and advance it
//! past what they consume; writers append to a `Vec<u8>`. Both directions
//! are strict: truncated or oversized inputs yield [`WireError`] instead
//! of panicking, and *encoding* an oversized field fails the same way — a
//! hostile field can never abort a thread that is framing it (e.g. a
//! broker relaying untrusted containers). Fixed-width integers are
//! written with `extend_from_slice(&v.to_be_bytes())` and read only
//! through the checked getters here.

/// Maximum length accepted for a single variable-length field (16 MiB) —
/// a sanity bound against corrupt length prefixes.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Encoding/decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the announced field length.
    Truncated,
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    FieldTooLong(usize),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// Unexpected magic bytes or version.
    BadHeader,
    /// A field decoded structurally but carried an invalid value (e.g. a
    /// byte string that is not a group element, or a non-canonical scalar).
    InvalidValue,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => write!(f, "input truncated"),
            Self::FieldTooLong(n) => write!(f, "field length {n} exceeds limit"),
            Self::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            Self::BadHeader => write!(f, "bad magic or version"),
            Self::InvalidValue => write!(f, "structurally valid but semantically invalid field"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends a length-prefixed byte field; rejects oversized fields instead
/// of panicking.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) -> Result<(), WireError> {
    if data.len() > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLong(data.len()));
    }
    buf.extend_from_slice(&(data.len() as u32).to_be_bytes());
    buf.extend_from_slice(data);
    Ok(())
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    put_bytes(buf, s.as_bytes())
}

/// Reads `n` bytes (no length prefix) as a borrowed slice — the one
/// bounds check every other getter goes through.
pub fn get_slice<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads a length-prefixed byte field.
pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    let len = get_u32(buf)? as usize;
    if len > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLong(len));
    }
    Ok(get_slice(buf, len)?.to_vec())
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| WireError::InvalidUtf8)
}

/// Reads a fixed-width byte array (no length prefix) — for fields whose
/// width is part of the format, e.g. nonces and hash-sized words.
pub fn get_fixed<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let mut out = [0u8; N];
    out.copy_from_slice(get_slice(buf, N)?);
    Ok(out)
}

/// Reads a `u8`, checking availability.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    get_fixed(buf).map(u8::from_be_bytes)
}

/// Reads a big-endian `u16`, checking availability.
pub fn get_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    get_fixed(buf).map(u16::from_be_bytes)
}

/// Reads a big-endian `u32`, checking availability.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    get_fixed(buf).map(u32::from_be_bytes)
}

/// Reads a big-endian `u64`, checking availability.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    get_fixed(buf).map(u64::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fields() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello").unwrap();
        put_str(&mut buf, "world").unwrap();
        buf.extend_from_slice(&42u32.to_be_bytes());
        buf.extend_from_slice(&7u64.to_be_bytes());
        buf.extend_from_slice(&0xBEEFu16.to_be_bytes());
        let mut r = buf.as_slice();
        assert_eq!(get_bytes(&mut r).unwrap(), b"hello");
        assert_eq!(get_str(&mut r).unwrap(), "world");
        assert_eq!(get_u32(&mut r).unwrap(), 42);
        assert_eq!(get_u64(&mut r).unwrap(), 7);
        assert_eq!(get_u16(&mut r).unwrap(), 0xBEEF);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut full = Vec::new();
        put_bytes(&mut full, b"hello").unwrap();
        for cut in 0..full.len() {
            let mut partial = &full[..cut];
            assert_eq!(
                get_bytes(&mut partial),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn oversized_length_rejected() {
        let mut r = &u32::MAX.to_be_bytes()[..];
        assert!(matches!(get_bytes(&mut r), Err(WireError::FieldTooLong(_))));
    }

    #[test]
    fn oversized_field_fails_encode_without_panicking() {
        let huge = vec![0u8; MAX_FIELD_LEN + 1];
        let mut buf = Vec::new();
        assert_eq!(
            put_bytes(&mut buf, &huge),
            Err(WireError::FieldTooLong(MAX_FIELD_LEN + 1))
        );
        // Nothing was written: a failed field leaves the buffer untouched.
        assert!(buf.is_empty());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]).unwrap();
        assert_eq!(get_str(&mut buf.as_slice()), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn fixed_and_u8_fields() {
        let buf = [1, 2, 3, 4, 9];
        let mut r = &buf[..];
        assert_eq!(get_fixed::<4>(&mut r).unwrap(), [1, 2, 3, 4]);
        assert_eq!(get_u8(&mut r).unwrap(), 9);
        assert_eq!(get_u8(&mut r), Err(WireError::Truncated));
        let mut short: &[u8] = &[1, 2];
        assert_eq!(get_fixed::<3>(&mut short), Err(WireError::Truncated));
        assert_eq!(get_u16(&mut &[1][..]), Err(WireError::Truncated));
        assert_eq!(get_u32(&mut &[1, 2, 3][..]), Err(WireError::Truncated));
        assert_eq!(get_u64(&mut &[0; 7][..]), Err(WireError::Truncated));
        assert_eq!(get_slice(&mut &[0; 7][..], 8), Err(WireError::Truncated));
    }

    #[test]
    fn empty_fields() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"").unwrap();
        put_str(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(get_bytes(&mut r).unwrap(), Vec::<u8>::new());
        assert_eq!(get_str(&mut r).unwrap(), "");
    }
}
