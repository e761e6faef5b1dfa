//! Flat-JSON record framing shared by every sealed file ([`seallog`]
//! (crate::seallog): the result store's files) and by the `serve`
//! daemon's request parser.
//!
//! The on-disk files are append-only JSONL files of *flat* objects —
//! string and `u64` values only, no nesting, no escapes, no floats
//! (`f64`s travel as IEEE-754 bit patterns under `.bits` keys) — so one
//! hand-rolled parser covers every consumer and the workspace stays
//! serde-free. Records are sealed with a trailing FNV-1a-32 checksum
//! ([`seal`]/[`check_seal`]) so in-place corruption is *detected* and the
//! record skipped, never silently decoded into wrong numbers.

/// The two value shapes the framing emits.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A string value (no escapes supported by design).
    Str(String),
    /// An unsigned integer value.
    Num(u64),
}

impl JsonVal {
    /// The string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            JsonVal::Num(_) => None,
        }
    }

    /// The numeric payload, if this is a number value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(n) => Some(*n),
            JsonVal::Str(_) => None,
        }
    }
}

/// FNV-1a (32-bit) over a record's byte prefix — the per-record checksum.
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Closes an open record body (`{"k":v,...` — no trailing brace) with
/// its checksum field: the crc covers every byte before the `,"crc"`.
pub fn seal(mut body: String) -> String {
    let crc = fnv32(body.as_bytes());
    body.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
    body
}

/// Verifies and strips a record's trailing checksum, returning the body.
///
/// # Errors
///
/// Returns a description (missing/malformed crc field, or the recorded
/// vs. computed values on a mismatch).
pub fn check_seal(line: &str) -> Result<&str, String> {
    let pos = line
        .rfind(",\"crc\":\"")
        .ok_or_else(|| "missing crc field".to_string())?;
    let tail = &line[pos + 8..];
    let hex = tail.strip_suffix("\"}").ok_or_else(|| "malformed crc field".to_string())?;
    let recorded =
        u32::from_str_radix(hex, 16).map_err(|_| "malformed crc field".to_string())?;
    let actual = fnv32(line[..pos].as_bytes());
    if actual != recorded {
        return Err(format!("crc mismatch (recorded {recorded:08x}, computed {actual:08x})"));
    }
    Ok(&line[..pos])
}

/// Parses one flat JSON object of string/u64 values (the only shape the
/// framing produces: no nesting, no escapes, no floats). Returns `None`
/// on anything else. Whitespace is tolerated only around the whole
/// object, not between tokens — the encoders never emit any.
pub fn parse_flat(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let mut out = Vec::new();
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let eat = |i: &mut usize, b: u8| -> Option<()> {
        if bytes.get(*i) == Some(&b) {
            *i += 1;
            Some(())
        } else {
            None
        }
    };
    let string = |i: &mut usize| -> Option<String> {
        eat(i, b'"')?;
        let start = *i;
        while *i < bytes.len() && bytes[*i] != b'"' {
            if bytes[*i] == b'\\' {
                return None; // the encoders never escape
            }
            *i += 1;
        }
        let s = std::str::from_utf8(&bytes[start..*i]).ok()?.to_string();
        eat(i, b'"')?;
        Some(s)
    };
    let number = |i: &mut usize| -> Option<u64> {
        let start = *i;
        while *i < bytes.len() && bytes[*i].is_ascii_digit() {
            *i += 1;
        }
        std::str::from_utf8(&bytes[start..*i]).ok()?.parse().ok()
    };

    eat(&mut i, b'{')?;
    if bytes.get(i) == Some(&b'}') {
        return (i + 1 == bytes.len()).then_some(out);
    }
    loop {
        let key = string(&mut i)?;
        eat(&mut i, b':')?;
        let val = if bytes.get(i) == Some(&b'"') {
            JsonVal::Str(string(&mut i)?)
        } else {
            JsonVal::Num(number(&mut i)?)
        };
        out.push((key, val));
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => break,
            _ => return None,
        }
    }
    (i + 1 == bytes.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let kvs = parse_flat("{\"a\":\"x\",\"n\":42}").unwrap();
        assert_eq!(kvs.len(), 2);
        assert_eq!(kvs[0].1.as_str(), Some("x"));
        assert_eq!(kvs[1].1.as_u64(), Some(42));
        assert_eq!(parse_flat("{}"), Some(vec![]));
        assert!(parse_flat("{\"a\":").is_none());
        assert!(parse_flat("{\"a\":1} trailing").is_none());
        assert!(parse_flat("{\"a\":\"esc\\\"aped\"}").is_none(), "escapes rejected");
    }

    #[test]
    fn seal_roundtrips_and_detects_corruption() {
        let line = seal("{\"k\":1".to_string());
        assert_eq!(check_seal(&line).unwrap(), "{\"k\":1");
        let mangled = line.replacen(":1", ":2", 1);
        assert!(check_seal(&mangled).unwrap_err().contains("crc mismatch"));
        assert!(check_seal("{\"k\":1}").unwrap_err().contains("missing crc"));
    }
}
