//! Minimal flat-JSON codec shared by every wire/disk format in the
//! workspace (journal records, batch reports, the serve protocol).
//!
//! The dialect is deliberately tiny: one single-level JSON object per
//! record — string, number and boolean values, no nested objects or
//! arrays. Structured payloads (time vectors, point sets) ride inside
//! string values using the token encodings of `xrta-timing`. Keeping
//! the dialect flat keeps records greppable, the parser dependency-free
//! and the encoder a `format!` call.

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses a single-level JSON object into key/value pairs in source
/// order. String values are unescaped; numbers and booleans are
/// returned as their raw token text. No nested objects or arrays.
/// Whitespace between tokens is skipped, so compact records and
/// pretty-printed ones (`{"k": "v", "n": 1}`) read the same. Record
/// parsers read through [`Fields`].
fn parse_flat_object(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = s.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err(format!("record does not start with '{{': {s}"));
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => break,
            Some('"') => {}
            other => return Err(format!("expected key, found {other:?} in {s}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("missing ':' after {key:?} in {s}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => parse_string(&mut chars)?,
            Some(_) => {
                let mut raw = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' || c == '}' {
                        break;
                    }
                    raw.push(c);
                    chars.next();
                }
                raw.trim().to_string()
            }
            None => return Err(format!("truncated record: {s}")),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return Ok(fields),
            other => return Err(format!("expected ',' or '}}', found {other:?} in {s}")),
        }
    }
    chars.next();
    Ok(fields)
}

/// Advances past JSON whitespace (space, tab, newline, carriage return).
fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while chars
        .next_if(|c| matches!(c, ' ' | '\t' | '\n' | '\r'))
        .is_some()
    {}
}

/// Parses a JSON string literal (cursor on the opening quote).
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    assert_eq!(chars.next(), Some('"'));
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("unknown escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

/// Convenience view over parsed fields: keyed lookup with uniform
/// "missing field" errors, so every record parser reads the same way.
pub struct Fields {
    fields: Vec<(String, String)>,
}

impl Fields {
    /// Parses `s` as a flat object and wraps the result.
    pub fn parse(s: &str) -> Result<Fields, String> {
        Ok(Fields {
            fields: parse_flat_object(s)?,
        })
    }

    /// The value of `key`, or an error naming the missing key.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.opt(key)
            .ok_or_else(|| format!("record missing {key:?}"))
    }

    /// The value of `key`, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `key` parsed as a `u64`.
    pub fn get_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .parse()
            .map_err(|e| format!("bad {key} in record: {e}"))
    }

    /// `key` parsed as a `u64`, if present.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt(key)
            .map(|v| v.parse().map_err(|e| format!("bad {key} in record: {e}")))
            .transpose()
    }

    /// `key` parsed as a boolean (`true`/`false` token).
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("bad {key} in record: {other:?} is not a bool")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_value_kinds_in_order() {
        let fields =
            parse_flat_object("{\"a\":\"x\",\"n\":42,\"b\":true,\"esc\":\"q\\\"\\n\"}").unwrap();
        assert_eq!(
            fields,
            vec![
                ("a".into(), "x".into()),
                ("n".into(), "42".into()),
                ("b".into(), "true".into()),
                ("esc".into(), "q\"\n".into()),
            ]
        );
    }

    #[test]
    fn skips_whitespace_between_tokens() {
        let spaced = "{ \"a\" : \"x y\", \"n\": 42 ,\t\"b\":\ntrue }";
        assert_eq!(
            parse_flat_object(spaced).unwrap(),
            vec![
                ("a".into(), "x y".into()),
                ("n".into(), "42".into()),
                ("b".into(), "true".into()),
            ]
        );
        assert_eq!(parse_flat_object("{ }").unwrap(), vec![]);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1}";
        let obj = format!("{{\"v\":\"{}\"}}", escape(nasty));
        let fields = Fields::parse(&obj).unwrap();
        assert_eq!(fields.get("v").unwrap(), nasty);
    }

    #[test]
    fn fields_lookup_and_typed_accessors() {
        let f = Fields::parse("{\"n\":7,\"flag\":false,\"s\":\"hi\"}").unwrap();
        assert_eq!(f.get_u64("n").unwrap(), 7);
        assert!(!f.get_bool("flag").unwrap());
        assert_eq!(f.get("s").unwrap(), "hi");
        assert!(f.get("missing").is_err());
        assert_eq!(f.opt_u64("missing").unwrap(), None);
        assert_eq!(f.opt_u64("n").unwrap(), Some(7));
    }

    #[test]
    fn rejects_malformed_objects() {
        for bad in ["", "{", "not json", "{\"k\"}", "{\"k\":\"v\""] {
            assert!(
                parse_flat_object(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
