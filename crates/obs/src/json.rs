//! Minimal RFC 8259 emission helpers.
//!
//! The workspace is built offline (no serde); every machine-readable
//! output — this crate's JSON-lines traces — goes through this one
//! function, so the escaping rules live in exactly one place.

/// Escapes and quotes a string per RFC 8259: `"` and `\` are escaped,
/// control characters become `\n`/`\r`/`\t` or `\u00XX`, everything else
/// passes through as UTF-8.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_are_quoted_verbatim() {
        assert_eq!(json_string("abc"), "\"abc\"");
        assert_eq!(json_string(""), "\"\"");
    }

    #[test]
    fn specials_are_escaped() {
        assert_eq!(
            json_string("he said \"hi\"\\\n\u{1}"),
            "\"he said \\\"hi\\\"\\\\\\n\\u0001\""
        );
        assert_eq!(json_string("a\tb\r"), "\"a\\tb\\r\"");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(json_string("λ→µ"), "\"λ→µ\"");
    }
}
