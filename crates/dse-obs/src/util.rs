//! Small deterministic formatting helpers shared by the exporters.

use std::fmt::Write as _;

/// Escape `s` into `out` as a JSON string body (no surrounding quotes).
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Quote and escape `s` as a complete JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_json_into(&mut out, s);
    out.push('"');
    out
}

/// Format nanoseconds as a microsecond JSON number with exactly three
/// decimal places (`1234567` -> `"1234.567"`). Pure integer math, so the
/// output is byte-stable across platforms — required for golden files.
pub fn us_from_ns(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        let mut s = String::new();
        escape_json_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn us_formatting() {
        let mut s = String::new();
        us_from_ns(&mut s, 1_234_567);
        s.push(' ');
        us_from_ns(&mut s, 5);
        s.push(' ');
        us_from_ns(&mut s, 0);
        assert_eq!(s, "1234.567 0.005 0.000");
    }
}
