//! Minimal JSON/JSONL emission, std-only.
//!
//! The build environment has no registry access, so instead of serde this
//! module provides a tiny append-only builder that covers exactly what the
//! telemetry exporters need: flat-ish objects of strings, integers, floats
//! and nested arrays/objects, one record per line.

use std::io::{self, Write};

/// Append `s` to `out` as a JSON string literal (with surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// An in-progress JSON object. Fields are emitted in insertion order;
/// callers are responsible for key uniqueness.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> JsonObject {
        JsonObject::new()
    }
}

impl JsonObject {
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        escape_into(key, &mut self.buf);
        self.buf.push(':');
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        escape_into(value, &mut self.buf);
        self
    }

    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Floats are emitted with enough precision to round-trip; non-finite
    /// values become `null` (JSON has no NaN/Inf).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format_f64(value));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Insert pre-rendered JSON (a nested object or array) verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    pub fn finish(&self) -> String {
        let mut s = self.buf.clone();
        s.push('}');
        s
    }
}

fn format_f64(value: f64) -> String {
    let s = format!("{value}");
    // `{}` on an integral f64 prints "3"; keep it valid JSON either way
    // (bare integers are valid), so no fixup needed beyond finiteness.
    s
}

/// Render a slice of u64 as a JSON array.
pub fn u64_array(values: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

/// Render a slice of strings as a JSON array of string literals.
pub fn str_array(values: &[&str]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        escape_into(v, &mut s);
    }
    s.push(']');
    s
}

/// Line-oriented JSONL sink over any `Write`.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    w: W,
}

impl<W: Write> JsonlWriter<W> {
    pub fn new(w: W) -> JsonlWriter<W> {
        JsonlWriter { w }
    }

    /// Write one record (pre-rendered JSON, no trailing newline expected).
    pub fn record(&mut self, json: &str) -> io::Result<()> {
        debug_assert!(!json.contains('\n'), "JSONL records must be single-line");
        self.w.write_all(json.as_bytes())?;
        self.w.write_all(b"\n")
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    pub fn into_inner(self) -> W {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn object_builder_produces_valid_json() {
        let mut o = JsonObject::new();
        o.str("kind", "snapshot")
            .u64("trials", 42)
            .f64("rate", 0.5)
            .bool("ok", true)
            .raw("buckets", &u64_array(&[1, 2, 3]));
        assert_eq!(
            o.finish(),
            r#"{"kind":"snapshot","trials":42,"rate":0.5,"ok":true,"buckets":[1,2,3]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.f64("x", f64::NAN).f64("y", f64::INFINITY);
        assert_eq!(o.finish(), r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn empty_object_and_arrays() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(u64_array(&[]), "[]");
        assert_eq!(str_array(&["a", "b"]), r#"["a","b"]"#);
    }

    #[test]
    fn jsonl_writer_appends_newlines() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record("{\"a\":1}").unwrap();
        w.record("{\"b\":2}").unwrap();
        let buf = w.into_inner();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
    }
}
