//! Golden-file JSON: an owned value tree and its pretty writer.
//!
//! The golden format needs **f32 bit-exactness through a text round-trip**.
//! Values are therefore written with Rust's shortest-round-trip `{:?}`
//! formatting and kept as *raw number tokens*, so the consumer re-parses
//! the exact token with `str::parse::<f32>` — no intermediate f64
//! double-rounding. Goldens are read back with the workspace's one parser,
//! [`advcomp_wire::json`], and compared against a freshly built tree by
//! [`crate::golden::compare_json`].
//!
//! Objects preserve insertion order (backed by a `Vec`), which makes the
//! writer deterministic: regenerating an unchanged golden produces a
//! byte-identical file, so `git diff` is a drift detector.

use advcomp_wire::json::write_escaped;

/// A JSON value. Numbers are raw tokens (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Number from an `f32`, shortest round-trip representation.
    pub fn from_f32(v: f32) -> Json {
        assert!(v.is_finite(), "golden values must be finite, got {v}");
        Json::Num(format!("{v:?}"))
    }

    /// Number from a `usize`.
    pub fn from_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// Array of `f32` numbers.
    pub fn f32_array(values: &[f32]) -> Json {
        Json::Arr(values.iter().copied().map(Json::from_f32).collect())
    }

    /// Array of `usize` numbers.
    pub fn usize_array(values: &[usize]) -> Json {
        Json::Arr(values.iter().copied().map(Json::from_usize).collect())
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => {
                let _ = write_escaped(out, s);
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Scalar-only arrays (the big data payloads) stay on one
                // line to keep golden files compact and diffable per tensor.
                let flat = items
                    .iter()
                    .all(|i| matches!(i, Json::Num(_) | Json::Str(_) | Json::Bool(_)));
                if flat {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write_pretty(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, indent + 1);
                        item.write_pretty(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    let _ = write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let values = [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            std::f32::consts::PI,
            1.0e-38,
            3.4e38,
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x3f80_0001), // 1.0 + 1 ulp
        ];
        for &v in &values {
            let text = Json::from_f32(v).to_pretty_string();
            let back = advcomp_wire::json::parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v:?} via {text:?}");
        }
    }

    #[test]
    fn object_round_trip_preserves_order_and_content() {
        let doc = Json::Obj(vec![
            ("zeta".into(), Json::from_usize(3)),
            ("alpha".into(), Json::f32_array(&[1.5, -2.25])),
            ("name".into(), Json::Str("a \"quoted\"\nvalue".into())),
            ("flag".into(), Json::Bool(true)),
            (
                "nested".into(),
                Json::Arr(vec![Json::Null, Json::Obj(vec![])]),
            ),
        ]);
        let text = doc.to_pretty_string();
        let back = advcomp_wire::json::parse(&text).unwrap();
        crate::golden::compare_json(&back, &doc, "$").unwrap();
    }
}
