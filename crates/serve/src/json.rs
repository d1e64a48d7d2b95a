//! JSON value model and writer for responses and metrics snapshots.
//!
//! Reading goes through the workspace's one parser
//! ([`advcomp_wire::json`], strict and depth-capped, since it sits
//! directly on the network boundary); [`Json::parse`] converts its result
//! into this owned, f64-numbered model for clients that inspect responses.
//! [`Request::parse`](crate::protocol::Request::parse) skips the conversion and
//! decodes the parser's value directly.

use advcomp_wire::json::{self as wire, write_escaped, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap keeps serialisation deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects (`None` for other variants / missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a JSON document from UTF-8 bytes (must consume all input).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, or
    /// of a number that overflows f64.
    pub fn parse(bytes: &[u8]) -> Result<Json, String> {
        let value = wire::parse_utf8(bytes).map_err(|e| e.to_string())?;
        Json::from_value(value)
    }

    /// Converts a parsed value; duplicate keys keep the last value, as
    /// [`Value::get`] does.
    fn from_value(value: Value<'_>) -> Result<Json, String> {
        Ok(match value {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Num(tok) => Json::Num(
                value
                    .as_f64()
                    .ok_or_else(|| format!("non-finite number '{tok}'"))?,
            ),
            Value::Str(s) => Json::Str(s),
            Value::Arr(items) => Json::Arr(
                items
                    .into_iter()
                    .map(Json::from_value)
                    .collect::<Result<_, _>>()?,
            ),
            Value::Obj(pairs) => Json::Obj(
                pairs
                    .into_iter()
                    .map(|(k, v)| Ok((k, Json::from_value(v)?)))
                    .collect::<Result<_, String>>()?,
            ),
        })
    }
}

/// An object builder for response construction.
#[derive(Debug, Default)]
pub struct JsonObj(BTreeMap<String, Json>);

impl JsonObj {
    /// Creates an empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a member, consuming and returning the builder.
    pub fn set(mut self, key: &str, value: Json) -> Self {
        self.0.insert(key.to_string(), value);
        self
    }

    /// Finishes into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_display_and_parse_round_trip() {
        let v = JsonObj::new()
            .set("status", Json::Str("o\"k\n".into()))
            .set("id", Json::Num(7.0))
            .set(
                "x",
                Json::Arr(vec![Json::Num(0.25), Json::Null, Json::Bool(true)]),
            )
            .build();
        let s = v.to_string();
        assert_eq!(s, r#"{"id":7,"status":"o\"k\n","x":[0.25,null,true]}"#);
        assert_eq!(Json::parse(s.as_bytes()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_what_the_model_cannot_hold() {
        // The shared parser accepts 1e999 as a token; f64 cannot hold it.
        assert!(Json::parse(b"[1e999]").is_err());
        // Duplicate keys: the last wins, as in the shared parser's `get`.
        let v = Json::parse(br#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn integral_floats_print_as_integers() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(5.5).to_string(), "5.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
