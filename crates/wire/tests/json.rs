//! Conformance table for `advcomp_wire::json`, the parser behind serve's
//! requests, the dist messages, the sweep journal, the event log and the
//! golden vectors.

use advcomp_wire::json::{parse, parse_utf8, quote, JsonErrorKind as K, Value, MAX_DEPTH};

/// `Ok` or the error kind and byte offset a document must produce.
type Want = Result<(), (K, usize)>;

#[test]
fn accepts_and_rejects_per_rfc_8259() {
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
    #[rustfmt::skip]
    let table: Vec<(String, Want)> = [
        // Number grammar.
        ("-0", Ok(())), ("1E+2", Ok(())), ("-12.25e-7", Ok(())),
        ("+1", Err((K::Unexpected, 0))), (".5", Err((K::Unexpected, 0))),
        ("01", Err((K::Trailing, 1))), ("[01]", Err((K::Unexpected, 2))),
        ("1.", Err((K::BadNumber, 2))), ("-", Err((K::BadNumber, 1))),
        ("1e", Err((K::BadNumber, 2))), ("1e+", Err((K::BadNumber, 3))),
        ("1.2.3", Err((K::Trailing, 3))),
        // Strings: raw control characters, the escape set, surrogates.
        ("\"tab\there\"", Err((K::ControlChar, 4))), ("\"nul\u{0}\"", Err((K::ControlChar, 4))),
        (r#""\x""#, Err((K::BadEscape, 1))), (r#""\u12g4""#, Err((K::BadEscape, 1))),
        (r#""\u12""#, Err((K::BadEscape, 1))), ("\"open", Err((K::UnexpectedEnd, 5))),
        (r#""\ud83d""#, Err((K::LoneSurrogate, 1))), (r#""\ud83dA""#, Err((K::LoneSurrogate, 1))),
        (r#""\ude00""#, Err((K::LoneSurrogate, 1))), (r#""\ud83d\u0041""#, Err((K::LoneSurrogate, 1))),
        // Structure.
        ("", Err((K::UnexpectedEnd, 0))), ("{", Err((K::UnexpectedEnd, 1))),
        ("[1,]", Err((K::Unexpected, 3))), ("[1 2]", Err((K::Unexpected, 3))),
        ("{\"a\":}", Err((K::Unexpected, 5))), ("{\"a\" 1}", Err((K::Unexpected, 5))),
        ("{a: 1}", Err((K::Unexpected, 1))), ("{\"a\": 1,}", Err((K::Unexpected, 8))),
        ("nul", Err((K::Unexpected, 0))), ("truex", Err((K::Trailing, 4))),
        ("[1] x", Err((K::Trailing, 4))), (" [] ", Ok(())), ("{}", Ok(())),
    ]
    .into_iter()
    .map(|(text, want)| (text.to_string(), want))
    .chain([
        (nest(MAX_DEPTH), Ok(())),
        (nest(MAX_DEPTH + 1), Err((K::TooDeep, MAX_DEPTH))),
        (objects(MAX_DEPTH), Ok(())),
        (objects(MAX_DEPTH + 1), Err((K::TooDeep, 5 * MAX_DEPTH))),
    ])
    .collect();
    for (text, want) in table {
        let got = parse(&text).map(drop).map_err(|e| (e.kind, e.offset));
        assert_eq!(got, want, "{text:?}");
    }
    let err = parse_utf8(b"[\"ok\", \xff]").unwrap_err();
    assert_eq!((err.kind, err.offset), (K::NotUtf8, 7));
    assert_eq!(err.to_string(), "invalid utf-8 at byte 7");
}

#[test]
fn values_decode_once_through_accessors() {
    let v = parse(
        r#"{"n": [0.30000000000000004, -1e-3, 42, 1.0, 1e999, 1e39, -7],
            "s": "a\"b\\c\/d\b\f\n\r\t\ud83d\ude00é", "b": [true, null], "k": 1, "k": 2}"#,
    )
    .unwrap();
    let n = v.get("n").and_then(Value::as_arr).unwrap();
    assert_eq!(n[0], Value::Num("0.30000000000000004"));
    assert_eq!(n[0].as_f64().unwrap().to_bits(), 0.3f64.to_bits() + 1);
    assert_eq!(n[1].as_f32(), Some(-1e-3));
    assert_eq!((n[2].as_u64(), n[2].as_usize()), (Some(42), Some(42)));
    // Integer accessors take integer literals only; out of range is None.
    assert_eq!((n[3].as_u64(), n[3].as_f64()), (None, Some(1.0)));
    assert_eq!((n[4].as_f64(), n[4].as_f32()), (None, None));
    assert_eq!((n[5].as_f64(), n[5].as_f32()), (Some(1e39), None));
    assert_eq!(n[6].as_u64(), None);
    let s = v.get("s").and_then(Value::as_str);
    assert_eq!(s, Some("a\"b\\c/d\u{8}\u{c}\n\r\t😀é"));
    let b = v.get("b").and_then(Value::as_arr).unwrap();
    assert_eq!((b[0].as_bool(), &b[1]), (Some(true), &Value::Null));
    // A duplicated key keeps both members in order; `get` returns the last.
    assert_eq!(v.get("k"), Some(&Value::Num("2")));
    assert!(matches!(&v, Value::Obj(pairs) if pairs.len() == 5));
    assert_eq!(v.get("missing"), None);
}

#[test]
fn quote_escapes_and_round_trips() {
    assert_eq!(
        quote("\"\\\n\r\t\u{1}\u{1f}"),
        r#""\"\\\n\r\t\u0001\u001f""#
    );
    for s in ["plain", "with \"quotes\"", "ctl\u{1}\u{8}\u{c}", "π😀", ""] {
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s), "{s:?}");
    }
}
