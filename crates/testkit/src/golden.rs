//! Golden-vector storage: load, compare, regenerate.
//!
//! Golden files live at the repository root under `tests/goldens/`, next to
//! the workspace-level integration tests that consume them. Files are JSON
//! ([`crate::json`]) with f32 payloads in shortest-round-trip notation, so
//! comparison against a freshly computed value is **bit-exact** — a 1-ulp
//! drift anywhere in the pipeline fails conformance.
//!
//! Workflow:
//!
//! * Normal run: the test computes its result, calls [`check_or_regen`],
//!   and fails with a pathed diff if the stored vector disagrees.
//! * After an intentional numerical change: `REGEN_GOLDENS=1 cargo test
//!   -p advcomp-testkit --test goldens` rewrites the files; the `git diff`
//!   is then reviewed like any other source change.

use crate::json::Json;
use advcomp_tensor::Tensor;
use advcomp_wire::json::{self, JsonError, Value};
use std::path::PathBuf;

/// Environment variable that switches conformance tests into regeneration
/// mode.
pub const REGEN_ENV: &str = "REGEN_GOLDENS";

/// Failure modes of golden handling.
#[derive(Debug)]
pub enum GoldenError {
    /// The golden file does not exist yet (run with `REGEN_GOLDENS=1`).
    Missing(PathBuf),
    /// Filesystem error reading or writing the file.
    Io(PathBuf, std::io::Error),
    /// The stored file is not valid golden JSON.
    Parse(PathBuf, JsonError),
    /// Stored and computed values disagree; the string pinpoints where.
    Mismatch {
        /// Offending golden file.
        path: PathBuf,
        /// JSON-path description of the first divergence.
        detail: String,
    },
}

impl std::fmt::Display for GoldenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GoldenError::Missing(p) => write!(
                f,
                "golden file {} is missing — generate it with {REGEN_ENV}=1",
                p.display()
            ),
            GoldenError::Io(p, e) => write!(f, "io error on {}: {e}", p.display()),
            GoldenError::Parse(p, e) => write!(f, "malformed golden {}: {e}", p.display()),
            GoldenError::Mismatch { path, detail } => write!(
                f,
                "golden drift in {}: {detail} (if the change is intentional, \
                 regenerate with {REGEN_ENV}=1 and review the diff)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for GoldenError {}

/// Absolute path of the golden directory (`<repo root>/tests/goldens`).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("goldens")
}

/// Path of the golden file for `name` (extension added here).
pub fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.json"))
}

/// `true` when the current process was asked to regenerate goldens.
pub fn regen_requested() -> bool {
    std::env::var(REGEN_ENV).map(|v| v == "1").unwrap_or(false)
}

/// Writes `value` as the golden file for `name`, creating the directory if
/// needed.
///
/// # Errors
///
/// [`GoldenError::Io`] on filesystem failure.
pub fn save(name: &str, value: &Json) -> Result<(), GoldenError> {
    let path = golden_path(name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| GoldenError::Io(path.clone(), e))?;
    }
    std::fs::write(&path, value.to_pretty_string()).map_err(|e| GoldenError::Io(path, e))
}

/// The conformance entry point: in regeneration mode, saves `computed`;
/// otherwise loads the stored golden and compares bit-exactly.
///
/// # Errors
///
/// Any [`GoldenError`]; in particular [`GoldenError::Mismatch`] with a
/// JSON-path pointer to the first divergent value.
pub fn check_or_regen(name: &str, computed: &Json) -> Result<(), GoldenError> {
    if regen_requested() {
        return save(name, computed);
    }
    let path = golden_path(name);
    if !path.exists() {
        return Err(GoldenError::Missing(path));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| GoldenError::Io(path.clone(), e))?;
    let stored = json::parse(&text).map_err(|e| GoldenError::Parse(path.clone(), e))?;
    compare_json(&stored, computed, "$").map_err(|detail| GoldenError::Mismatch { path, detail })
}

/// Structural bit-exact comparison of a parsed golden against a computed
/// document, reporting the JSON path of the first difference. Numbers
/// compare by parsed `f32` bit pattern (so `1` vs `1.0` in a hand-edited
/// file still matches), everything else compares structurally.
pub fn compare_json(expected: &Value<'_>, actual: &Json, path: &str) -> Result<(), String> {
    match (expected, actual) {
        (Value::Num(e), Json::Num(a)) => {
            let (pe, pa) = (e.parse::<f32>(), a.parse::<f32>());
            match (pe, pa) {
                (Ok(ve), Ok(va)) if ve.to_bits() == va.to_bits() => Ok(()),
                _ => Err(format!("{path}: expected {e}, got {a}")),
            }
        }
        (Value::Str(e), Json::Str(a)) if e == a => Ok(()),
        (Value::Bool(e), Json::Bool(a)) if e == a => Ok(()),
        (Value::Null, Json::Null) => Ok(()),
        (Value::Arr(e), Json::Arr(a)) => {
            if e.len() != a.len() {
                return Err(format!(
                    "{path}: array length expected {}, got {}",
                    e.len(),
                    a.len()
                ));
            }
            for (i, (ev, av)) in e.iter().zip(a.iter()).enumerate() {
                compare_json(ev, av, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        (Value::Obj(e), Json::Obj(a)) => {
            if e.len() != a.len() {
                return Err(format!(
                    "{path}: object size expected {}, got {}",
                    e.len(),
                    a.len()
                ));
            }
            for ((ek, ev), (ak, av)) in e.iter().zip(a.iter()) {
                if ek != ak {
                    return Err(format!("{path}: key order expected {ek:?}, got {ak:?}"));
                }
                compare_json(ev, av, &format!("{path}.{ek}"))?;
            }
            Ok(())
        }
        _ => Err(format!(
            "{path}: kind mismatch ({expected:?} vs {actual:?})"
        )),
    }
}

/// Encodes a tensor as a golden object: `{"shape": [...], "data": [...]}`.
pub fn tensor_json(t: &Tensor) -> Json {
    Json::Obj(vec![
        ("shape".into(), Json::usize_array(t.shape())),
        ("data".into(), Json::f32_array(t.data())),
    ])
}

/// Decodes a parsed tensor golden object back into `(shape, data)`.
pub fn tensor_from_json(v: &Value<'_>) -> Option<(Vec<usize>, Vec<f32>)> {
    let items = |key| v.get(key)?.as_arr();
    let shape = items("shape")?
        .iter()
        .map(Value::as_usize)
        .collect::<Option<_>>()?;
    let data = items("data")?
        .iter()
        .map(Value::as_f32)
        .collect::<Option<_>>()?;
    Some((shape, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_json_round_trip() {
        let t = Tensor::new(&[2, 2], vec![1.0, -2.5, 0.125, 3.0e7]).unwrap();
        let text = tensor_json(&t).to_pretty_string();
        let (shape, data) = tensor_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(shape, vec![2, 2]);
        assert_eq!(data, t.data());
    }

    #[test]
    fn compare_pinpoints_divergence() {
        let a = json::parse(r#"{"x": [1.0, 2.0]}"#).unwrap();
        let b = Json::Obj(vec![(
            "x".into(),
            Json::f32_array(&[1.0, f32::from_bits(2.0f32.to_bits() + 1)]),
        )]);
        let err = compare_json(&a, &b, "$").unwrap_err();
        assert!(err.contains("$.x[1]"), "got: {err}");
    }

    #[test]
    fn compare_accepts_equivalent_number_forms() {
        // A hand-edited integer token still matches its float form.
        let a = Value::Num("1");
        let b = Json::Num("1.0".into());
        assert!(compare_json(&a, &b, "$").is_ok());
    }

    #[test]
    fn golden_dir_points_into_repo() {
        let d = golden_dir();
        assert!(d.ends_with("tests/goldens"), "{}", d.display());
    }
}
