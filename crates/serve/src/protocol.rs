//! Wire protocol: one JSON message per `advcomp-wire` frame over TCP.
//!
//! # Requests
//!
//! ```json
//! {"id": "r1", "input": [0.0, 0.1, ...]}
//! {"id": "r2", "input": [...], "probs": true}
//! {"id": "c1", "cmd": "ping" | "metrics" | "shutdown"}
//! ```
//!
//! # Responses
//!
//! ```json
//! {"id": "r1", "status": "ok", "label": 3, "suspect": 0.25, "flagged": false,
//!  "variants": {"quant8": 3, "pruned": 5}}
//! {"id": "r2", "status": "overloaded", "error": "request queue full ..."}
//! {"id": "c1", "status": "error", "error": "bad request: ..."}
//! ```

use crate::json::{Json, JsonObj};
use crate::{Prediction, ServeError};
use advcomp_wire::json::{self, Value};

// The framing itself (u32 LE length + payload, 16 MiB cap) lives in the
// shared `advcomp-wire` crate so the sweep coordinator/worker protocol in
// `advcomp-core` speaks byte-identical frames; re-exported here so serve
// callers keep one import path.
pub use advcomp_wire::{read_frame, write_frame, MAX_FRAME};

/// Control commands carried by `"cmd"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe; answered immediately with `status: ok`.
    Ping,
    /// Returns the engine's metrics snapshot under `"metrics"`.
    Metrics,
    /// Asks the server to shut down gracefully.
    Shutdown,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one sample.
    Predict {
        /// Client-chosen correlation id, echoed in the response.
        id: String,
        /// Flattened input sample.
        input: Vec<f32>,
        /// Include the softmax distribution in the response.
        probs: bool,
        /// Optional attack label for evaluation traffic; the engine
        /// tallies per-attack detection rates keyed by this tag.
        attack: Option<String>,
    },
    /// A control command.
    Control {
        /// Client-chosen correlation id, echoed in the response.
        id: String,
        /// The command.
        cmd: Command,
    },
}

impl Request {
    /// The request's correlation id.
    pub fn id(&self) -> &str {
        match self {
            Request::Predict { id, .. } | Request::Control { id, .. } => id,
        }
    }

    /// Parses a request from frame payload bytes.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on malformed JSON or an invalid shape.
    pub fn parse(payload: &[u8]) -> Result<Request, ServeError> {
        let doc = json::parse_utf8(payload)
            .map_err(|e| ServeError::BadRequest(format!("bad JSON: {e}")))?;
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing string field 'id'".into()))?
            .to_string();
        if let Some(cmd) = doc.get("cmd") {
            let cmd = match cmd.as_str() {
                Some("ping") => Command::Ping,
                Some("metrics") => Command::Metrics,
                Some("shutdown") => Command::Shutdown,
                name => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown cmd {}, expected ping|metrics|shutdown",
                        name.map_or_else(|| "(not a string)".into(), json::quote)
                    )))
                }
            };
            return Ok(Request::Control { id, cmd });
        }
        let tokens = doc
            .get("input")
            .and_then(Value::as_arr)
            .ok_or_else(|| ServeError::BadRequest("missing array field 'input'".into()))?;
        let mut input = Vec::with_capacity(tokens.len());
        for v in tokens {
            let x = v
                .as_f32()
                .ok_or_else(|| ServeError::BadRequest("'input' must hold f32 numbers".into()))?;
            input.push(x);
        }
        let probs = doc.get("probs").and_then(Value::as_bool).unwrap_or(false);
        let attack = doc
            .get("attack")
            .and_then(Value::as_str)
            .map(str::to_string);
        Ok(Request::Predict {
            id,
            input,
            probs,
            attack,
        })
    }

    /// Serialises this request to frame payload bytes (client side).
    pub fn to_payload(&self) -> Vec<u8> {
        let json = match self {
            Request::Predict {
                id,
                input,
                probs,
                attack,
            } => {
                let mut obj = JsonObj::new().set("id", Json::Str(id.clone())).set(
                    "input",
                    Json::Arr(input.iter().map(|&v| Json::Num(v as f64)).collect()),
                );
                if *probs {
                    obj = obj.set("probs", Json::Bool(true));
                }
                if let Some(attack) = attack {
                    obj = obj.set("attack", Json::Str(attack.clone()));
                }
                obj.build()
            }
            Request::Control { id, cmd } => {
                let name = match cmd {
                    Command::Ping => "ping",
                    Command::Metrics => "metrics",
                    Command::Shutdown => "shutdown",
                };
                JsonObj::new()
                    .set("id", Json::Str(id.clone()))
                    .set("cmd", Json::Str(name.into()))
                    .build()
            }
        };
        json.to_string().into_bytes()
    }
}

/// Builds the success response for a prediction.
pub fn ok_response(id: &str, p: &Prediction) -> Json {
    let mut obj = JsonObj::new()
        .set("id", Json::Str(id.into()))
        .set("status", Json::Str("ok".into()))
        .set("label", Json::Num(p.label as f64));
    if let Some(probs) = &p.probs {
        obj = obj.set(
            "probs",
            Json::Arr(probs.iter().map(|&v| Json::Num(v as f64)).collect()),
        );
    }
    if let Some(s) = p.suspect {
        obj = obj.set("suspect", Json::Num(s));
    }
    if let Some(f) = p.flagged {
        obj = obj.set("flagged", Json::Bool(f));
    }
    if !p.variant_labels.is_empty() {
        let mut variants = JsonObj::new();
        for (name, label) in &p.variant_labels {
            variants = variants.set(name, Json::Num(*label as f64));
        }
        obj = obj.set("variants", variants.build());
    }
    obj.build()
}

/// Builds an error response; `Overloaded` and `RateLimited` get their own
/// statuses so clients can distinguish whole-server backpressure (retry
/// later) from per-client throttling (back off to the provisioned rate)
/// and from hard failures.
pub fn error_response(id: &str, err: &ServeError) -> Json {
    let status = match err {
        ServeError::Overloaded => "overloaded",
        ServeError::ShuttingDown => "shutting_down",
        ServeError::RateLimited => "rate_limited",
        _ => "error",
    };
    JsonObj::new()
        .set("id", Json::Str(id.into()))
        .set("status", Json::Str(status.into()))
        .set("error", Json::Str(err.to_string()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Predict {
            id: "r1".into(),
            input: vec![0.0, 0.5, 1.0],
            probs: true,
            attack: None,
        };
        let parsed = Request::parse(&req.to_payload()).unwrap();
        assert_eq!(parsed, req);

        let tagged = Request::Predict {
            id: "r2".into(),
            input: vec![0.25],
            probs: false,
            attack: Some("uap".into()),
        };
        assert_eq!(Request::parse(&tagged.to_payload()).unwrap(), tagged);

        let ctl = Request::Control {
            id: "c1".into(),
            cmd: Command::Metrics,
        };
        assert_eq!(Request::parse(&ctl.to_payload()).unwrap(), ctl);
    }

    #[test]
    fn malformed_requests_are_bad_requests() {
        for bad in [
            &b"not json"[..],
            br#"{"input": [1]}"#,              // missing id
            br#"{"id": "x"}"#,                 // neither cmd nor input
            br#"{"id": "x", "cmd": "nope"}"#,  // unknown command
            br#"{"id": "x", "input": ["a"]}"#, // non-numeric input
            &[0xFF, 0xFE][..],                 // not UTF-8
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ServeError::BadRequest(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn responses_carry_status() {
        let p = Prediction {
            label: 7,
            probs: None,
            suspect: Some(0.5),
            flagged: Some(true),
            variant_labels: vec![("quant8".into(), 3)],
        };
        let ok = ok_response("r1", &p);
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("label"), Some(&Json::Num(7.0)));
        assert_eq!(
            ok.get("variants").and_then(|v| v.get("quant8")),
            Some(&Json::Num(3.0))
        );

        let over = error_response("r2", &ServeError::Overloaded);
        assert_eq!(
            over.get("status").and_then(Json::as_str),
            Some("overloaded")
        );
        let rl = error_response("r2b", &ServeError::RateLimited);
        assert_eq!(
            rl.get("status").and_then(Json::as_str),
            Some("rate_limited"),
            "admission control must be distinguishable from overload"
        );
        let err = error_response("r3", &ServeError::BadRequest("x".into()));
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        // Responses must themselves parse as valid frames end-to-end.
        let mut buf = Vec::new();
        write_frame(&mut buf, ok.to_string().as_bytes()).unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap().unwrap();
        Json::parse(&payload).unwrap();
    }
}
