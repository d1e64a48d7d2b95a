//! Error type for the serving engine.

use advcomp_detect::DetectError;
use advcomp_graph::GraphError;
use advcomp_models::CheckpointError;
use advcomp_nn::NnError;
use std::fmt;

/// Errors raised by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// The request queue is full — explicit backpressure, never a hang.
    /// Clients receive an `overloaded` response and should retry later.
    Overloaded,
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// The client exceeded its admission-control rate limit — deliberate
    /// per-client throttling, distinct from [`ServeError::Overloaded`]
    /// (which signals whole-server pressure). Clients should back off to
    /// their provisioned rate rather than retry immediately.
    RateLimited,
    /// A worker dropped the reply channel without answering (a worker
    /// panic; the request is lost, not stuck).
    WorkerLost,
    /// Invalid engine or registry configuration.
    Config(String),
    /// A request was malformed (wrong input length, unknown model, bad
    /// frame).
    BadRequest(String),
    /// Checkpoint loading failed (I/O, corruption, incompatibility).
    Checkpoint(CheckpointError),
    /// The adversarial guard failed: a corrupt calibration artifact at
    /// load time, or a detector scoring error at serve time.
    Detect(DetectError),
    /// A model forward pass failed.
    Nn(NnError),
    /// A model's compiled forward plan failed: the compiler rejected the
    /// model for the registry's input shape (refused at registration), or
    /// a plan forward failed at serve time.
    Plan(GraphError),
    /// Socket-level I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request queue full (overloaded)"),
            ServeError::ShuttingDown => write!(f, "engine shutting down"),
            ServeError::RateLimited => write!(f, "client rate limit exceeded (rate_limited)"),
            ServeError::WorkerLost => write!(f, "worker dropped the request"),
            ServeError::Config(msg) => write!(f, "invalid config: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Detect(e) => write!(f, "guard: {e}"),
            ServeError::Nn(e) => write!(f, "model: {e}"),
            ServeError::Plan(e) => write!(f, "plan: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Detect(e) => Some(e),
            ServeError::Nn(e) => Some(e),
            ServeError::Plan(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<DetectError> for ServeError {
    fn from(e: DetectError) -> Self {
        ServeError::Detect(e)
    }
}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        ServeError::Plan(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ServeError::Overloaded.to_string().contains("overloaded"));
        assert!(ServeError::Config("x".into()).to_string().contains('x'));
        assert!(ServeError::BadRequest("y".into()).to_string().contains('y'));
    }
}
