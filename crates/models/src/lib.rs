//! Reference models: LeNet5 and CifarNet (§3.2 of the paper).
//!
//! Both builders produce [`advcomp_nn::Sequential`] networks with
//! `FakeQuant` activation-quantisation points already in place (disabled by
//! default — they are identities until a compression pass installs a
//! format), and a `width` multiplier so experiments can scale compute
//! without changing topology.
//!
//! * [`lenet5`] — the classic conv-pool ×2 + three dense layers on 28×28×1
//!   input. The paper's LeNet5 has 431K parameters and hits 99.36% on
//!   MNIST; [`lenet5`] at width 1.0 reproduces the topology (parameter
//!   count depends on width).
//! * [`cifarnet`] — a VGG-style conv stack on 32×32×3 input standing in for
//!   Zhao et al. 2018's 1.3M-parameter CifarNet (85.93% on CIFAR-10).
//!
//! [`Checkpoint`] provides a compact, versioned binary format for model
//! parameters so trained baselines can be reused across experiments.

mod builders;
mod checkpoint;
mod crc32;

pub use builders::{cifarnet, lenet5, mlp, ModelKind};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use crc32::crc32;
