//! # advcomp — To Compress Or Not To Compress (MLSYS 2019), in Rust
//!
//! Facade crate re-exporting the whole workspace: a from-scratch
//! reproduction of *Zhao, Shumailov, Mullins, Anderson — "To Compress Or Not
//! To Compress: Understanding the Interactions between Adversarial Attacks
//! and Neural Network Compression"*.
//!
//! The workspace layers, bottom-up:
//!
//! * [`tensor`] — dense `f32` tensors, blocked matmul, `im2col` convolution.
//! * [`qformat`] — signed fixed-point (Q-format) numerics.
//! * [`nn`] — layer-based neural networks with reverse-mode gradients.
//! * [`data`] — synthetic MNIST/CIFAR-like datasets and real-file loaders.
//! * [`compress`] — pruning (one-shot + Dynamic Network Surgery) and
//!   fixed-point quantisation of weights and activations.
//! * [`attacks`] — FGM, FGSM, IFGM, IFGSM and DeepFool white-box attacks.
//! * [`models`] — LeNet5 and CifarNet reference models with checkpointing.
//! * [`sparse`] — deployment encodings: CSR weights, packed fixed-point
//!   codes, Huffman streams, and model-size accounting.
//! * [`core`] — the paper's contribution: the compression-aware attack
//!   taxonomy (scenarios S1–S3), transfer evaluation, and sweep harnesses.
//! * [`detect`] — calibrated adversarial detection: ensemble detectors,
//!   ROC calibration artifacts, and the attack×compression evaluation grid
//!   (universal perturbations included).
//! * [`serve`] — batched TCP inference serving with a compression-ensemble
//!   adversarial guard built on the paper's transfer observations.
//! * [`wire`] — the length-prefixed frame transport and the one JSON
//!   parser every protocol, journal and golden file is read with.
//!
//! # Quickstart
//!
//! ```no_run
//! use advcomp::core::{ExperimentScale, TrainedModel};
//! use advcomp::core::scenario::Scenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train a baseline LeNet5-style model on the synthetic digit task.
//! let scale = ExperimentScale::quick();
//! let baseline = TrainedModel::train_lenet5(&scale, 42)?;
//! println!("baseline accuracy: {:.2}%", 100.0 * baseline.test_accuracy);
//! # Ok(())
//! # }
//! ```

pub use advcomp_attacks as attacks;
pub use advcomp_compress as compress;
pub use advcomp_core as core;
pub use advcomp_data as data;
pub use advcomp_detect as detect;
pub use advcomp_models as models;
pub use advcomp_nn as nn;
pub use advcomp_qformat as qformat;
pub use advcomp_serve as serve;
pub use advcomp_sparse as sparse;
pub use advcomp_tensor as tensor;
pub use advcomp_wire as wire;
