//! Golden-vector conformance for the compression/attack pipeline.
//!
//! Every test here computes a pipeline artefact from a fixed-seed fixture
//! and compares it **bit-exactly** against a checked-in JSON file under the
//! repo-root `tests/goldens/`. After an intentional numerical change,
//! regenerate with:
//!
//! ```text
//! REGEN_GOLDENS=1 cargo test -p advcomp-testkit --test goldens
//! ```
//!
//! and review the resulting `git diff` like any other source change.
//!
//! Every test pins `ADVCOMP_KERNEL=scalar` first: the goldens are defined
//! by the scalar kernels, and the SIMD backend's reassociated GEMM/sum
//! accumulation differs by a few ULPs (see DESIGN.md, "kernel dispatch").

use advcomp_attacks::{Attack, DeepFool, Ifgm, Ifgsm};
use advcomp_compress::{PruneMask, Quantizer};
use advcomp_nn::{softmax_cross_entropy, Mode, Sequential, Sgd};
use advcomp_tensor::Tensor;
use advcomp_testkit::fixtures;
use advcomp_testkit::golden::{self, tensor_json};
use advcomp_testkit::json::Json;

/// Seed of the fixture model every golden is derived from.
const MODEL_SEED: u64 = 42;
/// Seed of the input batch.
const BATCH_SEED: u64 = 7;
/// Seed of the labels.
const LABEL_SEED: u64 = 9;
/// Batch size.
const BATCH: usize = 4;

fn fixture() -> (Sequential, Tensor, Vec<usize>) {
    (
        fixtures::lenet(MODEL_SEED),
        fixtures::image_batch(BATCH_SEED, BATCH),
        fixtures::labels(LABEL_SEED, BATCH, fixtures::LENET_CLASSES),
    )
}

/// All parameters as a stable-order JSON object.
fn params_json(model: &Sequential) -> Json {
    Json::Obj(
        model
            .export_params()
            .iter()
            .map(|(name, value)| (name.clone(), tensor_json(value)))
            .collect(),
    )
}

fn forward_doc() -> Json {
    let (mut model, x, _) = fixture();
    let logits = model.forward(&x, Mode::Eval).expect("fixture forward");
    Json::Obj(vec![
        ("model_seed".into(), Json::from_usize(MODEL_SEED as usize)),
        ("params".into(), params_json(&model)),
        ("input".into(), tensor_json(&x)),
        ("logits".into(), tensor_json(&logits)),
    ])
}

#[test]
fn forward_logits_conform() {
    advcomp_testkit::pin_kernel("scalar");
    golden::check_or_regen("lenet_forward", &forward_doc()).unwrap();
}

fn attack_doc(name: &str, attack: &dyn Attack) -> Json {
    let (mut model, x, labels) = fixture();
    let adv = attack.generate(&mut model, &x, &labels).expect("attack");
    Json::Obj(vec![
        ("attack".into(), Json::Str(name.into())),
        ("labels".into(), Json::usize_array(&labels)),
        ("adversarial".into(), tensor_json(&adv)),
    ])
}

#[test]
fn ifgsm_perturbation_conforms() {
    advcomp_testkit::pin_kernel("scalar");
    let attack = Ifgsm::new(0.08, 5).unwrap();
    golden::check_or_regen("lenet_ifgsm", &attack_doc("ifgsm", &attack)).unwrap();
}

#[test]
fn ifgm_perturbation_conforms() {
    advcomp_testkit::pin_kernel("scalar");
    let attack = Ifgm::new(0.5, 5).unwrap();
    golden::check_or_regen("lenet_ifgm", &attack_doc("ifgm", &attack)).unwrap();
}

#[test]
fn deepfool_perturbation_conforms() {
    advcomp_testkit::pin_kernel("scalar");
    let attack = DeepFool::new(0.02, 10).unwrap();
    golden::check_or_regen("lenet_deepfool", &attack_doc("deepfool", &attack)).unwrap();
}

#[test]
fn prune_mask_conforms() {
    advcomp_testkit::pin_kernel("scalar");
    let (model, _, _) = fixture();
    let mask = PruneMask::from_magnitude(&model, 0.3).unwrap();
    // HashMap iteration order is unstable; sort names for a stable golden.
    let mut names: Vec<&str> = mask.names().collect();
    names.sort_unstable();
    let entries: Vec<(String, Json)> = names
        .iter()
        .map(|&n| (n.to_string(), tensor_json(mask.mask(n).unwrap())))
        .collect();
    let doc = Json::Obj(vec![
        ("density".into(), Json::Num("0.3".into())),
        ("masks".into(), Json::Obj(entries)),
    ]);
    golden::check_or_regen("lenet_prune_mask", &doc).unwrap();
}

#[test]
fn quantized_weights_conform() {
    advcomp_testkit::pin_kernel("scalar");
    let (mut model, _, _) = fixture();
    Quantizer::for_bitwidth(8)
        .unwrap()
        .quantize_weights(&mut model);
    let doc = Json::Obj(vec![
        ("bitwidth".into(), Json::from_usize(8)),
        ("params".into(), params_json(&model)),
    ]);
    golden::check_or_regen("lenet_quantized_w8", &doc).unwrap();
}

#[test]
fn train_step_conforms() {
    advcomp_testkit::pin_kernel("scalar");
    let (mut model, x, labels) = fixture();
    let logits = model.forward(&x, Mode::Train).expect("forward");
    let loss = softmax_cross_entropy(&logits, &labels).expect("loss");
    model.zero_grad();
    model.backward(&loss.grad).expect("backward");
    let mut opt = Sgd::new(0.1, 0.9, 0.0).unwrap();
    opt.step(model.params_mut()).expect("sgd step");
    let doc = Json::Obj(vec![
        ("loss".into(), Json::from_f32(loss.loss)),
        ("params_after".into(), params_json(&model)),
    ]);
    golden::check_or_regen("lenet_train_step", &doc).unwrap();
}

/// The acceptance gate for golden sensitivity: a single-ulp perturbation of
/// one weight must be detected by the conformance comparison.
#[test]
fn one_ulp_weight_drift_is_detected() {
    advcomp_testkit::pin_kernel("scalar");
    let clean = forward_doc();

    let (mut model, x, _) = fixture();
    {
        let w = &mut model.param_mut("conv1.weight").unwrap().value;
        let v = w.data()[0];
        w.data_mut()[0] = f32::from_bits(v.to_bits() + 1);
    }
    let logits = model.forward(&x, Mode::Eval).expect("forward");
    let drifted = Json::Obj(vec![
        ("model_seed".into(), Json::from_usize(MODEL_SEED as usize)),
        ("params".into(), params_json(&model)),
        ("input".into(), tensor_json(&x)),
        ("logits".into(), tensor_json(&logits)),
    ]);

    let clean = clean.to_pretty_string();
    let clean = advcomp_wire::json::parse(&clean).unwrap();
    let err = golden::compare_json(&clean, &drifted, "$")
        .expect_err("1-ulp weight drift must fail bit-exact conformance");
    assert!(
        err.contains("conv1.weight"),
        "divergence should be pinpointed to the perturbed weight, got: {err}"
    );
}

/// Serialization sanity: a regenerated golden for an unchanged pipeline is
/// byte-identical, so `git diff` after `REGEN_GOLDENS=1` is a pure drift
/// detector.
#[test]
fn golden_serialization_is_stable() {
    advcomp_testkit::pin_kernel("scalar");
    let a = forward_doc().to_pretty_string();
    let b = forward_doc().to_pretty_string();
    assert_eq!(a, b);
}
