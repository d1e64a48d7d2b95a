//! Clone-safety contract for eval-mode inference.
//!
//! `Sequential::clone()` yields an independent copy. That is only sound if
//! an eval-mode forward pass mutates nothing but the layer's transient
//! backward cache: parameters and installed quantisation formats must be
//! bit-identical afterwards, and two clones evaluating the same input on
//! different threads must produce bit-identical outputs.

use advcomp_nn::{Mode, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{Init, Tensor};
use rand::SeedableRng;

/// The paper's LeNet-5 with q8 activation quantisation installed on every
/// `FakeQuant` point, so the forward pass touches every interior state a
/// shipped model has: conv im2col scratch, pooling argmax, FakeQuant masks.
fn q8_lenet(seed: u64) -> Sequential {
    let mut net = advcomp_models::lenet5(1.0, seed);
    let q8 = QFormat::for_bitwidth(8).unwrap();
    assert_eq!(net.set_activation_format(Some(q8)), 5);
    net
}

fn input(seed: u64, n: usize) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[n, 1, 28, 28], &mut rng)
}

#[test]
fn concurrent_eval_on_clones_is_bit_identical() {
    let base = q8_lenet(3);
    let x = input(5, 3);
    let mut handles = Vec::new();
    for _ in 0..2 {
        let mut replica = base.clone();
        let xc = x.clone();
        handles.push(std::thread::spawn(move || {
            // Several passes: later outputs must not depend on pass count.
            let mut last = None;
            for _ in 0..3 {
                last = Some(replica.forward(&xc, Mode::Eval).unwrap());
            }
            last.unwrap().into_data()
        }));
    }
    let a = handles.pop().unwrap().join().unwrap();
    let b = handles.pop().unwrap().join().unwrap();
    assert_eq!(a, b, "clone eval forwards diverged");
}

#[test]
fn eval_forward_preserves_persistent_state() {
    let mut net = q8_lenet(7);
    let x = input(9, 2);
    let params_before = net.export_params();
    let y1 = net.forward(&x, Mode::Eval).unwrap();
    let y2 = net.forward(&x, Mode::Eval).unwrap();
    // Eval is a pure function of (state, input): repeated calls agree ...
    assert_eq!(y1.data(), y2.data());
    // ... and nothing persistent moved.
    let params_after = net.export_params();
    for ((n1, t1), (n2, t2)) in params_before.iter().zip(&params_after) {
        assert_eq!(n1, n2);
        assert_eq!(t1.data(), t2.data(), "parameter {n1} mutated by eval");
    }
    let q8 = QFormat::for_bitwidth(8).unwrap();
    let formats: Vec<_> = net
        .layers()
        .iter()
        .filter_map(|l| l.activation_format())
        .collect();
    assert_eq!(formats, vec![q8; 5], "activation formats mutated by eval");
}
