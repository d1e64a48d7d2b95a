//! Network topology builders.

use advcomp_nn::{Conv2d, Dense, FakeQuant, Flatten, MaxPool2d, Relu, Sequential};
use rand::SeedableRng;

/// Which reference model a [`Sequential`] was built as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// [`lenet5`] on 28×28×1 input.
    LeNet5,
    /// [`cifarnet`] on 32×32×3 input.
    CifarNet,
    /// A small test MLP.
    Mlp,
}

impl ModelKind {
    /// NCHW shape of one input sample.
    pub fn input_shape(&self) -> &'static [usize] {
        match self {
            ModelKind::LeNet5 => &[1, 28, 28],
            ModelKind::CifarNet => &[3, 32, 32],
            ModelKind::Mlp => &[1, 28, 28],
        }
    }
}

fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(1)
}

/// Builds a LeNet5 for 28×28 greyscale input.
///
/// Topology (width 1.0): `conv1` 1→6 5×5 pad 2 → ReLU → maxpool 2 →
/// `conv2` 6→16 5×5 → ReLU → maxpool 2 → `fc1` 400→120 → ReLU →
/// `fc2` 120→84 → ReLU → `fc3` 84→10. `FakeQuant` points sit on the input
/// and after every ReLU so fixed-point quantisation covers all activations.
///
/// # Panics
///
/// Panics if `width <= 0`.
pub fn lenet5(width: f32, seed: u64) -> Sequential {
    assert!(width > 0.0, "width must be positive, got {width}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let c1 = scaled(6, width);
    let c2 = scaled(16, width);
    let f1 = scaled(120, width);
    let f2 = scaled(84, width);
    Sequential::new(vec![
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("conv1", 1, c1, 5, 1, 2, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::with_name("conv2", c1, c2, 5, 1, 0, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("fc1", c2 * 5 * 5, f1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Dense::with_name("fc2", f1, f2, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Dense::with_name("fc3", f2, 10, &mut rng)),
    ])
}

/// Builds a CifarNet-style VGG stack for 32×32 RGB input.
///
/// Topology (width 1.0): two 3×3 conv blocks of 32 channels → pool → one of
/// 64 → pool → one of 64 → pool → `fc1` 1024→256 → `fc2` 256→10, ReLU and a
/// `FakeQuant` point after every convolution/dense activation.
///
/// # Panics
///
/// Panics if `width <= 0`.
pub fn cifarnet(width: f32, seed: u64) -> Sequential {
    assert!(width > 0.0, "width must be positive, got {width}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let c1 = scaled(32, width);
    let c2 = scaled(32, width);
    let c3 = scaled(64, width);
    let c4 = scaled(64, width);
    let f1 = scaled(256, width);
    Sequential::new(vec![
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("conv1", 3, c1, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("conv2", c1, c2, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(MaxPool2d::new(2, 2)), // 32 -> 16
        Box::new(Conv2d::with_name("conv3", c2, c3, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(MaxPool2d::new(2, 2)), // 16 -> 8
        Box::new(Conv2d::with_name("conv4", c3, c4, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(MaxPool2d::new(2, 2)), // 8 -> 4
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("fc1", c4 * 4 * 4, f1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Dense::with_name("fc2", f1, 10, &mut rng)),
    ])
}

/// Builds a small MLP on 28×28 input — a fast stand-in for unit and
/// integration tests that don't need convolutions.
pub fn mlp(hidden: usize, seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(FakeQuant::new()),
        Box::new(Dense::with_name("fc1", 28 * 28, hidden, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Dense::with_name("fc2", hidden, 10, &mut rng)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::Mode;
    use advcomp_tensor::Tensor;

    #[test]
    fn lenet5_forward_shape() {
        let mut m = lenet5(1.0, 0);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = m.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn lenet5_param_count_full_width() {
        let m = lenet5(1.0, 0);
        // conv1: 6·1·25+6, conv2: 16·6·25+16, fc1: 120·400+120,
        // fc2: 84·120+84, fc3: 10·84+10 = 61,706.
        assert_eq!(m.num_params(), 61_706);
    }

    #[test]
    fn cifarnet_forward_shape_and_size() {
        let mut m = cifarnet(0.5, 0);
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        let y = m.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
        let full = cifarnet(1.0, 0);
        assert!(full.num_params() > m.num_params());
        // Full-width CifarNet is in the hundreds of thousands of params.
        assert!(full.num_params() > 300_000, "{}", full.num_params());
    }

    #[test]
    fn width_scales_parameters() {
        let half = lenet5(0.5, 0);
        let full = lenet5(1.0, 0);
        assert!(half.num_params() < full.num_params());
        let mut m = lenet5(0.5, 0);
        let y = m
            .forward(&Tensor::zeros(&[1, 1, 28, 28]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn quantisation_points_present() {
        let mut m = lenet5(1.0, 0);
        let fmt = advcomp_qformat::QFormat::for_bitwidth(8).unwrap();
        let count = m.set_activation_format(Some(fmt));
        assert_eq!(count, 5);
        let mut c = cifarnet(1.0, 0);
        assert_eq!(c.set_activation_format(Some(fmt)), 6);
    }

    #[test]
    fn same_seed_same_weights() {
        let a = lenet5(1.0, 42);
        let b = lenet5(1.0, 42);
        let c = lenet5(1.0, 43);
        assert_eq!(
            a.param("conv1.weight").unwrap().value.data(),
            b.param("conv1.weight").unwrap().value.data()
        );
        assert_ne!(
            a.param("conv1.weight").unwrap().value.data(),
            c.param("conv1.weight").unwrap().value.data()
        );
    }

    #[test]
    fn mlp_works() {
        let mut m = mlp(32, 0);
        let y = m
            .forward(&Tensor::zeros(&[3, 1, 28, 28]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[3, 10]);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        lenet5(0.0, 0);
    }

    #[test]
    fn input_shapes() {
        assert_eq!(ModelKind::LeNet5.input_shape(), &[1, 28, 28]);
        assert_eq!(ModelKind::CifarNet.input_shape(), &[3, 32, 32]);
    }
}
