//! Concrete layer implementations.

mod conv;
mod dense;
mod fakequant;
mod flatten;
mod pool;
mod relu;

pub use conv::Conv2d;
pub use dense::Dense;
pub use fakequant::FakeQuant;
pub use flatten::Flatten;
pub use pool::MaxPool2d;
pub use relu::Relu;
