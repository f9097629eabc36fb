#![warn(missing_docs)]

//! From-scratch CNN inference (and training) substrate for the Fast-BCNN
//! reproduction.
//!
//! The paper evaluates three Bayesian CNNs — B-LeNet-5, B-VGG16 and
//! B-GoogLeNet — on an FPGA accelerator. This crate provides everything
//! those models need *below* the Bayesian machinery:
//!
//! * [`Conv2d`], [`Pool2d`], [`Dense`] and the [`Layer`] dispatch enum;
//! * [`Network`] — a DAG of layers supporting Inception-style branch/concat
//!   topologies;
//! * [`models`] — LeNet-5, VGG16 (CIFAR-sized) and GoogLeNet builders;
//! * [`init`] — deterministic weight generation with calibrated post-ReLU
//!   sparsity (the substitution for trained CIFAR-100 weights, see
//!   DESIGN.md §2);
//! * [`data`] — the SynthDigits procedural dataset;
//! * [`quant`] — symmetric int8 post-training quantization;
//! * [`simd`] — the host's SIMD level, which picks the conv kernel's body;
//! * [`train`] — a small SGD trainer able to actually train LeNet-5.
//!
//! # Examples
//!
//! ```
//! use fbcnn_nn::models;
//! use fbcnn_tensor::Tensor;
//!
//! let net = models::lenet5(7);
//! let input = Tensor::full(net.input_shape(), 0.5);
//! let logits = net.forward(&input);
//! assert_eq!(logits.len(), 10);
//! ```

mod conv;
pub mod data;
mod dense;
mod error;
mod graph;
mod guard;
pub mod init;
mod lanes;
mod layer;
pub mod models;
mod pool;
pub mod quant;
pub mod simd;
mod tile;
pub mod train;
mod workspace;

pub use conv::Conv2d;
pub use dense::Dense;
pub use error::NnError;
pub use graph::{Network, NetworkBuilder, Node, NodeId, Op};
pub use guard::{ActivationGuard, GuardPolicy, NumericFault};
pub use layer::Layer;
pub use pool::{Pool2d, PoolKind};
pub use workspace::Workspace;
