//! # urcl-models
//!
//! Spatio-temporal prediction backbones for the URCL framework.
//!
//! Every deep model implements [`Backbone`], which enforces the paper's
//! autoencoder decomposition (Section IV-D): an **STEncoder** mapping an
//! input window `[B, M, N, C]` to per-node latent features `[B, N, F]`,
//! and an **STDecoder** mapping those features to predictions `[B, H, N]`.
//! URCL shares the encoder between its prediction head and the STSimSiam
//! network, which is why the split is part of the trait rather than an
//! implementation detail.
//!
//! Models provided (Section V-A2, Table III/IV):
//!
//! | Model | Defining mechanism kept | Simplified away |
//! |---|---|---|
//! | [`GraphWaveNet`] | gated dilated TCN + diffusion GCN + adaptive adjacency, residuals | batch norm, per-layer skip convs (single skip head) |
//! | [`Dcrnn`] | DCGRU encoder (diffusion-conv gates) | recurrent decoder (horizon is 1 in all paper runs) |
//! | [`Stgcn`] | temporal-conv → Cheb-GCN → temporal-conv sandwich | bottleneck channel schedule |
//! | [`Mtgnn`] | learned graph from node embeddings + mix-hop propagation | top-k graph sparsification, inception kernels |
//! | [`Agcrn`] | NAPL (per-node weights from embeddings) + adaptive graph GRU | — |
//! | [`Stgode`] | tensor ODE block integrated over the graph | adaptive ODE solver (fixed-step Euler) |
//! | [`GeoMan`] | temporal + spatial attention levels | encoder-decoder LSTM scaffolding |
//! | [`Arima`] | per-node AR(p) with differencing (statistical, no autodiff) | MA terms |

pub mod agcrn;
pub mod arima;
pub mod backbone;
pub mod dcrnn;
pub mod geoman;
pub mod graphwavenet;
pub mod mtgnn;
pub mod stgcn;
pub mod stgode;

pub use agcrn::Agcrn;
pub use arima::Arima;
pub use backbone::{record_forward, record_mae, Backbone, BackboneConfig};
pub use dcrnn::Dcrnn;
pub use geoman::GeoMan;
pub use graphwavenet::{GraphWaveNet, GwnConfig};
pub use mtgnn::Mtgnn;
pub use stgcn::Stgcn;
pub use stgode::Stgode;
