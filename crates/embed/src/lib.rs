//! FastText-style embeddings.
//!
//! The paper uses FastText both as RCACopilot's embedding model (§4.2.1,
//! chosen for efficiency and insensitivity to input length) and as a
//! classification baseline (Table 2). This crate implements the
//! supervised FastText architecture from scratch:
//!
//! - a hashed bag of character n-grams + word (bi)grams as input features
//!   ([`features`]),
//! - an averaged input-embedding layer and a linear softmax output layer
//!   trained with SGD ([`model::FastTextModel`]), and
//! - the document embedding = the averaged input embedding (the hidden
//!   state), which feeds the retrieval stage (`rcacopilot_core::retrieval`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod model;

pub use features::FeatureExtractor;
pub use model::{FastTextConfig, FastTextModel};
