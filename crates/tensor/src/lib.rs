//! 2D feature maps and sliding-window geometry for the ShiDianNao
//! reproduction.
//!
//! CNN layers in the paper operate on "2D arrays of input pixels/neurons"
//! (§3) — *feature maps*. This crate provides:
//!
//! * [`FeatureMap`] — a dense row-major 2D array of neurons,
//! * [`MapStack`] — an ordered collection of same-sized feature maps (the
//!   input or output of a layer),
//! * [`WindowGrid`] — the sliding-window geometry (`Kx × Ky` kernel, `Sx ×
//!   Sy` stride) shared by convolutional, pooling, and normalization layers,
//!
//! all generic over the element type so the same containers serve the
//! `f32` golden model and the 16-bit fixed-point datapath.
//!
//! # Examples
//!
//! ```
//! use shidiannao_tensor::{FeatureMap, WindowGrid};
//!
//! let map = FeatureMap::from_fn(4, 4, |x, y| (x + 10 * y) as i32);
//! assert_eq!(map[(2, 1)], 12);
//!
//! // A 3×3 kernel sliding by 1 over a 4×4 input yields 2×2 outputs.
//! let grid = WindowGrid::new((4, 4), (3, 3), (1, 1)).unwrap();
//! assert_eq!(grid.output_dims(), (2, 2));
//! ```

// Shape mismatches on caller data are typed `ShapeError`s; contract
// violations still use `assert!`/`.expect()`, which these lints do not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod map;
mod stack;
mod window;

pub use map::FeatureMap;
pub use stack::MapStack;
pub use window::{Window, WindowGrid, Windows};

use core::fmt;

/// Error returned when feature-map dimensions are inconsistent with an
/// operation (mismatched sizes, kernels larger than their input, zero-sized
/// shapes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeError {
    message: String,
}

impl ShapeError {
    /// Creates a shape error with a human-readable explanation.
    pub fn new(message: impl Into<String>) -> ShapeError {
        ShapeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_error_displays_message() {
        let e = ShapeError::new("kernel 5x5 exceeds input 3x3");
        assert_eq!(
            e.to_string(),
            "shape mismatch: kernel 5x5 exceeds input 3x3"
        );
    }

    #[test]
    fn shape_error_is_send_sync_error() {
        fn assert_err<T: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ShapeError>();
    }
}
