//! `bgw-fft`: complex fast Fourier transforms.
//!
//! The substrate behind the MTXEL kernel of the GW workflow (paper Sec. 5.2):
//! plane-wave matrix elements `M_mn^G` are produced by scattering
//! wavefunction coefficients onto an FFT box, transforming to real space,
//! forming pointwise products, and transforming back. Provides one batched
//! mixed-radix Cooley-Tukey kernel for 5-smooth sizes (every grid is sized
//! by [`good_size`]) and a 3-D plan for row-major grids.

#![warn(missing_docs)]

pub mod fft3;
pub mod plan;

pub use fft3::{Fft3d, FftScratch};
pub use plan::{cached_plan, dft_reference, good_size, Direction, FftPlan, LINE_BATCH};
