//! Branch prediction for the R3-DLA simulator: direction predictors
//! (bimodal, gshare and a TAGE-style tagged predictor standing in for the
//! paper's TAGE SC-L), a branch target buffer, and a return address stack.
//!
//! # Examples
//!
//! ```
//! use r3dla_bpred::{DirectionPredictor, Tage};
//! let mut p = Tage::paper();
//! // A strongly biased branch becomes predictable after warmup.
//! for _ in 0..64 {
//!     let pred = p.predict(0x4000);
//!     p.update(0x4000, true, pred);
//! }
//! assert!(p.predict(0x4000));
//! ```

mod btb;
mod dir;
mod ras;

pub use btb::{Btb, BtbConfig};
pub use dir::{Bimodal, DirectionPredictor, Gshare, Tage};
pub use ras::{Ras, RasCheckpoint};
