pub use mbrpa_core::{OnlyReexported};
