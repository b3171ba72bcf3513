//! Time-series analytics for request-count popularity curves.
//!
//! Implements the paper's content-popularity clustering methodology
//! (§IV-B, Figures 8–10):
//!
//! 1. Per-object hourly request-count series are [normalized](normalize).
//! 2. Pairwise similarity is computed with [Dynamic Time Warping](dtw)
//!    (optionally banded for speed). The condensed distance matrix is
//!    filled in parallel — chunked over scoped threads, bit-identical at
//!    every thread count.
//! 3. [Agglomerative hierarchical clustering](hierarchical) over the
//!    [condensed distance matrix](matrix) yields a dendrogram.
//! 4. Each cluster is summarized by its [medoid](mod@medoid) (read off the
//!    matrix) and a point-wise standard-deviation envelope; the cut's
//!    [silhouette](silhouette()) scores how well it separates the trends.
//! 5. Medoids are [labelled](trend) as diurnal / long-lived / short-lived /
//!    flash-crowd / outlier temporal trends.
//!
//! # Example
//!
//! ```
//! use oat_timeseries::{dtw::dtw_distance, normalize::sum_normalize};
//!
//! let a = sum_normalize(&[0.0, 1.0, 2.0, 1.0]).unwrap();
//! let b = sum_normalize(&[0.0, 0.0, 1.0, 2.0]).unwrap();
//! let d = dtw_distance(&a, &b, None);
//! assert!(d >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distance;
pub mod dtw;
pub mod hierarchical;
pub mod matrix;
pub mod medoid;
pub mod normalize;
pub mod silhouette;
pub mod trend;

pub use distance::{pairwise_matrix_with_threads, Metric};
pub use dtw::{dtw_distance, dtw_path};
pub use hierarchical::{Dendrogram, Linkage, Merge};
pub use matrix::CondensedMatrix;
pub use medoid::{cluster_envelope, medoid_index, ClusterEnvelope};
pub use silhouette::silhouette;
pub use trend::{classify_trend, TrendClass, TrendFeatures};
