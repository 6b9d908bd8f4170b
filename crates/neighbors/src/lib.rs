//! Brute-force k-nearest-neighbors on the sparse distance primitive.
//!
//! The paper's end-to-end benchmark (§4.2) is a brute-force k-NN query —
//! "Each benchmark performs a k-nearest neighbors query to test our
//! primitives end-to-end and allow scaling to datasets where the dense
//! pairwise distance matrix may not otherwise fit in the memory of the
//! GPU" — using RAPIDS cuML's `NearestNeighbors` estimator on top of the
//! distance primitive. [`NearestNeighbors`] is that estimator: fit on an
//! index matrix, query in batches sized to a device-memory budget, select
//! the top-k per query row.
//!
//! # Example
//!
//! ```
//! use gpu_sim::Device;
//! use neighbors::NearestNeighbors;
//! use semiring::Distance;
//! use sparse::CsrMatrix;
//!
//! let index = CsrMatrix::<f32>::from_dense(
//!     3,
//!     4,
//!     &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.9, 0.0, 0.0],
//! );
//! let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(index);
//! let query = CsrMatrix::<f32>::from_dense(1, 4, &[1.0, 0.8, 0.0, 0.0]);
//! let result = nn.kneighbors(&query, 2)?;
//! assert_eq!(result.indices[0][0], 2); // row 2 is closest
//! # Ok::<(), kernels::KernelError>(())
//! ```

#![deny(missing_docs)]

pub mod graph;
pub mod ivf;
pub mod knn;
pub mod multi;
pub mod prepared;

pub use graph::{kneighbors_graph, GraphMode};
pub use ivf::{IvfAnswer, IvfIndex, IvfParams, IvfPrepared, IvfQueryStats};
pub use knn::{KnnResult, NearestNeighbors};
pub use multi::MultiDevice;
pub use prepared::{PreparedShard, PreparedShards};
