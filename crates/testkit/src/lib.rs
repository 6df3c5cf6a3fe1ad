//! # hedgex-testkit — zero-dependency test infrastructure
//!
//! The workspace builds fully offline; everything external test tooling
//! used to provide lives here instead:
//!
//! * [`rng`] — deterministic SplitMix64 / xoshiro256\*\* generators with
//!   the `seed_from_u64` / `random_range` / `random_bool` / `choose` API
//!   the hedge and corpus generators need (replaces `rand`);
//! * [`prop`] — a shrinking property-test runner with seed-reproducible
//!   failures (replaces `proptest`): run a failing case again with
//!   `HEDGEX_SEED=<printed seed> cargo test`;
//! * [`json`] — a minimal JSON value/writer/parser (replaces `serde` +
//!   `serde_json`);
//! * [`mod@bench`] — a median-of-N wall-clock bench harness with a
//!   criterion-shaped API (replaces `criterion`).

#![forbid(unsafe_code)]

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;

pub use bench::{Bench, BenchGroup, Bencher, BenchmarkId, Throughput};
pub use json::{FromJson, Json, ToJson};
pub use prop::{forall, zip2, zip3, Config, Gen, TestResult};
pub use rng::{Rng, SplitMix64};
