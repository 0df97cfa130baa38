//! One module per regenerated paper artifact. Each splits into a
//! `measure` that returns the artifact's numbers — exact counts next to
//! the wall-clock ones — and a `print` that renders the rows/series the
//! paper reports; `run` is the two in sequence. `tests/paper_shapes.rs`
//! asserts the paper's shapes on the counts `measure` returns, and
//! EXPERIMENTS.md records a captured run next to the paper's numbers.

pub mod fig10;
pub mod fig6;
pub mod fig7_9;
pub mod fig8;
pub mod table3;
pub mod table4;
pub mod table5;
