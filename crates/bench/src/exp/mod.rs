//! One module per regenerated paper artifact. Each `run` prints the same
//! rows/series the paper reports; EXPERIMENTS.md records a captured run
//! next to the paper's numbers.

pub mod fig10;
pub mod fig6;
pub mod fig7_9;
pub mod fig8;
pub mod flat;
pub mod kernels;
pub mod planner;
pub mod serve;
pub mod store;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod trace;
