//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! cargo run --release -p ha-bench --bin experiments -- all
//! cargo run --release -p ha-bench --bin experiments -- table4 fig6
//! HA_SCALE=10 cargo run --release -p ha-bench --bin experiments -- fig9
//! ```
//!
//! `HA_SCALE` multiplies every base dataset size (default 1.0 — laptop
//! scale; the paper's full workloads are roughly `HA_SCALE=10`..`50`
//! depending on the experiment). `--trace <path>` turns HA-Trace on for the whole run and writes the
//! collected spans/events/metrics to `<path>` as JSON lines (see
//! docs/OBSERVABILITY.md).

use ha_bench::{exp, Scale};

const USAGE: &str = "usage: experiments [--trace <path>] [table3|table4|table5|fig6|fig7|fig8|fig9|fig10|all]...

Regenerates the paper's evaluation artifacts (EDBT 2015, Tang et al.):
  table3   H-Search execution trace on the running example
  table4   Hamming-select: query/update time and memory, all methods
  table5   kNN-select vs LSH and LSB-Tree
  fig6     query time vs Hamming threshold
  fig7     MapReduce join: shuffle cost vs data size   (runs with fig9)
  fig8     DHA-Index window/depth parameter study
  fig9     MapReduce join: running time vs data size   (runs with fig7)
  fig10    effect of the preprocessing sample rate
  all      everything above

Options:
  --trace <path>   enable HA-Trace for the run; write spans/events/metrics
                   to <path> as JSON lines

Environment: HA_SCALE=<f64> multiplies dataset sizes (default 1.0).";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!("{USAGE}");
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }

    // Split `--trace <path>` out of the experiment names.
    let mut trace_path: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            match it.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("{arg} needs a path\n\n{USAGE}");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(arg);
        }
    }
    if args.is_empty() {
        eprintln!("no experiments named\n\n{USAGE}");
        std::process::exit(2);
    }
    if trace_path.is_some() {
        ha_obs::enable();
    }

    let scale = Scale::from_env();
    println!(
        "# HA-Index experiment suite (HA_SCALE={}, {} query reps)",
        scale.factor, scale.queries
    );

    let mut ran_fig7_9 = false;
    for arg in &args {
        match arg.as_str() {
            "table3" => exp::table3::run(),
            "table4" => exp::table4::run(&scale),
            "table5" => exp::table5::run(&scale),
            "fig6" => exp::fig6::run(&scale),
            "fig7" | "fig9" => {
                if !ran_fig7_9 {
                    exp::fig7_9::run(&scale);
                    ran_fig7_9 = true;
                }
            }
            "fig8" => exp::fig8::run(&scale),
            "fig10" => exp::fig10::run(&scale),
            "all" => {
                exp::table3::run();
                exp::table4::run(&scale);
                exp::fig6::run(&scale);
                exp::fig8::run(&scale);
                exp::table5::run(&scale);
                if !ran_fig7_9 {
                    exp::fig7_9::run(&scale);
                    ran_fig7_9 = true;
                }
                exp::fig10::run(&scale);
            }
            other => {
                eprintln!("unknown experiment: {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = trace_path {
        use ha_obs::Sink;
        let trace = ha_obs::take_trace();
        let result = std::fs::File::create(&path).and_then(|file| {
            let mut sink = ha_obs::JsonLinesSink::new(std::io::BufWriter::new(file));
            sink.consume(&trace)
        });
        match result {
            Ok(()) => println!(
                "\n# wrote {} span(s), {} event(s) to {path}",
                trace.spans.len(),
                trace.events.len()
            ),
            Err(e) => {
                eprintln!("writing {path} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
