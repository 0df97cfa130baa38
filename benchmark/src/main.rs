//! HAB — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hab --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]   one run, in this process
//! hab [--seed S] [--seconds T] [--trace 0|1] [--smoke]                every workload, one process each
//! hab --agree AxB [--workload W] [--seed S] [--seconds T]             noise self-test (NOISE.md)
//! hab --emit-benchmark-json                                           the contents of BENCHMARK.json
//! ```
//!
//! The last line of a single run's standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! carry the host fingerprint and the within-run spread of every metric.

mod agree;
mod drive;
mod gen;
mod host;
mod layers;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 20_150_323;
/// A run (set-ups + warm-up + passes) is sized to stay under this.
const RUN_BUDGET_S: f64 = 30.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `None`: in all-workloads mode run both the untraced and the traced run.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub corrupt: bool,
    pub agree: Option<(usize, usize)>,
    pub emit: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        corrupt: false,
        agree: None,
        emit: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--agree" => {
                let v = value()?;
                let parsed = v
                    .split_once('x')
                    .and_then(|(s, r)| Some((s.parse().ok()?, r.parse().ok()?)));
                a.agree = Some(
                    parsed
                        .filter(|&(s, r)| s >= 2 && r >= 2)
                        .ok_or(format!("--agree takes SETSxRUNS, not `{v}`"))?,
                );
            }
            "--smoke" => a.smoke = true,
            "--corrupt-digest" => a.corrupt = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !metrics::WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(a)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload in this process and prints its three lines.
fn single(workload: &str, a: &Args) -> ExitCode {
    let started = Instant::now();
    let trace = a.trace.unwrap_or(false);
    println!("{}", host::fingerprint_json(a.seed));
    if host::nproc() < 2 {
        eprintln!(
            "hab: warning: {} core — sized for 2; serve_read's worker and client will share it",
            host::nproc()
        );
    }
    // `run.sh` makes the repository root the working directory.
    let out_dir = "benchmark/out".into();
    let opts = drive::Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace,
        smoke: a.smoke,
        corrupt: a.corrupt,
        out_dir,
    };
    let out = match drive::run(workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hab: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_s = started.elapsed().as_secs_f64();
    if run_s > RUN_BUDGET_S {
        eprintln!("hab: warning: {workload} took {run_s:.1} s, over the {RUN_BUDGET_S} s a run is sized for");
    }
    let unit = |name| metrics::unit_of(name).expect("metric is in the tables");
    let detailed: Vec<String> = (out.metrics.iter())
        .map(|&(name, v, spread)| {
            format!(
                r#""{name}":{{"value":{},"unit":"{}","spread":{}}}"#,
                num(v),
                unit(name),
                num(spread)
            )
        })
        .collect();
    let exact: Vec<String> = out
        .exact
        .iter()
        .map(|(k, v)| format!(r#""{k}":{v}"#))
        .collect();
    println!(
        r#"{{"hab":"run","workload":"{workload}","seed":{},"trace":{},"smoke":{},"positions":{},"passes":{},"pass_ns":{:?},"pass_p50_ns":{:?},"pass_p99_ns":{:?},"setups_s":{:?},"run_s":{},"digest":{{"count":{},"sum":{}}},"exact":{{{}}},"metrics":{{{}}}}}"#,
        a.seed,
        u8::from(trace),
        a.smoke,
        out.positions,
        out.passes.wall_ns.len(),
        out.passes.wall_ns,
        out.passes.p50_ns,
        out.passes.p99_ns,
        out.setups_s,
        num(run_s),
        out.digest.count,
        out.digest.sum,
        exact.join(","),
        detailed.join(",")
    );
    let plain: Vec<String> = (out.metrics.iter())
        .map(|&(name, v, _)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{}"}}"#,
                num(v),
                unit(name)
            )
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        plain.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "hab: {workload}: {} of {} checks failed (fail_ratio {})",
            out.failed,
            out.attempted,
            out.failed as f64 / out.attempted.max(1) as f64
        );
        ExitCode::FAILURE
    }
}

/// Every workload, each run in its own process so `VmHWM` and allocator
/// state are the workload's own.
fn all(a: &Args) -> ExitCode {
    let mut ok = true;
    for w in &metrics::WORKLOADS {
        for trace in a.trace.map_or(vec![false, true], |t| vec![t]) {
            match agree::child(w.name, a.seed, a.seconds, trace, a.smoke).status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!(
                        "hab: {} (trace {}) exited with {status}",
                        w.name,
                        u8::from(trace)
                    );
                    ok = false;
                }
                Err(e) => {
                    eprintln!("hab: cannot start {}: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hab: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((sets, runs)) = args.agree {
        return agree::run(sets, runs, &args);
    }
    match &args.workload {
        Some(w) => single(w, &args),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool, corrupt: bool) -> drive::Outcome {
        let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out").into();
        let opts = drive::Opts {
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
            corrupt,
            out_dir,
        };
        drive::run(workload, &opts).expect("smoke run")
    }

    /// Smoke run of all five workloads, untraced and traced: answers are
    /// right and every named metric is there, finite, with its unit.
    #[test]
    fn smoke_runs_report_every_named_metric() {
        for w in &metrics::WORKLOADS {
            for (trace, table) in [
                (false, &metrics::END_TO_END[..]),
                (true, &metrics::PER_LAYER[..]),
            ] {
                let out = smoke(w.name, trace, false);
                assert_eq!(out.failed, 0, "{} trace={trace}", w.name);
                assert!(out.attempted >= 1 && out.digest.count > 0, "{}", w.name);
                let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
                assert_eq!(
                    names,
                    table.iter().map(|m| m.name).collect::<Vec<_>>(),
                    "{}",
                    w.name
                );
                for (name, v, _) in &out.metrics {
                    assert!(
                        v.is_finite() && metrics::unit_of(name).is_some(),
                        "{}: {name} = {v}",
                        w.name
                    );
                    assert!(
                        trace || *v > 0.0,
                        "{}: end-to-end {name} must never be 0",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_same_digest_and_a_corrupted_digest_fails_the_run() {
        let a = smoke("select_sparse", false, false);
        let b = smoke("select_sparse", false, false);
        assert_eq!((a.digest, &a.exact), (b.digest, &b.exact));
        assert!(smoke("select_sparse", false, true).failed > 0);
        assert!(smoke("mr_join", false, true).failed > 0);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse(argv("--workload mr_join --seed 5 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("mr_join"), 5, 3.0, Some(true))
        );
        assert_eq!(parse(argv("--agree 2x5")).unwrap().agree, Some((2, 5)));
        assert!(parse(argv("--workload nope")).is_err());
        assert!(parse(argv("--trace 2")).is_err());
        assert!(parse(argv("--agree 1x5")).is_err());
    }
}
