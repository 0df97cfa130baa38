//! Noise self-test: `--agree AxB` makes A sets of B untraced runs of each
//! workload, every run in its own process. Run `i` of every set uses seed
//! `--seed + i`, so within a set the spread is taken across seeds (what the
//! acceptance check does) and across sets the same seed must give
//! bit-identical digests and exact counts. Prints Markdown (NOISE.md).

use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{bound_of, END_TO_END, WORKLOADS};
use crate::{host, stats, Args};

/// This executable, asked for one run of one workload.
pub fn child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Command {
    let mut c = Command::new(std::env::current_exe().expect("path of this executable"));
    c.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    c.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        c.arg("--smoke");
    }
    c
}

/// The number after `"<name>": {"value": ` in a result line.
pub fn value_of(result_line: &str, name: &str) -> Option<f64> {
    let rest = result_line
        .split_once(&format!("\"{name}\": {{\"value\": "))?
        .1;
    rest[..rest.find(',')?].parse().ok()
}

/// `"digest":{…},"exact":{…}` of a run line.
fn exact_of(run_line: &str) -> Option<&str> {
    let from = run_line.find("\"digest\":")?;
    Some(&run_line[from..run_line.find(",\"metrics\":")?])
}

struct Run {
    values: Vec<f64>,
    exact: String,
}

fn one_run(workload: &str, seed: u64, a: &Args) -> Result<Run, String> {
    let out = child(workload, seed, a.seconds, false, a.smoke)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    if !out.status.success() || lines.len() < 3 {
        return Err(format!(
            "{workload} seed {seed}: exited with {}",
            out.status
        ));
    }
    let result = lines[lines.len() - 1];
    let values = END_TO_END
        .iter()
        .map(|m| value_of(result, m.name).ok_or(format!("{workload}: no {} in `{result}`", m.name)))
        .collect::<Result<_, _>>()?;
    let exact = exact_of(lines[lines.len() - 2])
        .ok_or(format!("{workload}: no digest line"))?
        .to_string();
    Ok(Run { values, exact })
}

pub fn run(sets: usize, runs: usize, a: &Args) -> ExitCode {
    // The bounds are only worth deriving on the host the benchmark is sized for.
    if host::nproc() < 2 {
        eprintln!(
            "hab: --agree needs at least 2 cores, found {}",
            host::nproc()
        );
        return ExitCode::FAILURE;
    }
    println!("# HAB noise self-test (`run.sh --agree {sets}x{runs}`)\n");
    println!("Host: `{}`\n", host::fingerprint_json(a.seed));
    println!(
        "{sets} sets of {runs} runs per workload, {} s measured per run; run *i* of every set uses seed {} + *i*. \
         `spread` is the inter-quartile distance over the runs of a set as a share of their median \
         (`statistics.quantiles(v, n=4)`); `shift` is how much worse a later set's median is than the first's.\n",
        a.seconds, a.seed
    );
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|only| only == w.name))
    {
        let mut by_set: Vec<Vec<Run>> = Vec::new();
        for _ in 0..sets {
            let set: Result<Vec<Run>, String> = (0..runs)
                .map(|i| one_run(w.name, a.seed + i as u64, a))
                .collect();
            match set {
                Ok(set) => by_set.push(set),
                Err(e) => {
                    eprintln!("hab: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("## {}\n", w.name);
        println!("| metric | bound | set | q1 | median | q3 | spread | shift | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (k, m) in END_TO_END.iter().enumerate() {
            let bound = bound_of(m.name);
            let column = |set: &Vec<Run>| set.iter().map(|r| r.values[k]).collect::<Vec<f64>>();
            let first = stats::median(&column(&by_set[0]));
            for (s, set) in by_set.iter().enumerate() {
                let v = column(set);
                let (q1, med, q3) = stats::quartiles(&v);
                let spread = stats::spread(&v);
                let worse = if m.better == "lower" {
                    med / first - 1.0
                } else {
                    1.0 - med / first
                };
                let verdict = if spread <= bound && worse <= bound {
                    "ok"
                } else {
                    "OUTSIDE"
                };
                ok &= verdict == "ok";
                println!(
                    "| {} [{}] | {:.0} % | {} | {q1:.6} | {med:.6} | {q3:.6} | {:.2} % | {:+.2} % | {verdict} |",
                    m.name,
                    m.unit,
                    bound * 100.0,
                    s + 1,
                    spread * 100.0,
                    worse * 100.0
                );
            }
        }
        let identical =
            (0..runs).all(|i| by_set.iter().all(|set| set[i].exact == by_set[0][i].exact));
        ok &= identical;
        println!(
            "\nDigests and exact counts per seed, across sets: **{}** (seed {}: `{}`)\n",
            if identical { "bit-identical" } else { "DIFFER" },
            a.seed,
            by_set[0][0].exact
        );
    }
    println!(
        "Overall: **{}**",
        if ok {
            "every metric inside its bound"
        } else {
            "OUTSIDE a bound — see above"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_and_run_lines_parse() {
        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "ops_s": {"value": 4711.5, "unit": "1/s"}}}"#;
        assert_eq!(value_of(line, "setup_s"), Some(0.8127));
        assert_eq!(value_of(line, "ops_s"), Some(4711.5));
        assert_eq!(value_of(line, "p50_us"), None);
        let run = r#"{"hab":"run","passes":3,"digest":{"count":5,"sum":9},"exact":{"pairs":4},"metrics":{}}"#;
        assert_eq!(
            exact_of(run),
            Some(r#""digest":{"count":5,"sum":9},"exact":{"pairs":4}"#)
        );
    }
}
