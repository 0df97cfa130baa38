//! The timing protocol, the same for every workload.
//!
//! Untraced run (end-to-end metrics): set-up, one untimed warm-up pass
//! whose sampled answers are checked against the oracle, then the
//! workload's fixed number of timed passes replaying the identical
//! sequence, `VmHWM`, then the checks that tear the system down, then the
//! remaining set-ups (construct → drop, inputs cloned outside the timed
//! region) for `setup_s` only. `--seconds` is a cap, not a target: once
//! that much has been measured (and at least three passes) no further pass
//! starts, so a slow host shortens the run instead of overrunning it.
//!
//! One rule turns the replays into numbers: every timing is the fastest of
//! a fixed number of whole replays. Each pass yields its wall-clock and the
//! p50 / p99 of its own submit → reply latencies; `ops_s` comes from the
//! fastest pass, `p50_us` is the lowest per-pass p50, `setup_s` the fastest
//! set-up — each the value of a replay that ran, over a fixed amount of
//! work. Fastest, not median: on the shared reference host interference
//! only ever adds time, in bursts from milliseconds to a minute (the same
//! pass 0.85 s and 1.15 s within one run), and the medians of ten runs
//! spread twice as far as their minima (`NOISE.md`). Passes are kept short
//! and many for the same reason: a 0.3 s pass finds a quiet window where
//! a 3 s pass does not. The run line carries every per-pass value and the
//! within-run inter-quartile spread of each metric.
//!
//! Traced run (per-layer metrics): one set-up, the warm-up, three untraced
//! and three traced passes alternating, one pass with the program's own
//! `ha_obs` hooks on, then the probe sections.

use std::time::Instant;

use crate::host;
use crate::layers as l;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Values};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    Digest, LayerCtx, MrJoin, Scale, Select, ServeMixed, ServeRead, Timeline, Workload,
};

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Flip one bit of the expected digest: the correctness gate must trip.
    pub corrupt: bool,
    /// Where a traced run writes `<workload>.spans.jsonl`.
    pub out_dir: std::path::PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub positions: usize,
    pub digest: Digest,
    pub exact: Vec<(&'static str, u64)>,
    /// The untraced timed passes and the set-ups, as measured.
    pub passes: Passes,
    pub setups_s: Vec<f64>,
    /// `(name, value, within-run inter-quartile spread as a share)`, in
    /// table order: every end-to-end metric, or every per-layer metric.
    pub metrics: Vec<(&'static str, f64, f64)>,
}

/// A run never measures fewer passes than this, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Benchmark self time above this share of a traced pass fails the run:
/// the layer numbers would no longer explain the pass.
const MAX_SELF_SHARE: f64 = 0.05;

pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let scale = Scale { smoke: opts.smoke };
    match workload {
        "select_dense" => drive(&Select::dense(opts.seed, scale), opts),
        "select_sparse" => drive(&Select::sparse(opts.seed, scale), opts),
        "serve_read" => drive(&ServeRead::new(opts.seed, scale), opts),
        "serve_mixed" => drive(&ServeMixed::new(opts.seed, scale), opts),
        "mr_join" => drive(&MrJoin::new(opts.seed, scale), opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Per timed pass: wall-clock and the percentiles of its own latencies, ns.
#[derive(Default)]
pub struct Passes {
    pub wall_ns: Vec<f64>,
    pub p50_ns: Vec<f64>,
    pub p99_ns: Vec<f64>,
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn drive<W: Workload>(w: &W, opts: &Opts) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    tr.on = opts.trace;
    let n = w.positions();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Inputs are cloned outside the timed region of a set-up.
    let timed_setup = |tr: &mut Tracer| -> Result<(W::Sys, f64), String> {
        let staged = w.stage();
        let t = Instant::now();
        let sys = w.setup(tr, staged)?;
        Ok((sys, t.elapsed().as_secs_f64()))
    };
    let (mut sys, first_setup_s) = timed_setup(&mut tr)?;

    tr.on = false;
    let mut tl = Timeline::start(n);
    let warm = w.pass(&mut sys, &mut tr, &mut tl, true);
    attempted += n as u64;
    failed += warm.failed;
    let mut expected = warm.digest;
    if opts.corrupt {
        expected.sum ^= 1;
    }

    // One timed pass; `record` keeps its numbers for the end-to-end metrics.
    let requests: Vec<usize> = (0..n).filter(|&pos| w.timed(pos)).collect();
    let mut passes = Passes::default();
    let mut timed_pass = |sys: &mut W::Sys, tr: &mut Tracer, record: bool| -> f64 {
        let mut tl = Timeline::start(n);
        let out = w.pass(sys, tr, &mut tl, false);
        let wall = tl.elapsed_ns() as f64;
        attempted += n as u64;
        failed += out.failed + u64::from(out.digest != expected);
        if record {
            let lat: Vec<f64> = requests.iter().map(|&pos| tl.lat[pos] as f64).collect();
            let lat = stats::sorted(&lat);
            passes.wall_ns.push(wall);
            passes.p50_ns.push(stats::percentile(&lat, 50.0));
            passes.p99_ns.push(stats::percentile(&lat, 99.0));
        }
        wall
    };

    let mut values = Values::new();
    let mut peak_rss_mb = 0.0;
    if opts.trace {
        w.mark(&mut sys);
        let (mut traced_ns, mut traced_layer_ns) = (Vec::new(), 0u64);
        for _ in 0..if opts.smoke { 1 } else { 3 } {
            timed_pass(&mut sys, &mut tr, true);
            tr.on = true;
            let from = tr.spans.len();
            traced_ns.push(timed_pass(&mut sys, &mut tr, false));
            tr.on = false;
            traced_layer_ns += tr.layer_ns(from, tr.spans.len());
        }
        l::obs_on();
        let obs_ns = timed_pass(&mut sys, &mut tr, false);
        l::obs_off();

        let traced_total: f64 = traced_ns.iter().sum();
        probes::span_layers(&tr, (n * traced_ns.len()) as f64, traced_total, &mut values);
        let self_share = 1.0 - traced_layer_ns as f64 / traced_total;
        values.insert("bench.self_share", self_share);
        // Smoke ops are too short for the limit to mean anything.
        if self_share > MAX_SELF_SHARE && !opts.smoke {
            eprintln!(
                "hab: benchmark self time is {:.1} % of the traced pass (limit 5 %)",
                self_share * 100.0
            );
            failed += 1;
        }
        let untraced = stats::median(&passes.wall_ns);
        values.insert("bench.trace_overhead", stats::median(&traced_ns) / untraced);
        values.insert("obs.on_slowdown", obs_ns / untraced);
    } else {
        let started = Instant::now();
        for done in 0..if opts.smoke { 1 } else { w.passes() } {
            if done >= MIN_PASSES && started.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
            timed_pass(&mut sys, &mut tr, true);
        }
        peak_rss_mb = host::peak_rss_mb();
    }
    let pass_ns = fastest(&passes.wall_ns);
    let p50_us = fastest(&passes.p50_ns) / 1e3;

    let exact = w.exact(&sys, attempted / n as u64);
    let mut setups_s = vec![first_setup_s];
    let metrics = if opts.trace {
        // The tail moved 20-30 % between runs of the same seed: too noisy to
        // gate on, so it is a per-layer number (one job a pass has no tail).
        if n > 1 {
            values.insert("client.p99_us", fastest(&passes.p99_ns) / 1e3);
        }
        let ctx = LayerCtx {
            passes: passes.wall_ns.len() * 2 + 1,
            client_p50_us: p50_us,
        };
        w.layer_values(&mut sys, &ctx, &mut values);
        probes::bitcode_layers(&mut values);
        tr.on = true;
        let fin = w.finish(sys, &mut tr);
        attempted += fin.attempted;
        failed += fin.failed;
        values.extend(fin.values);
        std::fs::create_dir_all(&opts.out_dir)
            .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
        let path = opts.out_dir.join(format!("{}.spans.jsonl", w.name()));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        layer_metrics(w, &values, &mut failed)
    } else {
        let fin = w.finish(sys, &mut tr);
        attempted += fin.attempted;
        failed += fin.failed;
        // The further set-ups (construct → drop) only time construction.
        for _ in 1..if opts.smoke { 1 } else { w.setups() } {
            setups_s.push(timed_setup(&mut tr)?.1);
        }
        let measured = [
            ("setup_s", fastest(&setups_s), stats::spread(&setups_s)),
            (
                "ops_s",
                w.work() * 1e9 / pass_ns,
                stats::spread(&passes.wall_ns),
            ),
            ("p50_us", p50_us, stats::spread(&passes.p50_ns)),
            ("peak_rss_mb", peak_rss_mb, 0.0),
        ];
        END_TO_END
            .iter()
            .map(|m| {
                *measured
                    .iter()
                    .find(|(name, ..)| *name == m.name)
                    .expect("every end-to-end metric is measured")
            })
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        positions: n,
        digest: warm.digest,
        exact,
        passes,
        setups_s,
        metrics,
    })
}

/// Every per-layer metric, in table order. A layer the workload declares
/// idle reports 0; a value missing anywhere else means a probe bailed out,
/// and fails the run instead of passing for an idle layer.
fn layer_metrics<W: Workload>(
    w: &W,
    values: &Values,
    failed: &mut u64,
) -> Vec<(&'static str, f64, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied().unwrap_or_else(|| {
                if !w.idle().iter().any(|prefix| m.name.starts_with(prefix)) {
                    eprintln!("hab: {}: no value for {}", w.name(), m.name);
                    *failed += 1;
                }
                0.0
            });
            (m.name, value, 0.0)
        })
        .collect()
}
