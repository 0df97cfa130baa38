//! Host fingerprint, printed with every run so a slow neighbour or a
//! different machine shows as a fingerprint change, not as a regression.

use std::hint::black_box;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such field).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed pure-ALU loop (no memory traffic), best of three, in ms.
pub fn calibration_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20_000_000u32 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPU feature flags the distance kernels care about.
const FLAGS: [&str; 9] = [
    "popcnt",
    "sse4_2",
    "avx",
    "avx2",
    "bmi1",
    "bmi2",
    "avx512f",
    "avx512bw",
    "avx512_vpopcntdq",
];

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| {
            if c == '"' || c == '\\' {
                vec!['\\', c]
            } else {
                vec![c]
            }
        })
        .collect()
}

/// `rustc` and `git_sha` come from `run.sh` through the environment (the
/// driver's checkout is not a git repository: `none` there).
pub fn fingerprint_json(seed: u64) -> String {
    let flags = proc_field("/proc/cpuinfo", "flags").unwrap_or_default();
    let have: Vec<&str> = FLAGS
        .into_iter()
        .filter(|f| flags.split(' ').any(|x| x == *f))
        .collect();
    let env = |k: &str| escape(&std::env::var(k).unwrap_or_else(|_| "unknown".to_string()));
    format!(
        r#"{{"hab":"host","nproc":{},"cpu":"{}","flags":"{}","kernel":"{}","rustc":"{}","git_sha":"{}","seed":{},"calibration_ms":{}}}"#,
        nproc(),
        escape(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string())),
        have.join(" "),
        crate::layers::kernel_name(),
        env("HAB_RUSTC"),
        env("HAB_GIT_SHA"),
        seed,
        calibration_ms()
    )
}
