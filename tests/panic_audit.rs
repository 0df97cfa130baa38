//! Panic audit: the fault-tolerance layers (`ha-mapreduce`,
//! `ha-distributed`) and the online serving layer (`ha-service`) promise
//! typed errors, not panics. Every `try_*` entry point must be
//! panic-free, and it is the only entry point for its operation: no
//! panicking twin `X` sits beside a `try_X` (the one exception is
//! `InMemoryDfs::put_with_blocks`, which the benchmark harness calls).
//! The only panics allowed in library code are that wrapper, the fault
//! injector's *deliberate* injected panic, and a handful of
//! proven-unreachable invariants.
//!
//! This test walks the crates' non-test library source and holds the
//! count of panic-capable call sites to an explicit per-file budget. A
//! new `.unwrap()` / `.expect(` / `panic!(` / `unreachable!(` in lib code
//! fails the audit until it is either converted to a typed error or
//! consciously added to the budget below.
//!
//! The observability layer (`ha-obs`) is held to the same zero budget as
//! the serving layer: instrumentation runs inside *every* other
//! subsystem, so a panic there would convert any traced operation into
//! a crash. Lock poisoning is absorbed with
//! `unwrap_or_else(PoisonError::into_inner)` throughout.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Per-file budget of panic-capable call sites in non-test library code:
/// `(file, unwrap, expect, panic, unreachable)`.
///
/// Every entry is a documented exception:
/// - `dfs.rs`: `put_with_blocks`'s `panic!("{e}")` over
///   `try_put_with_blocks` — the one panicking twin (see
///   `no_panicking_twin_beside_a_try_fn`);
/// - `job.rs`: the injector's intentional `panic!("injected panic …")`
///   and the supervisor-thread `join` `expect` (supervisors catch every
///   task panic);
/// - `metrics.rs` / `pgbj.rs`: `expect("non-empty")` guarded by an
///   explicit emptiness check in the caller;
/// - `join.rs` / `pipeline.rs`: `unreachable!` on enum states resolved
///   immediately above;
/// - `crates/service/src/*`: zero across the board — the serving layer is
///   long-lived and multi-threaded, so *every* failure must be a typed
///   [`ServiceError`]; lock poisoning is absorbed with
///   `unwrap_or_else(PoisonError::into_inner)` rather than unwrapped. The
///   single exception is `service.rs`'s one `panic!`: the merge fault
///   injector's *deliberate* injected panic (the same sanctioned pattern
///   as `job.rs`), which exists precisely to prove the merge worker's
///   `catch_unwind` containment works.
const BUDGET: &[(&str, usize, usize, usize, usize)] = &[
    ("crates/mapreduce/src/cache.rs", 0, 0, 0, 0),
    ("crates/mapreduce/src/checksum.rs", 0, 0, 0, 0),
    ("crates/mapreduce/src/dfs.rs", 0, 0, 1, 0),
    ("crates/mapreduce/src/fault.rs", 0, 0, 0, 0),
    ("crates/mapreduce/src/job.rs", 0, 1, 1, 0),
    ("crates/mapreduce/src/lib.rs", 0, 0, 0, 0),
    ("crates/mapreduce/src/metrics.rs", 0, 1, 0, 0),
    ("crates/mapreduce/src/shuffle.rs", 0, 0, 0, 0),
    ("crates/mapreduce/src/storage_fault.rs", 0, 0, 0, 0),
    ("crates/mapreduce/src/wal.rs", 0, 0, 0, 0),
    ("crates/distributed/src/batch_select.rs", 0, 0, 0, 0),
    ("crates/distributed/src/global_index.rs", 0, 0, 0, 0),
    ("crates/distributed/src/join.rs", 0, 0, 0, 1),
    ("crates/distributed/src/knn_join.rs", 0, 0, 0, 0),
    ("crates/distributed/src/lib.rs", 0, 0, 0, 0),
    ("crates/distributed/src/pgbj.rs", 0, 1, 0, 0),
    ("crates/distributed/src/pipeline.rs", 0, 0, 0, 1),
    ("crates/distributed/src/pivot.rs", 0, 0, 0, 0),
    ("crates/distributed/src/pmh.rs", 0, 0, 0, 0),
    ("crates/distributed/src/preprocess.rs", 0, 0, 0, 0),
    ("crates/service/src/cache.rs", 0, 0, 0, 0),
    ("crates/service/src/error.rs", 0, 0, 0, 0),
    ("crates/service/src/fault.rs", 0, 0, 0, 0),
    ("crates/service/src/lib.rs", 0, 0, 0, 0),
    ("crates/service/src/metrics.rs", 0, 0, 0, 0),
    // One panic: the merge fault injector's deliberate PanicMidMerge
    // (see the doc header) — contained by the worker's catch_unwind.
    ("crates/service/src/service.rs", 0, 0, 1, 0),
    // The frozen search snapshot sits on the hot path of every layer
    // above it (serve shards, the distributed join, HAB's select workloads),
    // so it is held to the same zero budget as the serving layer.
    ("crates/core/src/dynamic/flat.rs", 0, 0, 0, 0),
    // The MIH backend and the query planner route every serve-shard and
    // distributed-join probe — same hot-path argument, same zero budget.
    ("crates/core/src/mih.rs", 0, 0, 0, 0),
    ("crates/core/src/planner.rs", 0, 0, 0, 0),
    // The huge-page advice runs inside every snapshot compile.
    ("crates/core/src/pages.rs", 0, 0, 0, 0),
    // …as are the seen-set every MIH probe de-duplicates through and
    // `mix64`, which slots chunk values in MIH's hashed bucket directories.
    ("crates/core/src/seen.rs", 0, 0, 0, 0),
    ("crates/bitcode/src/mix.rs", 0, 0, 0, 0),
    // PMH's reducers build the segment-signature index inside a MapReduce
    // task, where a panic burns a task attempt.
    ("crates/core/src/segment_index.rs", 0, 0, 0, 0),
    // H-Build runs inside every HA-Gen `merge_shard`, where a panic
    // poisons the shard once its retries are spent.
    ("crates/core/src/dynamic/build.rs", 0, 0, 0, 0),
    // …and the Gray rank it sorts by runs once per tuple of that build.
    ("crates/bitcode/src/gray.rs", 0, 0, 0, 0),
    // The delta overlay sits on the same serve-shard hot path.
    ("crates/core/src/delta.rs", 0, 0, 0, 0),
    // HA-Store parses attacker-grade input (arbitrary bytes from disk or
    // the DFS): *every* file is zero-budget. Corruption must surface as
    // a typed `StoreError`, never a panic — the corruption suite fuzzes
    // exactly this promise. The one `unsafe` region (mmap + aligned
    // reinterpret casts in buf.rs) is documented at the module head.
    // HA-Kern is the innermost loop of every frozen search — every
    // group sweep of every query on every layer runs through it — so it
    // carries the same zero budget as the serving hot path. Shape
    // violations are `assert_eq!` contract checks at the dispatch
    // boundary, not panic-capable escape hatches in kernel bodies.
    ("crates/bitcode/src/kernels.rs", 0, 0, 0, 0),
    // The work-stealing pool carries every parallel fan-out (serve shard
    // probes, parallel build): held to the serving layer's zero budget.
    ("crates/bitcode/src/pool.rs", 0, 0, 0, 0),
    ("crates/store/src/buf.rs", 0, 0, 0, 0),
    ("crates/store/src/error.rs", 0, 0, 0, 0),
    ("crates/store/src/layout.rs", 0, 0, 0, 0),
    ("crates/store/src/lib.rs", 0, 0, 0, 0),
    ("crates/store/src/store.rs", 0, 0, 0, 0),
    ("crates/store/src/view.rs", 0, 0, 0, 0),
    ("crates/store/src/write.rs", 0, 0, 0, 0),
    // ha-hashing encodes every tuple inside every map task of the
    // distributed join, and a mapper panic burns a task attempt: the
    // encoder is held to the hot path's zero budget (its `assert!`s are
    // construction-time shape contracts, as in HA-Kern).
    ("crates/hashing/src/lib.rs", 0, 0, 0, 0),
    ("crates/hashing/src/matrix.rs", 0, 0, 0, 0),
    ("crates/hashing/src/pca.rs", 0, 0, 0, 0),
    ("crates/hashing/src/project.rs", 0, 0, 0, 0),
    ("crates/hashing/src/randn.rs", 0, 0, 0, 0),
    ("crates/hashing/src/simhash.rs", 0, 0, 0, 0),
    ("crates/hashing/src/spectral.rs", 0, 0, 0, 0),
    ("crates/obs/src/event.rs", 0, 0, 0, 0),
    ("crates/obs/src/json.rs", 0, 0, 0, 0),
    ("crates/obs/src/lib.rs", 0, 0, 0, 0),
    ("crates/obs/src/registry.rs", 0, 0, 0, 0),
    ("crates/obs/src/sink.rs", 0, 0, 0, 0),
    ("crates/obs/src/span.rs", 0, 0, 0, 0),
];

/// Non-test library source: everything before the first `#[cfg(test)]`,
/// with line comments stripped (doc examples stay — they are API surface
/// and must not teach panicking patterns either... but they live in `//!`
/// and `///` comments, which we strip too).
fn lib_code(path: &Path) -> String {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    src.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .map(|l| match l.find("//") {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    files_with_ext(dir, "rs", out);
}

fn files_with_ext(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir exists") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files_with_ext(&path, ext, out);
        } else if path.extension().is_some_and(|x| x == ext) {
            out.push(path);
        }
    }
}

#[test]
fn lib_code_stays_within_its_panic_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let budget: BTreeMap<&str, (usize, usize, usize, usize)> = BUDGET
        .iter()
        .map(|&(f, u, e, p, r)| (f, (u, e, p, r)))
        .collect();

    // The budget must cover every lib file — a brand-new source file
    // cannot dodge the audit by not being listed.
    for dir in [
        "crates/mapreduce/src",
        "crates/distributed/src",
        "crates/service/src",
        "crates/store/src",
        "crates/obs/src",
        "crates/hashing/src",
    ] {
        let mut found = Vec::new();
        for entry in fs::read_dir(root.join(dir)).expect("source dir exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "rs") {
                found.push(format!(
                    "{dir}/{}",
                    path.file_name().expect("file name").to_string_lossy()
                ));
            }
        }
        for f in &found {
            assert!(
                budget.contains_key(f.as_str()),
                "{f} is not covered by the panic audit budget — add it"
            );
        }
    }

    for (file, &(unwraps, expects, panics, unreachables)) in &budget {
        let code = lib_code(&root.join(file));
        let got = (
            count(&code, ".unwrap()"),
            count(&code, ".expect("),
            count(&code, "panic!("),
            count(&code, "unreachable!("),
        );
        assert_eq!(
            got,
            (unwraps, expects, panics, unreachables),
            "{file}: panic-capable call sites (unwrap, expect, panic!, \
             unreachable!) drifted from the documented budget — convert \
             new sites to typed errors or update the audit"
        );
    }
}

/// One entry point per operation in the MapReduce stack: no source file
/// of `ha-mapreduce` or `ha-distributed` declares a `pub fn X` beside a
/// `pub fn try_X`. `put_with_blocks` is the one named exception.
#[test]
fn no_panicking_twin_beside_a_try_fn() {
    const EXCEPTIONS: &[&str] = &["put_with_blocks"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut twins, mut try_fns) = (Vec::new(), 0);
    for dir in ["crates/mapreduce/src", "crates/distributed/src"] {
        for entry in fs::read_dir(root.join(dir)).expect("source dir exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|x| x != "rs") {
                continue;
            }
            let src = fs::read_to_string(&path).expect("read source");
            let names: Vec<String> = src
                .split("pub fn ")
                .skip(1)
                .map(|rest| {
                    rest.chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect()
                })
                .collect();
            for plain in names.iter().filter_map(|n| n.strip_prefix("try_")) {
                try_fns += 1;
                if names.iter().any(|n| n == plain) && !EXCEPTIONS.contains(&plain) {
                    twins.push(format!("{}: {plain}", path.display()));
                }
            }
        }
    }
    assert!(try_fns > 0, "the scan found no try_* functions");
    assert!(
        twins.is_empty(),
        "panicking twins of try_* functions: {twins:?} — callers use the try_* \
         form with `?` or one `expect` at the call site"
    );
}

/// One search per query, one search per backend: no `pub fn batch_…`
/// (a batch is answered query by query) and no `pub fn …_arena` twin
/// that forces the arena BFS (the planner's arena never holds a current
/// snapshot) in `ha-core` or `ha-store`.
#[test]
fn no_batch_or_arena_twin_in_the_search_surface() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut files, mut found, mut pub_fns) = (Vec::new(), Vec::new(), 0);
    for dir in ["crates/core/src", "crates/store/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    for path in &files {
        let code = lib_code(path);
        for rest in code.split("pub fn ").skip(1) {
            pub_fns += 1;
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if name.starts_with("batch_") || name.ends_with("_arena") {
                found.push(format!("{}: {name}", path.display()));
            }
        }
    }
    assert!(pub_fns > 0, "the scan found no pub fns");
    assert!(
        found.is_empty(),
        "batch or arena-forcing search twins: {found:?} — answer a batch query by \
         query, and reach the arena through `PlannedIndex::dha()`"
    );
}

/// A public surface that callers use: every `pub fn` (also `const` /
/// `unsafe`) in a first-party crate's library source, outside test
/// modules, is named as a whole word somewhere outside that crate —
/// another crate's `src/`, the root package's `src/`, an integration test
/// (`tests/`, `crates/*/tests/`), a bin target (`crates/*/src/bin/`),
/// `examples/`, HAB's `benchmark/src/`, README.md or `docs/`. A function
/// only its own crate calls is `pub(crate)` or private; one only its own
/// unit tests call lives under `#[cfg(test)]`. This file is not a caller.
#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    /// `(crate directory, function, why it stays public)`.
    const EXCEPTIONS: &[(&str, &str, &str)] = &[(
        "service",
        "submit_select_with_deadline",
        "the deadline half of the serving contract (DESIGN.md) and the only \
         producer of `ServeMetrics::deadline_shed`, which HAB reports",
    )];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates dir exists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();

    // Every caller file with the crate that owns it (`None`: outside
    // every crate), and every library file with its crate.
    let mut callers: Vec<(PathBuf, Option<&str>)> = Vec::new();
    let mut libs: Vec<(PathBuf, &str)> = Vec::new();
    for name in &crates {
        let mut files = Vec::new();
        rs_files(&root.join("crates").join(name).join("src"), &mut files);
        for f in files {
            if f.components().any(|c| c.as_os_str() == "bin") {
                callers.push((f, None));
            } else {
                libs.push((f.clone(), name));
                callers.push((f, Some(name)));
            }
        }
        let tests = root.join("crates").join(name).join("tests");
        if tests.is_dir() {
            let mut files = Vec::new();
            rs_files(&tests, &mut files);
            callers.extend(files.into_iter().map(|f| (f, None)));
        }
    }
    let mut outside = vec![root.join("README.md")];
    files_with_ext(&root.join("docs"), "md", &mut outside);
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        rs_files(&root.join(dir), &mut outside);
    }
    callers.extend(outside.into_iter().map(|f| (f, None)));
    callers.retain(|(f, _)| !f.ends_with("tests/panic_audit.rs"));

    // Each whole word of the caller files, with the crates that name it.
    let mut owners: HashMap<String, BTreeSet<Option<&str>>> = HashMap::new();
    for (file, owner) in &callers {
        let text = fs::read_to_string(file).expect("read caller");
        for word in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if !word.is_empty() {
                owners.entry(word.to_string()).or_default().insert(*owner);
            }
        }
    }

    let (mut uncalled, mut excepted, mut pub_fns) = (Vec::new(), BTreeSet::new(), 0);
    for (path, name) in &libs {
        let code = lib_code(path);
        let decls = ["pub fn ", "pub const fn ", "pub unsafe fn "]
            .iter()
            .flat_map(|d| code.split(d).skip(1));
        for rest in decls {
            pub_fns += 1;
            let f: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            let called = owners
                .get(&f)
                .is_some_and(|o| o.iter().any(|owner| owner != &Some(*name)));
            if called {
                continue;
            }
            match EXCEPTIONS.iter().find(|&&(c, e, _)| c == *name && e == f) {
                Some(&(c, e, _)) => {
                    excepted.insert((c, e));
                }
                None => {
                    let file = path.strip_prefix(root).unwrap_or(path);
                    uncalled.push(format!("{}: {f}", file.display()));
                }
            }
        }
    }
    assert!(pub_fns > 100, "the scan found only {pub_fns} pub fns");
    assert!(
        uncalled.is_empty(),
        "pub fns no file outside their crate names: {uncalled:#?} — make each \
         `pub(crate)` (or private), move a test-only one under `#[cfg(test)]`, \
         delete an unused one, or add an exception with its reason"
    );
    let stale: Vec<_> = EXCEPTIONS
        .iter()
        .filter(|&&(c, e, _)| !excepted.contains(&(c, e)))
        .collect();
    assert!(stale.is_empty(), "exceptions no longer needed: {stale:?}");
}

/// `unsafe` in ha-hashing is one call: the projection kernel's jump into
/// its AVX2 instantiation, behind a `// SAFETY:` comment that names the
/// cached feature probe it relies on (`Kernel::detect`).
#[test]
fn hashing_unsafe_is_the_one_dispatch_call() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/hashing/src");
    let mut sites = Vec::new();
    for entry in fs::read_dir(&root).expect("source dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|x| x == "rs") {
            let n = count(&lib_code(&path), "unsafe");
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            sites.extend(std::iter::repeat_n(name, n));
        }
    }
    assert_eq!(
        sites,
        ["project.rs"],
        "unsafe outside the one dispatch call"
    );

    let src = fs::read_to_string(root.join("project.rs")).expect("read project.rs");
    let lines: Vec<&str> = src.lines().collect();
    let at = lines
        .iter()
        .position(|l| !l.trim_start().starts_with("//") && l.contains("unsafe"))
        .expect("the dispatch call");
    let comment: Vec<&str> = lines[..at]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .copied()
        .collect();
    let comment = comment.join(" ");
    assert!(
        comment.contains("SAFETY:") && comment.contains("Kernel::detect()"),
        "the unsafe call needs a `// SAFETY:` comment naming the cached `Kernel::detect()` probe"
    );
}

/// `unsafe` in ha-bitcode lives in the group kernels only: every unsafe
/// block sits under a `// SAFETY:` comment, and every `unsafe fn` states
/// its contract in a `# Safety` doc section.
#[test]
fn bitcode_unsafe_is_in_kernels_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bitcode/src");
    let mut files = Vec::new();
    for entry in fs::read_dir(&root).expect("source dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|x| x == "rs") && count(&lib_code(&path), "unsafe") > 0 {
            files.push(path.file_name().expect("file name").to_string_lossy().into_owned());
        }
    }
    assert_eq!(files, ["kernels.rs"], "unsafe outside the kernels");

    let src = fs::read_to_string(root.join("kernels.rs")).expect("read kernels.rs");
    let lines: Vec<&str> = src
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .collect();
    let mut sites = 0;
    for (at, line) in lines.iter().enumerate() {
        let code = line.find("//").map_or(*line, |i| &line[..i]);
        if !code.contains("unsafe") {
            continue;
        }
        sites += 1;
        // The comment run right above the site; attributes may sit in it.
        let above: Vec<&str> = lines[..at]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//") || l.starts_with("#["))
            .collect();
        let needed = if code.contains("unsafe fn") { "# Safety" } else { "SAFETY:" };
        assert!(
            above.iter().any(|l| l.contains(needed)),
            "kernels.rs:{}: `unsafe` without a `{needed}` comment above it",
            at + 1
        );
    }
    assert!(sites > 0, "the kernels' unsafe sites went missing");
}
