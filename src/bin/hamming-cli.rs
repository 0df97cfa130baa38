//! `hamming-cli` — ad-hoc Hamming similarity queries over code files.
//!
//! Codes are text files with one binary string per line (`#` comments and
//! blank lines ignored); ids are the 0-based line numbers of the codes.
//!
//! ```text
//! hamming-cli select <file> <query-code> <h>     # Hamming-select
//! hamming-cli join <file-r> <file-s> <h>         # Hamming-join (pairs)
//! hamming-cli knn <file> <query-code> <k>        # k nearest codes
//! hamming-cli stats <file>                       # index statistics
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::select::{hamming_join, hamming_select};
use hamming_suite::index::{DynamicHaIndex, HammingIndex};
use hamming_suite::knn::knn_select;

const USAGE: &str = "usage:
  hamming-cli select <file> <query-code> <h>   ids within Hamming distance h
  hamming-cli join   <file-r> <file-s> <h>     all (r,s) id pairs within h
  hamming-cli knn    <file> <query-code> <k>   k nearest codes to the query
  hamming-cli stats  <file>                    HA-Index statistics

Code files contain one 0/1 string per line; '#' starts a comment.
Ids are 0-based line numbers of the codes.";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match (cmd, args.len()) {
        ("select", 4) => {
            let data = load_codes(&args[1])?;
            let query = parse_code(&args[2])?;
            let h: u32 = parse_num(&args[3], "h")?;
            let index = DynamicHaIndex::build(data);
            for id in hamming_select(&index, &query, h) {
                println!("{id}");
            }
            Ok(())
        }
        ("join", 4) => {
            let r = load_codes(&args[1])?;
            let s = load_codes(&args[2])?;
            let h: u32 = parse_num(&args[3], "h")?;
            let index = DynamicHaIndex::build(s);
            for (rid, sid) in hamming_join(&index, &r, h) {
                println!("{rid}\t{sid}");
            }
            Ok(())
        }
        ("knn", 4) => {
            let data = load_codes(&args[1])?;
            let query = parse_code(&args[2])?;
            let k: usize = parse_num(&args[3], "k")?;
            let codes = data.clone();
            let index = DynamicHaIndex::build(data);
            let resolve = |id: u64| codes[id as usize].0.clone();
            for (id, dist) in knn_select(&index, resolve, &query, k) {
                println!("{id}\t{dist}");
            }
            Ok(())
        }
        ("stats", 2) => {
            let data = load_codes(&args[1])?;
            let n = data.len();
            let index = DynamicHaIndex::build(data);
            let mem = index.memory_report();
            println!("tuples            : {n}");
            println!("code length       : {} bits", index.code_len());
            println!("distinct codes    : {}", index.leaf_count());
            println!("internal nodes    : {}", index.internal_node_count());
            println!("forest depth      : {}", index.depth());
            println!("memory (structure): {} B", mem.structure_bytes);
            println!("memory (codes)    : {} B", mem.code_bytes);
            println!("memory (payload)  : {} B", mem.payload_bytes);
            println!("wire size (leafy) : {} B", index.serialized_bytes(true));
            println!("wire size (bare)  : {} B", index.serialized_bytes(false));
            Ok(())
        }
        ("-h" | "--help" | "help", _) => {
            println!("{USAGE}");
            Ok(())
        }
        ("", _) => Err("missing command".into()),
        (other, _) => Err(format!("unknown or malformed command: {other}")),
    }
}

fn load_codes(path: &str) -> Result<Vec<(BinaryCode, u64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    let mut len: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let code: BinaryCode = line
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if let Some(expected) = len {
            if code.len() != expected {
                return Err(format!(
                    "{path}:{}: code length {} differs from {}",
                    lineno + 1,
                    code.len(),
                    expected
                ));
            }
        } else {
            len = Some(code.len());
        }
        out.push((code, out.len() as u64));
    }
    if out.is_empty() {
        return Err(format!("{path}: no codes found"));
    }
    Ok(out)
}

fn parse_code(s: &str) -> Result<BinaryCode, String> {
    s.parse().map_err(|e| format!("bad query code: {e}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}
