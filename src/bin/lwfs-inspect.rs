//! `lwfs-inspect` — offline tail-latency attribution from monitoring
//! artifacts.
//!
//! ```text
//! lwfs-inspect [--trace <chrome-trace.json>] [--jsonl <telemetry.jsonl>] [--top K]
//! ```
//!
//! Reads the Chrome `trace_event` export of scraped slow traces
//! (`--trace-out`) and/or the monitor's windowed JSONL series
//! (`lwfs-repro probe telemetry --out`), reruns the critical-path attribution, and prints
//! the fleet tail decomposition, the slowest-K trace trees with per-span
//! critical-path claims, the alert firings, and a warn-only Little's-law
//! queue sanity check. No cluster required: the point is that a
//! post-mortem reproduces the live pipeline's blame verdict from the
//! artifacts alone.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lwfs-inspect [--trace <chrome-trace.json>] [--jsonl <telemetry.jsonl>] [--top K]"
    );
    eprintln!("  at least one of --trace / --jsonl is required");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut trace: Option<PathBuf> = None;
    let mut jsonl: Option<PathBuf> = None;
    let mut top_k = 3usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = |flag: &str| {
            inline.clone().or_else(|| args.next()).ok_or_else(|| {
                eprintln!("{flag} needs a value");
            })
        };
        match flag.as_str() {
            "--trace" => match value("--trace") {
                Ok(v) => trace = Some(PathBuf::from(v)),
                Err(()) => return ExitCode::FAILURE,
            },
            "--jsonl" => match value("--jsonl") {
                Ok(v) => jsonl = Some(PathBuf::from(v)),
                Err(()) => return ExitCode::FAILURE,
            },
            "--top" => match value("--top").map(|v| v.parse::<usize>()) {
                Ok(Ok(k)) => top_k = k.max(1),
                _ => {
                    eprintln!("--top needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
    }
    if trace.is_none() && jsonl.is_none() {
        return usage();
    }

    let read = |path: &PathBuf| match std::fs::read_to_string(path) {
        Ok(text) => Ok(text),
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            Err(())
        }
    };
    let trace_text = match trace.as_ref().map(read).transpose() {
        Ok(t) => t,
        Err(()) => return ExitCode::FAILURE,
    };
    let jsonl_text = match jsonl.as_ref().map(read).transpose() {
        Ok(t) => t,
        Err(()) => return ExitCode::FAILURE,
    };

    match lwfs::inspect::render_report(trace_text.as_deref(), jsonl_text.as_deref(), top_k) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lwfs-inspect: {e}");
            ExitCode::FAILURE
        }
    }
}
