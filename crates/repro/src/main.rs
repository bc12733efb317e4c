//! `lwfs-repro`: the paper's tables and figures, and the observability
//! acceptance probes, from one entry point. Argv is read here, once;
//! anything not in [`USAGE`] exits 2 before any study runs.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use lwfs_core::TransportKind;
use lwfs_repro::{
    ablation, figures, functional, pairs, petaflop, run_metrics_probe, run_telemetry_probe, tables,
};

const USAGE: &str = "\
usage: lwfs-repro <tables|petaflop|ablation|functional>
       lwfs-repro <figure9|figure10> [--smoke]
       lwfs-repro probe <metrics|telemetry> [--transport inprocess|tcp] [--out PATH] [--trace-out PATH]
       lwfs-repro pairs <parent-bin> <change-bin> --workload W [--pairs N] [--seconds S]";

/// Run what `args` names and report whether it passed. `Err` says what is
/// not in the usage line; nothing has run by then.
fn run(args: &[&str]) -> Result<bool, String> {
    Ok(match args {
        ["tables"] => tables::run(),
        ["petaflop"] => petaflop::run(),
        ["ablation"] => ablation::run(),
        ["functional"] => functional::run(),
        ["figure9"] => figures::figure9(false),
        ["figure9", "--smoke"] => figures::figure9(true),
        ["figure10"] => figures::figure10(false),
        ["figure10", "--smoke"] => figures::figure10(true),
        ["probe", which @ ("metrics" | "telemetry"), flags @ ..] => {
            let (mut transport, mut out, mut trace) = (TransportKind::default(), None, None);
            for pair in flags.chunks(2) {
                let &[flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
                match flag {
                    "--transport" => {
                        transport = TransportKind::parse(value)
                            .ok_or(format!("unknown --transport {value:?}"))?;
                    }
                    "--out" => out = Some(Path::new(value)),
                    "--trace-out" => trace = Some(Path::new(value)),
                    _ => return Err(format!("unknown flag {flag:?}")),
                }
            }
            // The telemetry probe also leaves a `.prom` beside `--out`.
            let written = if *which == "telemetry" {
                run_telemetry_probe(transport, out, trace)
                    .map(|_| out.map(|p| p.with_extension("prom")))
            } else {
                run_metrics_probe(transport, out, trace).map(|_| None)
            };
            match written {
                Ok(prom) => {
                    for path in out.iter().chain(&trace).copied().chain(prom.as_deref()) {
                        println!("wrote {}", path.display());
                    }
                    true
                }
                Err(e) => {
                    eprintln!("lwfs-repro: probe output failed: {e}");
                    false
                }
            }
        }
        ["pairs", parent, change, flags @ ..] => {
            let (mut workload, mut count, mut seconds) = (None, 10, 10);
            for pair in flags.chunks(2) {
                let &[flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
                let number =
                    || value.parse().map_err(|_| format!("{flag} {value:?} is not a count"));
                match flag {
                    "--workload" => workload = Some(value),
                    "--pairs" => count = number()?,
                    "--seconds" => seconds = number()? as u64,
                    _ => return Err(format!("unknown flag {flag:?}")),
                }
            }
            let workload = workload.ok_or("pairs needs --workload")?;
            if count == 0 || seconds == 0 {
                return Err("--pairs and --seconds must be at least 1".into());
            }
            pairs::run(Path::new(parent), Path::new(change), workload, count, seconds)
        }
        _ => return Err(format!("unrecognised arguments {args:?}")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("lwfs-repro: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
