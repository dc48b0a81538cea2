//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the report, then the JSON result line last; exits 1 when any
//! checked result was wrong and 2 on a usage error.

use falcon_perfbench::{report_lines, result_line, run, Scale, Workload, REFERENCE_SEED};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <oneshot64|campaign16|archive512> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, REFERENCE_SEED, 30, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch (the archive) and the trace stream live in the checkout.
    let out_dir = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let o = run(args.workload, args.seed, args.seconds, args.trace, Scale::Full, out_dir);
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload.name(), args.seed));
        let mut body = o.trace_lines.join("\n");
        body.push('\n');
        match std::fs::write(&path, body) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for line in report_lines(&o) {
        println!("{line}");
    }
    println!("{}", result_line(&o));
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
