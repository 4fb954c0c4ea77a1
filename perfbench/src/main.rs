//! `dakc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report on standard error and, as the last line of
//! standard output, the JSON result. Exits non-zero on bad arguments or
//! when set-up fails.

use dakc_perfbench::{run, Opts, Workload, WORKLOADS};

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::CountUniform,
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&v)
                        .ok_or(format!("unknown workload {v:?}; one of {names:?}"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            eprint!("{}", outcome.render());
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}
