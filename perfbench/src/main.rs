//! Command line of the STeP benchmark.
//!
//! ```text
//! perfbench --workload <sweep|replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's shape, a digest of the simulated results and the
//! simulator's error against its reference, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones.

use std::time::Instant;
use step_perfbench::{Config, Kind, Size, run, speed};

const USAGE: &str =
    "usage: perfbench --workload <sweep|replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        kind: Kind::Sweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.kind = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match speed::pin_to_current_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("not pinned to a cpu"),
    }
    let out = run(&cfg, started);
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.json());
}
