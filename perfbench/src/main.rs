//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <fig7|sweep-10k|queue-1k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `context` line (host and build), one line per iteration and
//! repetition, one line per metric with its unit, any failures, the
//! verdict, and last a JSON result line. Exits 1 if any correctness check
//! failed, 2 on a usage error.

use perfbench::{report, run, RunArgs, Size, Workload};

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=120".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size: Size::Full,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(args);
    let summary = report::summarise(&result);
    println!("context {}", report::context_json(&result));
    for line in report::text_lines(&result, &summary) {
        println!("{line}");
    }
    println!("{}", report::json_line(&summary));
    if !summary.correct {
        std::process::exit(1);
    }
}
