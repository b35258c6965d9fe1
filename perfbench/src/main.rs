//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench --manifest` prints `BENCHMARK.json`.

use perfbench::workload::Workload;
use perfbench::{manifest, run, Config};
use std::process::ExitCode;
use std::time::Duration;

/// A run that has not finished by now is stuck: exit non-zero rather than
/// hang past the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse_args() -> Result<Option<Config>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = Duration::from_secs(manifest::RUN_SECONDS);
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = Duration::from_secs(num(&value)?.clamp(1, 60)),
            "--trace" => trace = num(&value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Config {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            print!("{}", manifest::render());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog: run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench {} seed {} trace {}: correct={} attempted={} failed={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        report.correct,
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in manifest::expected(cfg.trace) {
        println!(
            "  {:<36} {:>16.4} {}",
            m.name, report.metrics[m.name], m.unit
        );
    }
    println!("{}", report.json(cfg.trace));
    ExitCode::SUCCESS
}
