//! Benchmark entry point (normally started through `perfbench/run.py`).
//!
//! ```text
//! perfbench --workload <fleet_replay|paced_trickle|hostile_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! Prints a `# stamp` line, human-readable progress lines, and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Refuses to run when any `ICSAD_*` variable is set: the program under
//! test reads several (ingest mode, worker count, split threshold, SIMD
//! backend), and each would silently change what is measured.

use std::io::Write;
use std::process::ExitCode;

use perfbench::{run, Options, Scale, Workload};

#[global_allocator]
static ALLOCATOR: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <fleet_replay|paced_trickle|hostile_mix> --seed <n> \
         --seconds <s> --trace <0|1> [--commit <id>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ICSAD_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: these change the program under test",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload").as_deref().and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("missing or invalid --seconds");
    };
    let trace = match value("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let commit = value("--commit").unwrap_or_else(|| "unknown".to_string());

    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::paper(),
        inject_mismatch: false,
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match run(&opts, &commit, &mut out) {
        Ok(result) => {
            let _ = writeln!(out, "{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(why) => {
            let _ = out.flush();
            eprintln!("perfbench: {why}");
            ExitCode::from(3)
        }
    }
}
