//! Command line of the pipeline benchmark:
//!
//! ```text
//! chs-pipeline-bench --workload pool-day|refit-churn|manager-storm
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Progress goes to stderr; the last line of stdout is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when every
//! check passed, 1 when one failed, 2 on a bad command line.

use chs_pipeline_bench::workload::{Scale, WorkloadKind};
use chs_pipeline_bench::{run, Options};

fn usage(why: &str) -> ! {
    eprintln!(
        "{why}\nusage: chs-pipeline-bench --workload pool-day|refit-churn|manager-storm \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse() -> Options {
    let mut kind = None;
    let mut opts = Options {
        kind: WorkloadKind::PoolDay,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        // The parallel stages get one worker per core.
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => kind = Some(WorkloadKind::parse(&value).unwrap_or_else(|| bad())),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    opts.kind = kind.unwrap_or_else(|| usage("--workload is required"));
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        usage("--seconds must be a non-negative number");
    }
    opts
}

fn main() {
    let opts = parse();
    eprintln!(
        "pipeline bench: workload {} seed {} seconds {} trace {} threads {}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.threads
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.threads)
        .build()
        .expect("thread pool of at most nproc threads");
    let report = pool.install(|| run(&opts));
    eprintln!(
        "rounds: {} untraced, {} traced",
        report.rounds.0, report.rounds.1
    );
    for v in &report.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    for m in &report.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
