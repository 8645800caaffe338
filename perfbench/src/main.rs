//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <aneurysm-sim|steered-insitu|farm-sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs the served path
//! for the given time, checks the outputs, prints a human-readable
//! report and, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The metrics are the
//! end-to-end table with `--trace 0` and the per-layer table with
//! `--trace 1` (see `perfbench/README.md`). Exits 1 when a correctness
//! check fails and 2 on bad arguments.

use hemelb_perfbench::common::{Ctx, Outcome};
use hemelb_perfbench::report::{result_json, END_TO_END, PER_LAYER};
use hemelb_perfbench::stats::tail_is_supported;
use hemelb_perfbench::trace::{self_time_by_layer, Tracer};
use hemelb_perfbench::{aneurysm, farm, steered};
use std::path::PathBuf;

/// A workload's entry point.
type Workload = fn(&Ctx) -> Outcome;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("aneurysm-sim", aneurysm::run),
    ("steered-insitu", steered::run),
    ("farm-sweep", farm::run),
];

/// Where runs keep generated inputs and traces, relative to the
/// directory the benchmark is run from.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let workdir =
        PathBuf::from(WORK_ROOT).join(format!("{name}-seed{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&workdir).expect("create the run's work directory");

    let tracer = Tracer::new();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tracer: &tracer,
        workdir: workdir.clone(),
    };
    let mut out = run(&ctx);
    tracer.set_enabled(false);
    std::fs::remove_dir_all(&workdir).ok();

    if args.trace {
        let spans = tracer.spans();
        for (layer, secs) in self_time_by_layer(&spans) {
            if PER_LAYER
                .iter()
                .any(|(n, _)| *n == format!("{layer}.self_s"))
            {
                out.metrics.set(&format!("{layer}.self_s"), secs, "s");
            }
        }
        let path = PathBuf::from(WORK_ROOT).join(format!("trace-{name}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => out
                .notes
                .push(format!("could not write {}: {e}", path.display())),
        }
    }

    if let Some(n) = out.metrics.get("op_samples") {
        if !args.trace && !tail_is_supported(n as usize, 0.9, 10) {
            out.notes.push(format!(
                "op_p90_ms rests on {n} samples, fewer than 10 beyond p90"
            ));
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result_json(&mut out.tally, &out.metrics, table);

    println!(
        "perfbench {name} seed={} seconds={} trace={} (available parallelism {})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (metric, value, unit) in out.metrics.iter() {
        println!("  {metric:<32} {value:>16.6} {unit}");
    }
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "error_ratio",
        out.tally.error_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    for failure in &out.tally.check_failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!("{line}");
    std::process::exit(out.tally.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload farm-sweep --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("farm-sweep", 7, 10.0, true)
        );
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus 1").is_err());
        assert!(args("--workload x --seed").is_err());
    }
}
