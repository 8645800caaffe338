//! Steadiness tool: run each workload repeatedly, one seed per run, and
//! print the median, quartiles and quartile spread of every metric.
//!
//! ```text
//! steady [--workloads a,b,...] [--runs N] [--seconds S] [--trace 0|1]
//!        [--first-seed K]
//! ```
//!
//! Runs the `perfbench` binary built beside this one, sequentially, from
//! the current directory. The spread is `(q3 - q1) / median`, with the
//! quartiles computed like Python's `statistics.quantiles(values, n=4)`.
//! Exits 1 if any run fails or reports `"correct": false`.

use hemelb_obs::Json;
use hemelb_perfbench::stats::quartiles;
use std::collections::BTreeMap;
use std::process::Command;

fn main() {
    let mut workloads = "aneurysm-sim,steered-insitu,farm-sweep".to_string();
    let (mut runs, mut seconds, mut trace, mut first_seed) =
        (10u64, "20".to_string(), "0".to_string(), 1u64);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workloads" => workloads = value,
            "--runs" => runs = value.parse().unwrap_or_else(|_| usage("bad --runs")),
            "--seconds" => seconds = value,
            "--trace" => trace = value,
            "--first-seed" => {
                first_seed = value.parse().unwrap_or_else(|_| usage("bad --first-seed"))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let bench = std::env::current_exe()
        .expect("own path")
        .with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));
    let mut all_ok = true;
    for workload in workloads.split(',') {
        let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
        for seed in first_seed..first_seed + runs {
            let out = Command::new(&bench)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", &trace])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = Json::parse(last).ok();
            let correct = parsed.as_ref().and_then(|j| j.get("correct")) == Some(&Json::Bool(true));
            if !out.status.success() || !correct {
                all_ok = false;
                eprintln!(
                    "{workload} seed {seed}: exit {:?}, correct={correct}",
                    out.status.code()
                );
                eprint!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
            }
            let Some(metrics) = parsed
                .as_ref()
                .and_then(|j| j.get("metrics"))
                .and_then(Json::as_obj)
            else {
                continue;
            };
            let mut line = format!("{workload} seed {seed}:");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                line.push_str(&format!(" {name}={v:.6}"));
                let e = values
                    .entry(name.clone())
                    .or_insert_with(|| (Vec::new(), unit));
                e.0.push(v);
            }
            println!("{line}");
        }
        println!("{workload}: {runs} runs of {seconds} s, trace {trace}");
        println!(
            "  {:<30} {:>14} {:>14} {:>14} {:>8} unit",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, (v, unit)) in &values {
            let [q1, med, q3] = quartiles(v).unwrap_or([f64::NAN; 3]);
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("  {name:<30} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {unit}");
        }
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}

fn usage(msg: &str) -> ! {
    eprintln!("steady: {msg}");
    eprintln!(
        "usage: steady [--workloads a,b] [--runs N] [--seconds S] [--trace 0|1] [--first-seed K]"
    );
    std::process::exit(2);
}
