//! The ACE building benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path building_bench/Cargo.toml -- \
//!     --workload device_control --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload on the production topology, checks every answer,
//! prints each metric by name with its unit and sample count, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics, or with `--trace 1` the per-layer ones.  Exits
//! non-zero when a correctness check failed.

mod app_state;
mod arrival_burst;
mod building;
mod device_control;
mod harness;
mod procfs;
mod stats;
mod trace;

use harness::{Plan, Report};
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["device_control", "arrival_burst", "app_state"];

/// Per-layer metrics and their units, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("net.frames_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("net.connections_per_op", "count"),
    ("lang.parse_ns", "ns"),
    ("security.seal_ns", "ns"),
    ("security.open_ns", "ns"),
    ("security.handshake_us", "us"),
    ("security.keynote_check_us", "us"),
    ("core.link.full_handshakes_per_op", "count"),
    ("core.link.resume_ratio", "ratio"),
    ("core.pool.reuse_ratio", "ratio"),
    ("core.failover.resolve_hit_ratio", "ratio"),
    ("core.failover.call_us", "us"),
    ("core.auth.cache_hit_ratio", "ratio"),
    ("core.admission.queue_wait_p50_us", "us"),
    ("core.admission.queue_wait_p99_us", "us"),
    ("core.admission.shed", "count"),
    ("core.daemon.service_us", "us"),
    ("core.runtime.polls_per_op", "count"),
    ("core.runtime.parks_per_op", "count"),
    ("core.runtime.long_polls", "count"),
    ("directory.lookup_us", "us"),
    ("directory.fanouts_per_op", "count"),
    ("directory.shard_for_ns", "ns"),
    ("directory.renewals_per_s", "1/s"),
    ("identity.authdb_fetches_per_op", "count"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.leased_read_ratio", "ratio"),
    ("store.placement.group_for_ns", "ns"),
    ("store.wal.records_per_fsync", "count"),
    ("store.wal.compactions", "count"),
    ("store.sync.rounds_per_s", "1/s"),
    ("store.sync.pulled", "count"),
    ("store.sync.digest_ms", "ms"),
    ("proc.idle_cpu_cores", "cores"),
    ("gen.late_p99_us", "us"),
    ("tail.p99_us", "us"),
    ("tail.put_p99_us", "us"),
    ("tail.get_p99_us", "us"),
    ("tail.samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

fn usage() -> String {
    format!(
        "usage: building-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Plan), String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: 1,
        seconds: 10.0,
        trace: false,
        setups: 3,
        // `arrival_burst` settles after its 30 s ticket lifetime; the cap
        // keeps a run that never settles inside the run-time budget.
        warmup_cap: Duration::from_secs(45),
        tamper_every: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => plan.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                plan.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("not a duration in (0, 600]"))?
            }
            "--trace" => {
                plan.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, plan))
}

fn run(workload: &str, plan: &Plan) -> Result<Report, String> {
    match workload {
        "device_control" => device_control::run(plan),
        "arrival_burst" => arrival_burst::run(plan),
        "app_state" => app_state::run(plan),
        other => Err(format!("unknown workload {other}")),
    }
}

/// A JSON number; measurement code never yields NaN or infinity, but a
/// report must stay parseable if it ever did.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        let layers = r.layers.as_ref().expect("traced runs report layers");
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = layers
                    .get(name)
                    .copied()
                    .expect("every per-layer metric is set");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect()
    } else {
        harness::GATED
            .iter()
            .map(|name| {
                let f = r
                    .figures
                    .iter()
                    .find(|f| f.name == *name)
                    .expect("every gated metric is set");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    num(f.value),
                    f.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, plan) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let report = match run(&workload, &plan) {
        Ok(r) if r.attempted == 0 => {
            eprintln!("{workload}: no operation completed in the window");
            std::process::exit(1);
        }
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: {e}");
            std::process::exit(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {workload} seed {} window {} s trace {} cores {cores} injected delay none",
        plan.seed,
        plan.seconds,
        u8::from(plan.trace),
    );
    for note in &report.notes {
        println!("note {note}");
    }
    for f in &report.figures {
        println!(
            "metric {} = {} {} (n={})",
            f.name, f.value, f.unit, f.samples
        );
    }
    if let Some(layers) = &report.layers {
        for (name, unit) in PER_LAYER {
            println!("layer {name} = {} {unit}", layers[name]);
        }
    }
    for failure in &report.failures {
        println!("failure {failure}");
    }
    println!("{}", result_json(&report, plan.trace));
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let (w, p) = parse_args(&args(
            "--workload app_state --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (w.as_str(), p.seed, p.seconds, p.trace),
            ("app_state", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload app_state --seed x",
            "--workload app_state --trace 2",
            "--workload app_state --seconds 0",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root names the metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metrics_reported() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        for name in harness::GATED {
            assert!(
                compact.contains(&format!("{{\"name\":\"{name}\"")),
                "{name} missing"
            );
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\"")),
                "{w} missing"
            );
        }
    }
}

/// Short runs of every workload on the real topology: a clean run passes
/// its checks, and corrupting replies makes the run fail.
#[cfg(test)]
mod smoke {
    use super::*;

    fn quick(seed: u64, tamper_every: u64, trace: bool) -> Plan {
        Plan {
            seed,
            seconds: 0.5,
            trace,
            setups: 1,
            warmup_cap: Duration::from_secs(1),
            tamper_every,
        }
    }

    fn clean_then_corrupted(workload: &str) {
        let clean = run(workload, &quick(3, 0, false)).expect("clean run");
        assert!(clean.attempted > 50, "{workload}: {} ops", clean.attempted);
        assert_eq!(clean.failed, 0, "{workload}: {:?}", clean.failures);
        let json = result_json(&clean, false);
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        let corrupted = run(workload, &quick(3, 5, false)).expect("corrupted run");
        assert!(
            corrupted.failed > 0,
            "{workload}: corrupted replies went unnoticed"
        );
        assert!(result_json(&corrupted, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn device_control_catches_a_corrupted_reply() {
        clean_then_corrupted("device_control");
    }

    #[test]
    fn arrival_burst_catches_a_corrupted_reply() {
        clean_then_corrupted("arrival_burst");
    }

    #[test]
    fn app_state_catches_a_corrupted_reply() {
        clean_then_corrupted("app_state");
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let r = run("app_state", &quick(4, 0, true)).expect("traced run");
        let layers = r.layers.as_ref().expect("traced");
        for (name, _) in PER_LAYER {
            assert!(layers.get(name).is_some_and(|v| v.is_finite()), "{name}");
        }
        assert_eq!(layers.len(), PER_LAYER.len(), "no metric outside the list");
        assert!(layers["store.put_us"] > 0.0 && layers["tail.samples"] > 0.0);
        assert!(result_json(&r, true).contains("\"trace.unattributed_frac\": {\"value\": "));
    }
}
