//! Whole-round benchmark for the Olive reproduction.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//! in this process and prints two lines: a self-describing report (header,
//! workload, round quartiles, `result_digest`, metrics) and, last, the
//! result object `BENCHMARK.json`'s contract asks for. Without
//! `--workload` every workload runs in turn, each in a child process of
//! its own so that peak memory and the process-wide crypto backend are
//! per workload. See `README.md` beside this package.

mod runs;
mod stats;
mod walk;
mod workload;

use std::process::{Command, ExitCode};

use olive_crypto::crypto_backend;
use olive_oblivious::sort_kernel::sort_kernel;

use runs::{run_e2e, run_traced, Metric, Outcome, WARMUP_ROUNDS};
use stats::quartiles;
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: olive-round-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 2024, seconds: 15.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Escapes `s` for a JSON string body.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(if std::arch::is_x86_feature_detected!($f) { found.push($f); })*};
        }
        probe!("aes", "pclmulqdq", "sha", "sse4.1", "avx2", "avx512f", "vaes", "vpclmulqdq");
    }
    found
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn report_json(wl: &Workload, args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let features: Vec<String> = cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    let header = format!(
        "{{\"commit\":\"{}\",\"nproc\":{nproc},\"cpu_features\":[{}],\"crypto_backend\":\"{}\",\
         \"sort_kernel\":\"{:?}\",\"seed\":{},\"seconds\":{},\"warmup_rounds\":{WARMUP_ROUNDS},\
         \"timed_rounds\":{},\"rounds_attempted\":{},\"rounds_failed\":{}}}",
        esc(&commit()),
        features.join(","),
        crypto_backend(),
        sort_kernel(),
        args.seed,
        args.seconds,
        out.round_s.len(),
        out.attempted,
        out.failed,
    );
    let workload = format!(
        "{{\"name\":\"{}\",\"n_clients\":{},\"sample_rate\":{},\"hidden\":{},\"top_k\":{},\
         \"samples_per_client\":{},\"aggregator\":\"{:?}\",\"dp\":{},\"chunk\":{},\"shards\":{},\
         \"threads\":{},\"crypto\":\"{}\",\"why\":\"{}\"}}",
        wl.name,
        wl.n_clients,
        wl.sample_rate,
        wl.hidden,
        wl.top_k,
        wl.samples_per_client,
        wl.aggregator,
        wl.dp.is_some(),
        wl.chunk,
        wl.shards,
        wl.threads,
        wl.crypto,
        esc(wl.why),
    );
    let [p25, p50, p75] = if out.round_s.is_empty() { [0.0; 3] } else { quartiles(&out.round_s) };
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"benchmark\":\"olive-round\",\"mode\":\"{}\",\"header\":{header},\
         \"workload\":{workload},\"round_s\":{{\"samples\":{},\"p25\":{p25},\"p50\":{p50},\
         \"p75\":{p75},\"values\":[{}]}},\"setup_s\":[{}],\"rss_peak_bytes\":{},\"result_digest\":\"{}\",\"metrics\":{}}}",
        if args.trace { "traced" } else { "e2e" },
        out.round_s.len(),
        list(&out.round_s),
        list(&out.setup_s),
        out.rss_peak_bytes,
        out.result_digest,
        metrics_json(&out.metrics),
    )
}

/// Pins the process-wide knobs for `wl`. Must run before anything reads
/// them (they are cached on first use) and before any thread exists.
fn pin_environment(wl: &Workload) {
    let stale: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    for key in stale.iter().filter(|k| k.starts_with("OLIVE_")) {
        std::env::remove_var(key);
    }
    std::env::set_var("OLIVE_CRYPTO", wl.crypto.name());
}

fn run_one(wl: &Workload, args: &Args) -> ExitCode {
    pin_environment(wl);
    if crypto_backend() != wl.crypto {
        eprintln!(
            "{}: needs the {} crypto backend but this CPU resolves to {}; refusing to measure \
             the wrong one",
            wl.name,
            wl.crypto,
            crypto_backend()
        );
        return ExitCode::FAILURE;
    }
    let out = if args.trace {
        run_traced(wl, args.seed, args.seconds)
    } else {
        run_e2e(wl, args.seed, args.seconds)
    };
    println!("{}", report_json(wl, args, &out));
    if !out.mismatches.is_empty() || out.failed > 0 || out.metrics.is_empty() {
        for why in &out.mismatches {
            eprintln!("{}: {why}", wl.name);
        }
        eprintln!("{}: {} of {} rounds failed", wl.name, out.failed, out.attempted);
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":0,\"metrics\":{}}}",
        out.attempted,
        metrics_json(&out.metrics)
    );
    ExitCode::SUCCESS
}

/// Every workload in turn, one child process each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to start the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for wl in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", wl.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{}: run failed ({status:?})", wl.name);
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::find(name) {
            Some(wl) => run_one(&wl, &args),
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name}; known: {}", known.join(", "));
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_parses_the_drivers_invocation_and_rejects_the_rest() {
        let args = parse_args(&argv("--workload adv_sort --seed 7 --seconds 12 --trace 1"));
        assert_eq!(
            args,
            Ok(Args { workload: Some("adv_sort".into()), seed: 7, seconds: 12.0, trace: true })
        );
        assert_eq!(
            parse_args(&[]),
            Ok(Args { workload: None, seed: 2024, seconds: 15.0, trace: false })
        );
        for bad in ["--seed", "--seed x", "--trace 2", "--seconds -1", "--seconds nan", "--fast 1"]
        {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` is written by hand; the names, units and reasons
    /// in it must be the ones this program prints.
    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_print() {
        let json = include_str!("../../BENCHMARK.json");
        let count = |needle: &str| json.matches(needle).count();
        for w in WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, esc(w.why));
            assert_eq!(count(&entry), 1, "{entry}");
        }
        assert_eq!(count("\"why\""), WORKLOADS.len());
        let all: Vec<(&str, &str)> =
            runs::END_TO_END.into_iter().chain(runs::per_layer()).collect();
        for (name, unit) in &all {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert_eq!(count(&entry), 1, "{entry}");
        }
        assert_eq!(count("\"unit\""), all.len());
    }

    #[test]
    fn metrics_render_as_the_contracts_objects() {
        let m = [Metric { name: "setup_s", unit: "s", value: 0.8127 }];
        assert_eq!(metrics_json(&m), "{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}");
        assert_eq!(esc("a\"b\\"), "a\\\"b\\\\");
    }
}
