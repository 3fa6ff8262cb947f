//! The process's runtime configuration: the four `OLIVE_*` variables that
//! set a round's public schedule (worker count, chunk size, shard count)
//! and its side-band telemetry sink, parsed in one place.
//!
//! * [`RuntimeConfig::parse`] is a pure function of `(name, value)` pairs:
//!   every grammar, default and fallback is testable in-process;
//! * [`RuntimeConfig::process`] is the one place these variables are read
//!   from the environment. It parses once, prints the warnings to stderr,
//!   and caches the result for the life of the process — changing the
//!   environment mid-process has no effect.
//!
//! A malformed value warns and falls back to the default; the run goes on.
//! So does an `OLIVE_*` name nobody reads (a typo such as `OLIVE_THREAD`),
//! which draws a warning of its own. README's "Runtime configuration"
//! table lists every variable, its default, grammar and setter.
//!
//! None of these knobs changes a round's output or its adversary-visible
//! trace: the schedule is public and the telemetry plane is side-band.
//! Explicit values win over the process configuration — every parallel
//! entry point has a `*_with_threads` form, and `OliveSystem` takes a
//! whole `RuntimeConfig` at construction plus a setter per knob.
//!
//! Lives in `olive-memsim` (rather than `olive-core`) because every crate
//! that reads a knob — the grouped aggregation in `olive-core`, the
//! intra-sort parallelism in `olive-oblivious`, the experiment binaries —
//! already depends on this crate for its tracer.
//!
//! There is no fault knob: a coordinator crash is armed in-process
//! (`OliveSystem::set_fault_plan`).

use std::sync::OnceLock;

use olive_telemetry::Telemetry;

/// Hard cap on the default worker count (matching SGX enclave TCS budgets,
/// and past which the memory-bound sort shows no gain). Explicit values
/// may exceed it.
const MAX_DEFAULT_THREADS: usize = 8;

/// Every `OLIVE_*` variable the workspace reads: the four parsed here,
/// then the crypto backend pin (read by `olive-crypto`). Any other
/// `OLIVE_*` name draws a warning.
const KNOWN: [&str; 5] =
    ["OLIVE_THREADS", "OLIVE_CHUNK", "OLIVE_SHARDS", "OLIVE_METRICS", "OLIVE_CRYPTO"];

/// The round knobs of one process (or of one `OliveSystem`, which holds
/// its own copy and overrides fields through its setters).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker count for parallel round work (`OLIVE_THREADS`; default
    /// `available_parallelism().min(8)`). `1` runs the exact serial code
    /// paths and traces.
    pub threads: usize,
    /// Clients opened, decoded and folded per ingestion step
    /// (`OLIVE_CHUNK`; default 64). Trades enclave working set against
    /// per-chunk overhead.
    pub chunk: usize,
    /// Stripes of the `G` dimension, one enclave each (`OLIVE_SHARDS`;
    /// default 1, the monolithic path).
    pub shards: usize,
    /// The side-band telemetry handle (`OLIVE_METRICS=<path|stdout|off>`;
    /// default off). Clones share one stream.
    pub metrics: Telemetry,
}

impl RuntimeConfig {
    /// The configuration `vars` describe, plus one warning per malformed
    /// value (which falls back to its default) and per unknown `OLIVE_*`
    /// name (which is ignored). Names outside `OLIVE_*` are ignored
    /// silently; when a name repeats, the last value wins. Reads no
    /// environment; an `OLIVE_METRICS` path is opened (append mode).
    pub fn parse<K: AsRef<str>, V: AsRef<str>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> (RuntimeConfig, Vec<String>) {
        let vars: Vec<(K, V)> = vars.into_iter().collect();
        let get = |name: &str| {
            vars.iter().rev().find(|(k, _)| k.as_ref() == name).map(|(_, v)| v.as_ref())
        };
        let mut warnings = Vec::new();
        let mut positive = |name: &str, fallback: &str| {
            let v = get(name)?;
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    warnings
                        .push(format!("{name}={v:?} is not a positive integer; using {fallback}"));
                    None
                }
            }
        };
        let threads = positive("OLIVE_THREADS", "auto default").unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            cores.min(MAX_DEFAULT_THREADS)
        });
        let chunk = positive("OLIVE_CHUNK", "default").unwrap_or(64);
        let shards = positive("OLIVE_SHARDS", "default").unwrap_or(1);
        let metrics = match get("OLIVE_METRICS") {
            None | Some("" | "off") => Telemetry::off(),
            Some("stdout") => Telemetry::stdout(),
            Some(path) => Telemetry::to_file(path).unwrap_or_else(|e| {
                warnings
                    .push(format!("OLIVE_METRICS={path}: cannot open ({e}); telemetry disarmed"));
                Telemetry::off()
            }),
        };
        let mut unknown: Vec<&str> = vars
            .iter()
            .map(|(k, _)| k.as_ref())
            .filter(|k| k.starts_with("OLIVE_") && !KNOWN.contains(k))
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        warnings.extend(unknown.into_iter().map(|k| {
            format!("{k} is not a known variable and is ignored (known: {})", KNOWN.join(", "))
        }));
        (RuntimeConfig { threads, chunk, shards, metrics }, warnings)
    }

    /// The process's configuration: the environment, parsed on first call
    /// (warnings go to stderr) and shared by every later one. Variables
    /// whose name or value is not valid Unicode count as unset.
    pub fn process() -> &'static RuntimeConfig {
        static PROCESS: OnceLock<RuntimeConfig> = OnceLock::new();
        PROCESS.get_or_init(|| {
            let vars = std::env::vars_os()
                .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)));
            let (config, warnings) = RuntimeConfig::parse(vars);
            for warning in warnings {
                eprintln!("{warning}");
            }
            config
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> (RuntimeConfig, Vec<String>) {
        RuntimeConfig::parse(vars.iter().copied())
    }

    fn auto_threads() -> usize {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8)
    }

    #[test]
    fn unset_knobs_take_their_defaults_without_a_word() {
        let (cfg, warnings) = parse(&[("PATH", "/bin"), ("HOME", "")]);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(cfg.threads, auto_threads());
        assert!((1..=MAX_DEFAULT_THREADS).contains(&cfg.threads));
        assert_eq!((cfg.chunk, cfg.shards), (64, 1));
        assert!(!cfg.metrics.is_armed());
    }

    #[test]
    fn positive_integer_knobs_trim_and_reject_the_rest() {
        type Field = fn(&RuntimeConfig) -> usize;
        let knobs: [(&str, Field, usize, &str); 3] = [
            ("OLIVE_THREADS", |c| c.threads, auto_threads(), "auto default"),
            ("OLIVE_CHUNK", |c| c.chunk, 64, "default"),
            ("OLIVE_SHARDS", |c| c.shards, 1, "default"),
        ];
        for (name, field, default, fallback) in knobs {
            for (value, want) in [("1", 1), (" 3 ", 3), ("12", 12)] {
                let (cfg, warnings) = parse(&[(name, value)]);
                assert_eq!((field(&cfg), warnings.len()), (want, 0), "{name}={value:?}");
            }
            for value in ["0", "", "-2", "two", "3.5"] {
                let (cfg, warnings) = parse(&[(name, value)]);
                assert_eq!(field(&cfg), default, "{name}={value:?} falls back");
                let want = format!("{name}={value:?} is not a positive integer; using {fallback}");
                assert_eq!(warnings, [want]);
            }
        }
        // The last value of a repeated name wins, as a later `export` would.
        let (cfg, _) = parse(&[("OLIVE_CHUNK", "5"), ("OLIVE_CHUNK", "7")]);
        assert_eq!(cfg.chunk, 7);
    }

    #[test]
    fn metrics_sinks_arm_or_warn_and_disarm() {
        for off in ["off", ""] {
            let (cfg, warnings) = parse(&[("OLIVE_METRICS", off)]);
            assert!(!cfg.metrics.is_armed() && warnings.is_empty(), "OLIVE_METRICS={off:?}");
        }
        let (cfg, warnings) = parse(&[("OLIVE_METRICS", "stdout")]);
        assert!(cfg.metrics.is_armed() && warnings.is_empty());

        let file = std::env::temp_dir().join(format!("olive-runtime-{}.jsonl", std::process::id()));
        let (cfg, warnings) = parse(&[("OLIVE_METRICS", file.to_str().unwrap())]);
        assert!(cfg.metrics.is_armed() && warnings.is_empty());
        assert!(file.is_file(), "the sink is opened at parse time");
        drop(cfg);
        std::fs::remove_file(&file).unwrap();

        // A path under a regular file cannot be opened.
        let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/metrics.jsonl");
        let (cfg, warnings) = parse(&[("OLIVE_METRICS", bad)]);
        assert!(!cfg.metrics.is_armed());
        assert_eq!(warnings.len(), 1);
        let prefix = format!("OLIVE_METRICS={bad}: cannot open (");
        assert!(warnings[0].starts_with(&prefix), "{warnings:?}");
        assert!(warnings[0].ends_with("); telemetry disarmed"), "{warnings:?}");
    }

    /// Typos and retired knobs (the three `OLIVE_BENCH_*`) are unknown
    /// names alike.
    #[test]
    fn unknown_olive_names_warn_once_each_and_change_nothing() {
        let vars = [
            ("OLIVE_THREAD", "1"),
            ("OLIVE_SHARD", "4"),
            ("OLIVE_THREAD", "2"),
            ("OLIVE_CRYPTO", "ct"),
            ("OLIVE_BENCH_FULL", "1"),
            ("OLIVE_BENCH_MS", "50"),
            ("OLIVE_BENCH_JSON", "b.json"),
            ("OLIVEX", "1"),
        ];
        let (cfg, warnings) = parse(&vars);
        let (defaults, _) = parse(&[]);
        assert_eq!((cfg.threads, cfg.chunk, cfg.shards), (defaults.threads, 64, 1));
        let unknown = [
            "OLIVE_BENCH_FULL",
            "OLIVE_BENCH_JSON",
            "OLIVE_BENCH_MS",
            "OLIVE_SHARD",
            "OLIVE_THREAD",
        ];
        assert_eq!(warnings.len(), unknown.len(), "{warnings:?}");
        for (warning, name) in warnings.iter().zip(unknown) {
            let prefix = format!("{name} is not a known variable");
            assert!(warning.starts_with(&prefix), "{warnings:?}");
        }
        assert!(warnings[0].contains("OLIVE_THREADS"), "the warning lists the known names");
    }

    /// The fault knob is gone: `OLIVE_FAULTS` is an unknown name like any
    /// typo, warned about once, and the parsed configuration is the
    /// default one (there is no field left for it to set).
    #[test]
    fn olive_faults_warns_as_an_unknown_variable() {
        let (cfg, warnings) = parse(&[("OLIVE_FAULTS", "crash@0"), ("OLIVE_CHUNK", "2")]);
        assert_eq!((cfg.chunk, cfg.shards), (2, 1));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("OLIVE_FAULTS is not a known variable"), "{warnings:?}");
        assert!(!KNOWN.contains(&"OLIVE_FAULTS"));
    }

    #[test]
    fn the_process_configuration_is_read_once() {
        let first = RuntimeConfig::process();
        assert!(first.threads >= 1 && first.chunk >= 1 && first.shards >= 1);
        assert!(std::ptr::eq(first, RuntimeConfig::process()), "one cached decision");
    }
}
