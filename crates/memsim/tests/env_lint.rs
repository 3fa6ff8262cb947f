//! Source lints over `crates/*/src`: the process environment and the CPU
//! are each read in named places only.
//!
//! The environment is read in two places. `olive_memsim::RuntimeConfig::
//! process` (`src/runtime.rs`) parses the round knobs once; `olive-crypto`
//! pins its backend from `OLIVE_CRYPTO`. A `std::env::var` anywhere else
//! would bring back a second parser with its own cache and its own
//! fallback rule, testable only from a child process. Test modules
//! (everything from a file's first `#[cfg(test)]` module on) and comments
//! are not held to it.
//!
//! The CPU is detected in one file per kernel crate (`olive-oblivious`,
//! `olive-nn`, `olive-crypto`), which caches the result and owns the
//! crate's one table type through which every `#[target_feature]` body is
//! entered. An `is_x86_feature_detected!` anywhere else — a test module
//! included, comments aside — would be a second dispatch. Tests call
//! each body through the table's `runnable` list instead.

use std::path::{Path, PathBuf};

/// What reads the environment (`var`, `var_os`, `vars`, `vars_os`).
const BANNED: &str = "env::var";

/// The files allowed to read it, relative to `crates/`.
const ALLOWED: [&str; 2] = ["memsim/src/runtime.rs", "crypto/src/engine/mod.rs"];

/// What detects a CPU feature.
const DETECTION: &str = "is_x86_feature_detected";

/// The one file of each kernel crate that detects the CPU, relative to
/// `crates/`.
const DETECTORS: [&str; 3] =
    ["crypto/src/engine/mod.rs", "nn/src/kernels.rs", "oblivious/src/isa.rs"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`, and the `crates/` directory.
fn sources() -> (PathBuf, Vec<PathBuf>) {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/ directory");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).expect("crates/ lists") {
        let src = krate.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "the scan reached only {} files", files.len());
    (crates.to_path_buf(), files)
}

/// `src` without its comments.
fn code(src: &str) -> String {
    src.lines().map(|line| line.split("//").next().unwrap_or("")).collect::<Vec<_>>().join("\n")
}

/// The non-test code of `src` — everything before its first
/// `#[cfg(test)]` module (a `#[cfg(test)]` item elsewhere does not end
/// the scan) — with comments stripped.
fn implementation(src: &str) -> String {
    const CFG_TEST: &str = "#[cfg(test)]";
    let is_module = |at: usize| {
        let item = src[at + CFG_TEST.len()..].trim_start();
        ["mod ", "pub mod ", "pub(crate) mod "].iter().any(|m| item.starts_with(m))
    };
    let end = src.match_indices(CFG_TEST).map(|(at, _)| at).find(|&at| is_module(at));
    code(&src[..end.unwrap_or(src.len())])
}

/// How many times the non-test code of `src` reads the environment.
fn env_reads(src: &str) -> usize {
    implementation(src).matches(BANNED).count()
}

#[test]
fn only_the_runtime_config_and_three_named_sites_read_the_environment() {
    let (crates, files) = sources();
    let allowed: Vec<PathBuf> = ALLOWED.iter().map(|f| crates.join(f)).collect();
    let mut found = Vec::new();
    for file in files.iter().filter(|file| !allowed.contains(file)) {
        let src = std::fs::read_to_string(file).expect("readable source");
        if env_reads(&src) > 0 {
            found.push(file.display().to_string());
        }
    }
    assert!(
        found.is_empty(),
        "environment read outside the allowed sites: {found:?} — add a field to \
         `olive_memsim::RuntimeConfig` instead"
    );
    for file in &allowed {
        assert!(files.contains(file), "scan target drifted — {} not found", file.display());
    }
    // The runtime configuration reads the environment at exactly one site.
    let runtime = std::fs::read_to_string(&allowed[0]).expect("readable runtime.rs");
    assert_eq!(env_reads(&runtime), 1, "one environment read in RuntimeConfig::process");
}

/// The shapes the lint exists for must trip it, outside tests only.
#[test]
fn the_lint_catches_environment_reads() {
    let src = "fn f() {\n    let a = std::env::var(\"OLIVE_X\");\n    \
               let b = env::var_os(\"HOME\");\n    for (k, v) in std::env::vars() {}\n}\n";
    assert_eq!(env_reads(src), 3);
    let commented = "// std::env::var(\"OLIVE_X\") would be wrong here\nfn f() {}\n";
    assert_eq!(env_reads(commented), 0);
    let test_only =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::env::var(\"X\"); }\n}\n";
    assert_eq!(env_reads(test_only), 0);
    let temp_dir = "fn f() { let _ = std::env::temp_dir(); std::env::set_var(\"X\", \"1\"); }\n";
    assert_eq!(env_reads(temp_dir), 0, "only reads count");
}

/// Whether `src` detects a CPU feature, test modules included.
fn detects_the_cpu(src: &str) -> bool {
    code(src).contains(DETECTION)
}

#[test]
fn each_kernel_crate_detects_the_cpu_in_one_file() {
    let (crates, files) = sources();
    let mut found: Vec<String> = files
        .iter()
        .filter(|file| detects_the_cpu(&std::fs::read_to_string(file).expect("readable source")))
        .map(|file| file.strip_prefix(&crates).expect("under crates/").display().to_string())
        .collect();
    found.sort();
    assert_eq!(
        found, DETECTORS,
        "CPU detection outside the kernel crates' one detection file each — enter the body \
         through the crate's per-level table (`get`, or `runnable` in a test) instead"
    );
}

/// Detection counts in test modules too; a comment does not.
#[test]
fn the_lint_catches_cpu_detection() {
    let test_only = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() -> bool {\n        \
                     std::arch::is_x86_feature_detected!(\"avx2\")\n    }\n}\n";
    assert!(detects_the_cpu(test_only));
    let imported = "use std::arch::is_x86_feature_detected as has;\n";
    assert!(detects_the_cpu(imported));
    let commented = "// is_x86_feature_detected!(\"avx2\") lives in isa.rs\nfn f() {}\n";
    assert!(!detects_the_cpu(commented));
}
