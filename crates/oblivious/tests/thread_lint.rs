//! Source lint: the worker pool (`src/pool.rs`) is the only place the
//! workspace's library and binary code starts a thread. Every parallel
//! region — client training, the upload open, Grouped's waves, Baseline's
//! scan, the sort kernel's passes — runs on the pool with the caller as
//! worker 0, so a `std::thread::scope` or `std::thread::spawn` anywhere
//! else under `crates/*/src` would bring back per-round thread starts and
//! a second scheduling policy. Test modules (everything from a file's first
//! `#[cfg(test)]` on) and comments are not held to it.

use std::path::{Path, PathBuf};

/// What starts a thread.
const BANNED: [&str; 3] = ["thread::scope", "thread::spawn", "thread::Builder"];

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
    src[..end.unwrap_or(src.len())]
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every banned use in `src`, as a message.
fn violations(src: &str) -> Vec<&'static str> {
    let code = implementation(src);
    BANNED.into_iter().filter(|banned| code.contains(banned)).collect()
}

#[test]
fn only_the_pool_starts_threads() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/ directory");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).expect("crates/ lists") {
        let src = krate.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let pool = crates.join("oblivious/src/pool.rs");
    assert!(files.contains(&pool), "scan target drifted — {} not found", pool.display());
    assert!(files.len() > 50, "the scan reached only {} files", files.len());
    let mut found = Vec::new();
    for file in files.iter().filter(|&file| file != &pool) {
        let src = std::fs::read_to_string(file).expect("readable source");
        for banned in violations(&src) {
            found.push(format!("{}: `{banned}`", file.display()));
        }
    }
    assert!(
        found.is_empty(),
        "threads started outside the pool: {found:?} — spawn on `olive_oblivious::pool` instead"
    );
    // The pool itself starts threads at exactly one site.
    let pool_src = implementation(&std::fs::read_to_string(&pool).expect("readable pool"));
    assert_eq!(pool_src.matches("thread::Builder").count(), 1, "one spawn site in the pool");
}

/// The shapes the lint exists for must trip it, outside tests only.
#[test]
fn the_lint_catches_thread_starts() {
    let src = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| ());\n    });\n    \
               let h = std::thread::spawn(|| ());\n}\n";
    assert_eq!(violations(src), ["thread::scope", "thread::spawn"]);
    let commented = "// a std::thread::scope would be wrong here\nfn f() {}\n";
    assert!(violations(commented).is_empty());
    let test_only =
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::thread::scope(|_| ()) }\n}\n";
    assert!(violations(test_only).is_empty());
    let test_item_then_code =
        "#[cfg(test)]\nfn probe() {}\nfn f() { std::thread::spawn(|| ()); }\n";
    assert_eq!(violations(test_item_then_code), ["thread::spawn"]);
}
