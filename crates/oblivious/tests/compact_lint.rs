//! Source lint over the compaction (`src/compact.rs`). Its trace is
//! emitted from the length alone, so no trace test can see a branch on a
//! secret — a mark, a count handed up the recursion, an offset `z`, a
//! merge's `s` or `t` — in the data movement, the AVX-512 tile included.
//! This lint holds the code to shapes such a branch cannot take: the
//! implementation (everything before the test oracle, comments stripped)
//! may contain no `match`, `while`, `loop` or `break`, no `as usize]`
//! index, and every `if` condition must be one of [`ALLOWED_IFS`] — tests
//! of a block's length, listed verbatim, so that a new `if` fails here
//! until a reviewer has read it and added it.

use std::path::Path;

/// The `if` conditions the implementation may contain, each a test of a
/// block's length `n`.
const ALLOWED_IFS: [&str; 6] = [
    "n == 0",
    "n == 1",
    "n == 2",
    "n < TILE",
    "n == TILE",
    "!(n / TILE).ilog2().is_multiple_of(3)",
];

/// Implementation slice of `src/compact.rs`: everything before its first
/// `#[cfg(test)]` item, with comments stripped (docs may name the banned
/// shapes; only code is held to them).
fn implementation() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/compact.rs");
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let implementation = src.split("#[cfg(test)]").next().expect("split yields at least one piece");
    implementation
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether `src` has `word` as a whole word (`tile` contains no `if`).
fn has_word(src: &str, word: &str) -> bool {
    src.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|w| w == word)
}

/// Every rule `src` breaks, as a message.
fn violations(src: &str) -> Vec<String> {
    let mut found: Vec<String> = ["match", "while", "loop", "break"]
        .into_iter()
        .filter(|k| has_word(src, k))
        .map(|k| format!("`{k}`"))
        .collect();
    if src.contains("as usize]") {
        found.push("an `as usize]` index".into());
    }
    let conditions = src.split_whitespace().collect::<Vec<_>>().join(" ");
    for (at, _) in conditions.match_indices("if ") {
        let starts_word = !conditions[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        if starts_word {
            let condition = conditions[at + 3..].split(" {").next().unwrap_or("");
            if !ALLOWED_IFS.contains(&condition) {
                found.push(format!("`if {condition}`"));
            }
        }
    }
    found
}

#[test]
fn compaction_branches_only_on_lengths() {
    let src = implementation();
    let found = violations(&src);
    assert!(
        found.is_empty(),
        "src/compact.rs: found {found:?} — a secret may only form a swap mask; if a new `if` \
         tests a length alone, add it to ALLOWED_IFS"
    );
    // Sanity: the scan covered the recursion, the sweep and the tile.
    for anchor in ["fn block", "fn sweep", "fn off_compact64", "_mm512_mask_blend_epi64"] {
        assert!(src.contains(anchor), "scan target drifted — `{anchor}` not found");
    }
    // Every allowed condition is still in use: a stale entry is a hole.
    for condition in ALLOWED_IFS {
        assert!(src.contains(&format!("if {condition} {{")), "`if {condition}` no longer occurs");
    }
}

/// The branchy shapes the lint exists for must trip it.
#[test]
fn the_lint_catches_secret_branches() {
    let branchy = "fn merge(lower: &mut [u64], t: usize) {\n    if t < lower.len() {\n        \
                   lower[..t].fill(0);\n    }\n    while m > 0 { m -= 1; }\n    let x = \
                   table[mark as usize];\n    match s { true => loop { break }, false => {} }\n}";
    let found = violations(branchy);
    for rule in ["`if t < lower.len()`", "`while`", "an `as usize]` index", "`match`", "`loop`"] {
        assert!(found.iter().any(|f| f == rule), "{rule} not caught: {found:?}");
    }
    assert!(violations("fn f(n: usize) {\n    if n == 2 {\n    }\n}").is_empty());
}
