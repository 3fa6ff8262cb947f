//! Grep-style lint over the constant-time backend sources: the `ct` and
//! `hw` engine modules must contain **no secret-indexed table lookups**
//! (`SBOX[b as usize]`-style) and no secret-conditioned control flow of
//! the kinds the table reference cipher (`src/aes.rs`, compiled into test
//! builds only) uses.
//!
//! Source scanning is a blunt instrument, so the rules are written to be
//! mechanically checkable: the backend modules simply never use the
//! patterns, rather than using them "safely". Implementation code is
//! scanned up to its `#[cfg(test)]` module (tests are free to index the
//! S-box — they verify against it).
//!
//! `engine/ct.rs` is held to more than the shared rules: its
//! implementation is straight-line code over fixed-trip `for` loops, so
//! `if`, `match`, `while`, `loop`, division and remainder are banned there
//! outright — public or secret operand alike (division is variable-time on
//! most cores). `engine/ct_x86.rs`, the vector planes the same body runs
//! on, is held to the same rules (the CPU-feature choice of a width lives
//! in `engine/mod.rs`). `engine/hw.rs` keeps the shared list: it has
//! CPU-feature and length checks.

use std::path::Path;

/// Implementation slice of a source file: everything before its unit-test
/// module, with comments stripped (docs may *name* the banned patterns;
/// only code is held to them).
fn implementation_of(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/engine").join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let implementation = src.split("#[cfg(test)]").next().expect("split yields at least one piece");
    implementation
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_clean(name: &str, src: &str) {
    // Secret-indexed lookup tables: the table cipher's S-box (and any
    // lookalike) plus the general `table[byte as usize]` indexing shape.
    // The constant-time modules index only with loop counters, which are
    // already `usize` and never need a cast inside the brackets.
    for forbidden in ["SBOX", "LUT", "as usize]", "lookup"] {
        assert!(
            !src.contains(forbidden),
            "{name}: found {forbidden:?} — secret-indexed table lookups are banned in the \
             constant-time backends"
        );
    }
    // Secret-conditioned branching: the backends select with masks, never
    // `if bit == 1`. The conditionals `hw.rs` does have are length and
    // CPU-feature checks — `if` on a masked bit value is the telltale
    // pattern of the table code.
    for forbidden in ["& 1 == 1", "& 1 != 0", "== 1 {"] {
        assert!(
            !src.contains(forbidden),
            "{name}: found {forbidden:?} — secret-bit branches are banned in the constant-time \
             backends (use mask arithmetic)"
        );
    }
}

/// The control-flow keywords (as whole words — `shift_rows` contains an
/// `if`) and variable-time operators `src` uses, of the six `engine/ct.rs`
/// may not contain. rustfmt puts binary operators between spaces.
fn control_flow_in(src: &str) -> Vec<&'static str> {
    let words: Vec<&str> = src.split(|c: char| !(c.is_alphanumeric() || c == '_')).collect();
    let keywords = ["if", "match", "while", "loop"].into_iter().filter(|k| words.contains(k));
    let operators = [" / ", " % "].into_iter().filter(|op| src.contains(op));
    keywords.chain(operators).collect()
}

#[test]
fn ct_backend_has_no_secret_indexed_lookups_or_branches() {
    let src = implementation_of("ct.rs");
    assert_clean("engine/ct.rs", &src);
    let found = control_flow_in(&src);
    assert!(
        found.is_empty(),
        "engine/ct.rs: found {found:?} — the ct backend is straight-line code; select with masks \
         and index with shifts and ANDs"
    );
    // Sanity: the scan actually covered the implementation.
    for anchor in ["sbox_circuit", "bmul64"] {
        assert!(src.contains(anchor), "scan target drifted — `{anchor}` not found");
    }
}

#[test]
fn ct_vector_planes_have_no_secret_indexed_lookups_or_branches() {
    let src = implementation_of("ct_x86.rs");
    assert_clean("engine/ct_x86.rs", &src);
    let found = control_flow_in(&src);
    assert!(
        found.is_empty(),
        "engine/ct_x86.rs: found {found:?} — the ct backend's vector planes are straight-line \
         code like engine/ct.rs; choose the width in engine/mod.rs"
    );
    for anchor in ["_mm256_xor_si256", "_mm512_xor_si512", "target_feature"] {
        assert!(src.contains(anchor), "scan target drifted — `{anchor}` not found");
    }
}

#[test]
fn hw_backend_has_no_secret_indexed_lookups_or_branches() {
    let src = implementation_of("hw.rs");
    assert_clean("engine/hw.rs", &src);
    assert!(src.contains("_mm_aesenc_si128"), "scan target drifted — AES-NI rounds not found");
}

/// The table reference cipher is *supposed* to contain the forbidden
/// patterns — if it stops matching, the lint above has lost its teeth.
/// The whole module is test-only (`#[cfg(test)] mod aes` in `lib.rs`), so
/// its code is everything before its own self-tests.
#[test]
fn table_backend_still_triggers_the_lint() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/aes.rs");
    let src = std::fs::read_to_string(path).unwrap();
    let (implementation, _) = src.split_once("\nmod tests {").expect("src/aes.rs has self-tests");
    assert!(implementation.contains("pub(crate) struct Aes"), "scan target drifted");
    assert!(
        implementation.contains("SBOX") && implementation.contains("as usize]"),
        "table cipher no longer matches the lint patterns; update ct_lint.rs"
    );
    let found = control_flow_in(implementation);
    assert!(
        ["if", "match", "while", " % "].iter().all(|c| found.contains(c)),
        "table cipher no longer trips the ct.rs control-flow rule (found {found:?})"
    );
    let lib = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs"));
    assert!(
        lib.unwrap().contains("#[cfg(test)]\nmod aes;"),
        "the table cipher must stay out of non-test builds"
    );
}
