# Counts the production lines of Rust sources, the way CI's size table
# reports them: every line but blank lines, `//` comment lines and
# `#[cfg(test)]` items, and among those the lines that open a `pub fn`.
# A `#[cfg(test)]` item is the attribute, any attributes after it and the
# item they annotate, up to the line on which the item's brackets are
# closed again and which ends in `;`, `,` or `}`; the lines after it
# count again. Brackets in char and one-line string literals and after a
# `//` do not count. Prints "lines pub_fns" over all the files it is
# given.
#
#   awk -f .github/size/count.awk crates/nn/src/*.rs
FNR == 1 { item = 0 }
!item && /^[[:space:]]*#\[cfg\(test\)\]/ { item = 1; depth = 0 }
item {
    code = $0
    gsub(/'([^'\\]|\\.)'/, "", code)
    gsub(/"([^"\\]|\\.)*"/, "", code)
    sub(/\/\/.*/, "", code)
    t = code; depth += gsub(/[[({]/, "", t)
    t = code; depth -= gsub(/[])}]/, "", t)
    if (depth <= 0 && code ~ /[;,}][[:space:]]*$/) item = 0
    next
}
/^[[:space:]]*(\/\/|$)/ { next }
{ lines++ }
/^[[:space:]]*pub fn / { fns++ }
END { print lines + 0, fns + 0 }
