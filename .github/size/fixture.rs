//! The size counter's self-test (`count.awk` must print "7 2"): seven
//! production lines, two of them `pub fn`, around test-only items that
//! must hide nothing but themselves.

#[cfg(test)]
const ORACLE: [u32; 2] = [
    1, 2,
];

pub fn production() -> u32 {
    7
}

#[cfg(test)] mod one_line;

pub struct Kept {
    #[cfg(test)]
    probe: u8,
    value: u32,
}

#[cfg(test)]
#[allow(dead_code)]
fn helper(v: &[u32]) -> u32 {
    v.iter().map(|x| {
        x + 1 // a comment's bracket: (
    }).sum()
}

pub fn after_the_tests() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
