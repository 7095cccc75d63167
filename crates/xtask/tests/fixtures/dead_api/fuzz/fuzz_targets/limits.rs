//! A fuzz target: the consts it reads count.

fn main() {
    assert!(ipmark_core::FUZZ_LIMIT > 0);
}
