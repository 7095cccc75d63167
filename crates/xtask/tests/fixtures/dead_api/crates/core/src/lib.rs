//! Dead-API fixture: the one library crate in scope. DA001 must report
//! exactly the three items marked "reported" below.

pub mod widget;

/// Called only from this crate's `#[cfg(test)]` module: reported.
pub fn test_only_helper() -> u32 {
    1
}

/// Called only from `crates/core/tests/`: reported.
pub fn crate_test_only() -> u32 {
    2
}

/// Called from `examples/demo.rs` through the façade: kept.
pub fn used_by_example() -> u32 {
    3
}

/// Called from the bench binary `crates/bench/src/bin/tool.rs`: kept.
pub fn used_by_bench_bin() -> u32 {
    4
}

/// Called from the root integration test `tests/flow.rs`: kept.
pub fn used_by_root_test() -> u32 {
    5
}

/// Called from `perf_e2e/src/main.rs`: kept.
pub fn used_by_perf_e2e() -> u32 {
    6
}

/// Used only by test code: reported.
pub const TEST_ONLY_LIMIT: u32 = 7;

/// Read by the fuzz target: kept.
pub const FUZZ_LIMIT: u32 = 8;

/// Crate-visible, so outside the rule whatever calls it.
pub(crate) fn internal() -> u32 {
    9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(test_only_helper() + TEST_ONLY_LIMIT + internal(), 17);
    }
}
