//! A crate-level integration test: its calls do not count.

#[test]
fn crate_test() {
    assert_eq!(ipmark_core::crate_test_only(), 2);
}
