//! A root integration test, where the cross-crate experiments live: its
//! calls count.

#[test]
fn flow() {
    assert_eq!(ipmark_core::used_by_root_test(), 5);
}
