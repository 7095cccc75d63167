//! A bench binary: its calls count.

fn main() {
    println!("{}", ipmark_core::used_by_bench_bin());
}
