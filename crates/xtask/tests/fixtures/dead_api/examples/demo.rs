//! An example: its calls count, through the façade and by method name.

use ipmark::core::used_by_example;
use ipmark::core::widget::Widget;

fn main() {
    let w = Widget {
        label: "demo".to_owned(),
    };
    println!("{} {}", used_by_example(), w.spin());
}
