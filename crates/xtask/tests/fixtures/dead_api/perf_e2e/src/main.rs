//! The end-to-end benchmark: its calls count, function pointers included.

use ipmark_core::widget::Widget;

fn main() {
    let widgets = vec![Widget {
        label: "w".to_owned(),
    }];
    let names: Vec<&str> = widgets.iter().map(Widget::name).collect();
    println!("{names:?} {}", ipmark_core::used_by_perf_e2e());
}
