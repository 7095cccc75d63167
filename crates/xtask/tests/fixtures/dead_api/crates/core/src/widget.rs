//! Methods: one reached only through a `.spin(` method call, one only as a
//! function pointer, and a trait-impl method. None is reported.

use std::fmt;

pub struct Widget {
    pub label: String,
}

impl Widget {
    /// Called as `w.spin()` from the example: kept.
    pub fn spin(&self) -> usize {
        self.label.len()
    }

    /// Passed as `.map(Widget::name)` from `perf_e2e/src`: kept.
    pub fn name(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for Widget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)
    }
}
