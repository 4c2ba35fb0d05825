//! Plain-text rendering of figure series.

use neutrino_common::stats::Summary;

/// Renders a header line.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Renders one labeled summary row (the box-plot figures).
pub fn pct_row(x_label: &str, system: &str, s: &Summary) {
    println!(
        "{x_label:>10}  {system:<18} p25={:>10.3}ms  p50={:>10.3}ms  p75={:>10.3}ms  p95={:>10.3}ms  n={}",
        s.p25, s.p50, s.p75, s.p95, s.count
    );
}

/// A ratio annotation ("Neutrino is 2.3x better").
pub fn ratio_note(label: &str, num: f64, den: f64) {
    if den > 0.0 && num.is_finite() && den.is_finite() {
        println!("   -> {label}: {:.2}x", num / den);
    }
}
