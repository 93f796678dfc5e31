//! Figure 6: distribution of frames (drop / buffer stuffing / direct
//! composition) for the 25 apps under VSync triple buffering.
//!
//! The paper's point: after drops, most frames sit in the buffer queue for
//! an extra period (stuffing) — unnecessary latency the VSync architecture
//! bakes in.

use crate::calibration::calibrated;
use crate::suite::run_vsync;
use dvs_metrics::FrameDistribution;
use dvs_workload::scenarios;
use serde::{Deserialize, Serialize};

/// One app's bar.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppDistribution {
    /// App name.
    pub name: String,
    /// Direct / stuffed / dropped fractions.
    pub distribution: FrameDistribution,
}

/// Runs the 25-app suite and classifies every frame.
pub fn run() -> Vec<AppDistribution> {
    scenarios::android_app_suite()
        .iter()
        .map(|raw| {
            let fitted = calibrated(raw, 3).spec;
            let report = run_vsync(&fitted, 3);
            AppDistribution { name: fitted.name.clone(), distribution: report.distribution() }
        })
        .collect()
}

/// Renders the stacked bars as rows.
pub fn render(rows: &[AppDistribution]) -> String {
    let mut out = String::from("Fig. 6 — distribution of frames under VSync (3 buffers)\n");
    out.push_str(&format!("{:<16} {:>8} {:>10} {:>8}\n", "app", "drop%", "stuffing%", "direct%"));
    let mut sum = FrameDistribution { direct: 0.0, stuffed: 0.0, dropped: 0.0 };
    for r in rows {
        let d = r.distribution;
        out.push_str(&format!(
            "{:<16} {:>8.1} {:>10.1} {:>8.1}\n",
            r.name,
            d.dropped * 100.0,
            d.stuffed * 100.0,
            d.direct * 100.0
        ));
        sum.direct += d.direct;
        sum.stuffed += d.stuffed;
        sum.dropped += d.dropped;
    }
    let n = rows.len().max(1) as f64;
    out.push_str(&format!(
        "{:<16} {:>8.1} {:>10.1} {:>8.1}\n",
        "average",
        sum.dropped / n * 100.0,
        sum.stuffed / n * 100.0,
        sum.direct / n * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuffing_dominates_after_drops() {
        let rows = run();
        assert_eq!(rows.len(), 25);
        let avg_stuffed: f64 =
            rows.iter().map(|r| r.distribution.stuffed).sum::<f64>() / rows.len() as f64;
        let avg_dropped: f64 =
            rows.iter().map(|r| r.distribution.dropped).sum::<f64>() / rows.len() as f64;
        // The paper's Figure 6: stuffing is by far the largest share for
        // janky apps; drops themselves are a few percent.
        assert!(
            avg_stuffed > 3.0 * avg_dropped,
            "stuffed {avg_stuffed:.3} vs dropped {avg_dropped:.3}"
        );
        assert!(avg_stuffed > 0.2, "most frames wait in the queue: {avg_stuffed:.3}");
    }
}
