//! The §3.2 FPS claim: heavy OS cases "can only reach 95–105 FPS on the
//! 120 Hz screen" under VSync; D-VSync restores them to (near) full rate.

use crate::calibration::calibrated;
use crate::suite::{run_dvsync, run_vsync};
use dvs_metrics::{average_fps, min_window_fps};
use dvs_sim::SimDuration;
use dvs_workload::scenarios;
use serde::{Deserialize, Serialize};

/// One case's FPS pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FpsRow {
    /// Case abbreviation.
    pub case: String,
    /// Average FPS under VSync.
    pub vsync_fps: f64,
    /// Worst 250 ms window under VSync.
    pub vsync_min_fps: f64,
    /// Average FPS under D-VSync (4 buffers).
    pub dvsync_fps: f64,
}

/// Measures FPS for the notification/control-center cases the paper calls
/// out (Mate 60 Pro, 120 Hz).
pub fn run() -> Vec<FpsRow> {
    let window = SimDuration::from_millis(250);
    scenarios::mate60_vulkan_suite()
        .iter()
        .filter(|s| {
            ["cls notif ctr", "clr all notif", "tap cls notif", "cls ctrl ctr"]
                .contains(&s.abbrev.as_str())
        })
        .map(|raw| {
            let fitted = calibrated(raw, 3).spec;
            let v = run_vsync(&fitted, 3);
            let d = run_dvsync(&fitted, 4);
            FpsRow {
                case: fitted.abbrev.clone(),
                vsync_fps: average_fps(&v),
                vsync_min_fps: min_window_fps(&v, window).unwrap_or(0.0),
                dvsync_fps: average_fps(&d),
            }
        })
        .collect()
}

/// Renders the FPS rows.
pub fn render(rows: &[FpsRow]) -> String {
    let mut out = String::from(
        "§3.2 — FPS of heavy cases on the 120 Hz screen (paper: \"only 95-105 FPS\")\n",
    );
    out.push_str(&format!(
        "{:<16} {:>11} {:>14} {:>13}\n",
        "case", "VSync FPS", "worst 250 ms", "D-VSync FPS"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>11.1} {:>14.1} {:>13.1}\n",
            r.case, r.vsync_fps, r.vsync_min_fps, r.dvsync_fps
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_cases_live_in_the_papers_fps_band() {
        let rows = run();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                (90.0..112.0).contains(&r.vsync_fps),
                "{}: paper says 95-105 FPS, got {:.1}",
                r.case,
                r.vsync_fps
            );
            assert!(
                r.dvsync_fps > r.vsync_fps + 5.0,
                "{}: D-VSync restores rate ({:.1} vs {:.1})",
                r.case,
                r.dvsync_fps,
                r.vsync_fps
            );
            assert!(r.vsync_min_fps <= r.vsync_fps);
        }
    }
}
