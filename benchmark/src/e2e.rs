//! The untraced run: every slot of the panel through `VolcanoML::fit`, for
//! the end-to-end metrics.

use std::path::Path;

use crate::layers::Res;
use crate::report::{median, peak_rss_mib, reset_peak_rss, RunOutput};
use crate::study::{check_quality, fit_checked, median_over, paths, prepare, Fitted};
use crate::workloads::Workload;

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    n_cpus: usize,
    out_dir: &Path,
) -> Res<RunOutput> {
    let mut out = RunOutput::default();
    let (mut setup, mut rss, mut fits) = (vec![], vec![], vec![]);
    for index in 0..w.slots(seconds) {
        reset_peak_rss();
        let slot = prepare(w, index, seed, scale, n_cpus)?;
        let fit_paths = paths(out_dir, w, index, "fit", w.observed);
        fits.push(fit_checked(w, &slot, &fit_paths, &mut out)?);
        setup.push(slot.setup_s);
        rss.push(peak_rss_mib());
    }
    check_quality(&fits, scale, &mut out);
    // Every figure is the median over the panel's slots.
    out.push("fit_wall_s", median_over(&fits, |f| f.wall_s), "s");
    let rate = |f: &Fitted| f.fresh() as f64 / f.search_s;
    out.push("trials_per_s", median_over(&fits, rate), "1/s");
    out.push(
        "final_test_loss",
        median_over(&fits, |f| f.test_loss),
        "loss",
    );
    out.push("peak_rss_mb", median(&rss), "MiB");
    out.push("setup_s", median(&setup), "s");
    Ok(out)
}
