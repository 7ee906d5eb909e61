//! Paper-shape pins for Figures 6 and 7 at trial scale.
//!
//! The paper's performance result comes from an in-order core that stalls
//! on memory, and DESIGN.md §5 states the shape this reproduction must
//! keep. The bands below are §5's, written down before the first run: a
//! "≈ x" target passes within ±50 % of x. They are deliberately not fitted
//! to measured values, so a model change that moves the headline fails
//! here instead of only in the docs: a default window of 4 cuts the trial
//! Figure 6 mean to 0.17 % and Figure 7's 5-cycle point to 0.08 %.

use experiments::{fig6, fig7, Scale};
use workloads::profiles::memory_intensive;

/// §5, Figure 6: mean slowdown ≈ 1.3 %.
const FIG6_MEAN: (f64, f64) = (0.0065, 0.0195);
/// §5, Figure 7: baseline PT-Guard ≈ 0.7 % at a 5-cycle MAC.
const FIG7_AT_5: (f64, f64) = (0.0035, 0.0105);
/// §5, Figure 7: baseline PT-Guard ≈ 2.6 % at a 20-cycle MAC.
const FIG7_AT_20: (f64, f64) = (0.013, 0.039);
/// §5, Figure 7: Optimized PT-Guard stays below 0.3 %.
const OPTIMIZED_CEILING: f64 = 0.003;
/// Minimum Spearman rank correlation between LLC MPKI and slowdown.
const MIN_RANK_CORRELATION: f64 = 0.8;

fn in_band(x: f64, (lo, hi): (f64, f64)) -> bool {
    (lo..=hi).contains(&x)
}

/// Ranks of `xs` (1-based, ties share their average rank).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman's rank correlation: Pearson's correlation of the ranks.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = rx.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var = |r: &[f64], m: f64| r.iter().map(|a| (a - m) * (a - m)).sum::<f64>();
    cov / (var(&rx, mx) * var(&ry, my)).sqrt()
}

#[test]
fn trial_fig6_has_paper_shape() {
    let r = fig6::run(Scale::Trial);
    assert_eq!(r.rows.len(), 25);
    for row in &r.rows {
        assert!(
            row.normalized_ipc > 0.85 && row.normalized_ipc <= 1.001,
            "{row:?}"
        );
    }
    let slowdown = |row: &fig6::Fig6Row| 1.0 - row.normalized_ipc;

    // Slowdown rises with LLC MPKI.
    let mpki: Vec<f64> = r.rows.iter().map(|row| row.mpki).collect();
    let slow: Vec<f64> = r.rows.iter().map(slowdown).collect();
    let rho = spearman(&mpki, &slow);
    assert!(
        rho >= MIN_RANK_CORRELATION,
        "MPKI vs slowdown rank correlation {rho:.3}"
    );

    // The high-MPKI set (the paper's memory-intensive workloads, LLC MPKI
    // > 10) holds the slowest workload and is clearly slower than the rest.
    let high: Vec<&str> = memory_intensive().iter().map(|w| w.name).collect();
    let (worst, _) = r.worst();
    assert!(
        high.contains(&worst),
        "slowest workload {worst} is not high-MPKI"
    );
    let mean_of = |in_high: bool| {
        let xs: Vec<f64> = r
            .rows
            .iter()
            .filter(|row| high.contains(&row.name.as_str()) == in_high)
            .map(slowdown)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let (high_mean, rest_mean) = (mean_of(true), mean_of(false));
    assert!(
        high_mean >= 2.0 * rest_mean,
        "high-MPKI mean slowdown {high_mean:.4} vs the rest {rest_mean:.4}"
    );

    // The mean sits in the §5 band.
    assert!(
        in_band(r.mean_slowdown(), FIG6_MEAN),
        "mean slowdown {:.4} outside {FIG6_MEAN:?}",
        r.mean_slowdown()
    );
}

#[test]
fn trial_fig7_has_paper_shape() {
    let r = fig7::run(Scale::Trial);
    let avg = |design: &str, lat: u32| {
        r.point(design, lat)
            .unwrap_or_else(|| panic!("{design} at {lat} cycles"))
            .avg_slowdown
    };

    // Baseline PT-Guard rises with MAC latency between the §5 endpoints.
    let base: Vec<f64> = fig7::LATENCIES
        .iter()
        .map(|&lat| avg("PT-Guard", lat))
        .collect();
    assert!(
        base.windows(2).all(|w| w[0] < w[1]),
        "PT-Guard slowdown must rise with MAC latency: {base:?}"
    );
    assert!(
        in_band(avg("PT-Guard", 5), FIG7_AT_5),
        "PT-Guard at 5 cycles {:.4} outside {FIG7_AT_5:?}",
        avg("PT-Guard", 5)
    );
    assert!(
        in_band(avg("PT-Guard", 20), FIG7_AT_20),
        "PT-Guard at 20 cycles {:.4} outside {FIG7_AT_20:?}",
        avg("PT-Guard", 20)
    );

    // Optimized PT-Guard stays flat below 0.3 % at every latency.
    for &lat in &fig7::LATENCIES {
        let s = avg("Optimized PT-Guard", lat);
        assert!(
            s < OPTIMIZED_CEILING,
            "Optimized PT-Guard at {lat} cycles: {s:.4}"
        );
    }
}
