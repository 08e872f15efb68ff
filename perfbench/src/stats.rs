//! Order statistics for the reported metrics.

/// Linear-interpolated quantile of `v` (sorted in place), 0 if empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v`, 0 if empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Harrell–Davis estimate of quantile `q` of `v` (sorted in place), 0
/// if empty: a weighted mean of all order statistics, with weights from
/// the Beta((n+1)q, (n+1)(1-q)) distribution.
///
/// Report latencies cluster by trace, with gaps between clusters. A
/// single order statistic jumps across such a gap when two reports on
/// either side swap places; this estimate moves by the weight of the
/// ranks that changed. Near the tails of a small sample the weights
/// reach the extreme values, so it serves the median, not the p90.
pub fn hd_quantile(v: &mut [f64], q: f64) -> f64 {
    let n = v.len();
    if n <= 1 {
        return v.first().copied().unwrap_or(0.0);
    }
    v.sort_by(f64::total_cmp);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = inc_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// Natural log of the gamma function (Lanczos, g = 7), for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    if x < 0.5 {
        // Γ(x) = Γ(x + 1) / x keeps the series in its accurate range.
        return ln_gamma(x + 1.0) - x.ln();
    }
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series: f64 = C[0]
        + C[1..]
            .iter()
            .enumerate()
            .map(|(i, c)| c / (x + (i + 1) as f64))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Regularized incomplete beta function I_x(a, b), for `a, b > 0`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mode.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |d: f64| if d.abs() < TINY { TINY } else { d };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(Vec::new()), 0.0);
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 1) = x^2; I_x(1, 2) = 1 - (1 - x)^2.
        for x in [0.1, 0.3, 0.5, 0.9] {
            assert!(close(inc_beta(1.0, 1.0, x), x));
            assert!(close(inc_beta(2.0, 1.0, x), x * x));
            assert!(close(inc_beta(1.0, 2.0, x), 1.0 - (1.0 - x) * (1.0 - x)));
        }
        assert!(close(inc_beta(5.5, 5.5, 0.5), 0.5));
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln()));
    }

    #[test]
    fn harrell_davis_median_is_smooth() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!(close(hd_quantile(&mut v, 0.5), 5.0));
        // A middle value crossing a gap moves the estimate by far less
        // than the gap, where the plain median would jump across it.
        let mut a = vec![1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0];
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 4.5, 11.0, 12.0, 13.0, 14.0];
        let shift = hd_quantile(&mut a, 0.5) - hd_quantile(&mut b, 0.5);
        assert!(shift > 0.0 && shift < 0.5 * (10.0 - 4.5), "{shift}");
        assert_eq!(hd_quantile(&mut [7.0], 0.5), 7.0);
        assert_eq!(hd_quantile(&mut [], 0.5), 0.0);
    }
}
