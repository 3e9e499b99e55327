//! Log-space combinatorics: `ln Γ`, `ln C(n,k)`, binomial pmf/cdf/tail.
//!
//! Everything is computed in log space so that shard sizes of thousands of
//! miners (the Fig. 5 scale) do not overflow. `ln Γ` uses the Lanczos
//! approximation (g = 7, 9 coefficients), accurate to ~15 significant
//! digits over the range we use.

/// Lanczos coefficients for g = 7.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
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

/// Natural log of the gamma function for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps precision for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln n!`.
fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// `ln C(n, k)`; negative infinity when `k > n`.
fn ln_binomial_coeff(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial pmf `P(X = k)` for `X ~ Bin(n, p)`.
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_p = ln_binomial_coeff(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln_p.exp()
}

/// Binomial cdf `P(X ≤ k)`.
pub fn binomial_cdf(n: u64, k: u64, p: f64) -> f64 {
    if k >= n {
        return 1.0;
    }
    // Sum the smaller side for accuracy.
    if (k as f64) < n as f64 * p {
        (0..=k).map(|i| binomial_pmf(n, i, p)).sum::<f64>().min(1.0)
    } else {
        (1.0 - binomial_tail(n, k + 1, p)).clamp(0.0, 1.0)
    }
}

/// Binomial upper tail `P(X ≥ k)`.
pub fn binomial_tail(n: u64, k: u64, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    (k..=n).map(|i| binomial_pmf(n, i, p)).sum::<f64>().min(1.0)
}

/// The geometric series `Σ_{k=0}^{l} f^k`, with `l = None` meaning `l → ∞`
/// (requires `f < 1`). This is the "leader controlled for `l` consecutive
/// rounds" factor in Eqs. (3) and (6).
pub fn geometric_sum(f: f64, l: Option<u64>) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    match l {
        Some(l) => {
            if (f - 1.0).abs() < 1e-15 {
                (l + 1) as f64
            } else {
                (1.0 - f.powi(l as i32 + 1)) / (1.0 - f)
            }
        }
        None => {
            assert!(f < 1.0, "infinite geometric sum diverges at f = 1");
            1.0 / (1.0 - f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
    }

    #[test]
    fn factorials_match_direct_computation() {
        let mut direct = 0.0f64;
        for n in 1..=170u64 {
            direct += (n as f64).ln();
            assert!(close(ln_factorial(n), direct, 1e-10), "n={n}");
        }
        assert!(ln_factorial(0).abs() < 1e-12);
    }

    #[test]
    fn binomial_coefficients() {
        assert!(close(ln_binomial_coeff(5, 2), 10f64.ln(), 1e-12));
        assert!(close(ln_binomial_coeff(10, 5), 252f64.ln(), 1e-12));
        assert_eq!(ln_binomial_coeff(3, 4), f64::NEG_INFINITY);
        assert!(close(ln_binomial_coeff(1000, 500), 689.467, 0.001)); // ≈ ln(2^1000/√(500π))
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (100, 0.25), (1000, 0.33)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!(close(total, 1.0, 1e-9), "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn pmf_degenerate_p() {
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 1, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 4, 1.0), 0.0);
    }

    #[test]
    fn cdf_and_tail_are_complementary() {
        let (n, p) = (60u64, 0.25);
        for k in 0..n {
            let cdf = binomial_cdf(n, k, p);
            let tail = binomial_tail(n, k + 1, p);
            assert!(close(cdf + tail, 1.0, 1e-9), "k={k}");
        }
        assert_eq!(binomial_cdf(10, 10, 0.5), 1.0);
        assert_eq!(binomial_tail(10, 0, 0.5), 1.0);
        assert_eq!(binomial_tail(10, 11, 0.5), 0.0);
    }

    #[test]
    fn cdf_known_value() {
        // P(Bin(4, 0.5) ≤ 1) = (1 + 4)/16.
        assert!(close(binomial_cdf(4, 1, 0.5), 5.0 / 16.0, 1e-12));
        // P(Bin(2, 0.25) ≤ 0) = 0.5625.
        assert!(close(binomial_cdf(2, 0, 0.25), 0.5625, 1e-12));
    }

    #[test]
    fn tail_decreases_with_k() {
        let (n, p) = (100u64, 0.25);
        let mut prev = 1.0;
        for k in 0..=n {
            let t = binomial_tail(n, k, p);
            assert!(t <= prev + 1e-12);
            prev = t;
        }
    }

    #[test]
    fn geometric_sums() {
        assert!(close(geometric_sum(0.25, None), 4.0 / 3.0, 1e-12));
        assert!(close(geometric_sum(0.5, Some(2)), 1.75, 1e-12));
        assert!(close(geometric_sum(0.0, None), 1.0, 1e-12));
        assert!(close(geometric_sum(1.0, Some(3)), 4.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn infinite_sum_at_one_panics() {
        geometric_sum(1.0, None);
    }

    #[test]
    fn large_n_is_finite_and_sane() {
        // Stability at Fig. 5 scale.
        let p = binomial_pmf(100_000, 25_000, 0.25);
        assert!(p.is_finite() && p > 0.0 && p < 1.0);
        let t = binomial_tail(10_000, 5_001, 0.25);
        assert!(t.is_finite() && (0.0..1e-100).contains(&t));
    }
}
