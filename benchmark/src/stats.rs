//! Order statistics over repetition samples, and the output digest.

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this benchmark reports are the spreads its driver sees.
/// A single sample is its own quartiles; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// The median (second quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The `p`-th percentile (`0.0..=100.0`) by linear interpolation between
/// closest ranks; zero for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let Some(last) = data.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    data[lo] + (data[hi] - data[lo]) * (rank - lo as f64)
}

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// A 64-bit FNV-1a fold over the words of a run's outputs. Independent of
/// the system under test, so a digest mismatch can only come from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([5,1,9,3,7,2,8], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(
            quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]),
            [2.0, 5.0, 8.0]
        );
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(quartiles(&[]), [0.0; 3]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(percentile(&[], 95.0), 0.0);
        let one = Summary::of(&[2.0]);
        assert_eq!(
            (one.min, one.q1, one.median, one.q3, one.max),
            (2.0, 2.0, 2.0, 2.0, 2.0)
        );
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!((percentile(&v, 95.0) - 48.0).abs() < 1e-12);
        assert_eq!(median(&v), 30.0);
    }

    #[test]
    fn summary_holds_count_extremes_and_quartiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[1, 3, 2]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[1, 2]));
        assert_eq!(fold(&[]).hex().len(), 16);
    }
}
