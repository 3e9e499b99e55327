//! DC001 pass fixture: each `pub fn` the unit tests call has another
//! caller, or is outside the rule (a trait impl, `pub(crate)`).
pub struct Meter;

impl Meter {
    pub fn read(&self) -> u64 {
        1
    }

    /// Passed by path in `entry`, not called.
    pub fn twice(x: u64) -> u64 {
        x * 2
    }
}

impl Default for Meter {
    fn default() -> Self {
        Meter
    }
}

pub(crate) fn crate_helper() -> u64 {
    4
}

/// Called only by the integration test in `tests/`.
pub fn entry(m: &Meter) -> Vec<u64> {
    [m.read()].into_iter().map(Meter::twice).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_is_tested() {
        let m = Meter::default();
        assert_eq!(m.read() + Meter::twice(1) + crate_helper() + entry(&m)[0], 9);
    }
}
