//! DC001 fail fixture: a `pub fn` that nothing calls but this file's unit
//! tests (line 3).
pub fn only_tested(x: u64) -> u64 {
    x + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_adds_one() {
        assert_eq!(only_tested(2), 3);
    }
}
