//! The count behind `attempted` and `failed`: operations and output checks
//! made, the ones that failed, and why (the first few).

/// Reasons kept; the count goes on.
const KEPT: usize = 8;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Count a failure of something already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT {
            self.errors.push(why);
        }
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_go_on_after_the_reasons_stop() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        for i in 0..20 {
            c.check(false, || format!("bad {i}"));
        }
        let mut total = Checks::default();
        total.fail("first".to_string());
        total.absorb(c);
        assert_eq!((total.attempted, total.failed), (21, 21));
        assert_eq!(total.errors.len(), KEPT);
        assert_eq!(total.errors[1], "bad 0");
    }
}
