//! Job mixes: the fraction of operations that are adds.

use std::fmt;

/// A job mix: the target fraction of add operations.
///
/// "Clearly, job mixes of 50% or higher are sufficient, adding more
/// elements than are removed. Job mixes of less than 50% adds are termed
/// sparse."
///
/// ```
/// use workload::JobMix;
/// let m = JobMix::from_percent(40);
/// assert!(m.is_sparse());
/// assert!(!JobMix::from_percent(50).is_sparse());
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct JobMix(f64);

impl JobMix {
    /// Creates a mix from a fraction in `0.0..=1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `0.0..=1.0` or is NaN.
    pub fn new(fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "job mix must be a fraction in [0, 1], got {fraction}"
        );
        JobMix(fraction)
    }

    /// Creates a mix from a percentage in `0..=100`.
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    pub fn from_percent(percent: u32) -> Self {
        assert!(percent <= 100, "job mix percent must be <= 100, got {percent}");
        JobMix(f64::from(percent) / 100.0)
    }

    /// The fraction of adds.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The percentage of adds (rounded).
    pub fn percent(self) -> u32 {
        (self.0 * 100.0).round() as u32
    }

    /// Sparse mixes remove more than they add (< 50% adds).
    pub fn is_sparse(self) -> bool {
        self.0 < 0.5
    }

    /// Sufficient mixes add at least as much as they remove (≥ 50% adds).
    pub fn is_sufficient(self) -> bool {
        !self.is_sparse()
    }

    /// The paper's sweep: "all job mixes from zero to 100% add operations
    /// were tested, in steps of 10%".
    pub fn paper_sweep() -> Vec<JobMix> {
        (0..=10).map(|step| JobMix::from_percent(step * 10)).collect()
    }
}

impl fmt::Display for JobMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip() {
        for p in (0..=100).step_by(5) {
            assert_eq!(JobMix::from_percent(p).percent(), p);
        }
    }

    #[test]
    fn sparse_boundary() {
        assert!(JobMix::from_percent(49).is_sparse());
        assert!(JobMix::from_percent(50).is_sufficient());
        assert!(JobMix::from_percent(0).is_sparse());
        assert!(JobMix::from_percent(100).is_sufficient());
    }

    #[test]
    fn paper_sweep_is_eleven_points() {
        let sweep = JobMix::paper_sweep();
        assert_eq!(sweep.len(), 11);
        assert_eq!(sweep[0].percent(), 0);
        assert_eq!(sweep[10].percent(), 100);
        assert!(sweep.windows(2).all(|w| w[1].percent() - w[0].percent() == 10));
    }

    #[test]
    #[should_panic(expected = "must be <= 100")]
    fn over_100_percent_panics() {
        let _ = JobMix::from_percent(101);
    }

    #[test]
    #[should_panic(expected = "fraction in [0, 1]")]
    fn nan_fraction_panics() {
        let _ = JobMix::new(f64::NAN);
    }
}
