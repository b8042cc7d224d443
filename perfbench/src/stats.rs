//! Pure measurement rules: percentiles, medians, the capacity search and
//! load accounting.  Kept free of deployment code so the unit tests can pin
//! each rule on synthetic inputs.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`p` in `(0, 1)`) of sorted samples, or
/// `None` unless at least [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of unsorted values (mean of the two middle values for an
/// even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Admission and completion counts of one open-loop run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Arrivals the generators produced.
    pub offered: u64,
    /// Arrivals refused by the in-flight bound.
    pub shed: u64,
    /// Commands admitted to the service.
    pub submitted: u64,
    /// Commands whose ordered completion reached the issuing member.
    pub completed: u64,
}

impl Accounting {
    /// Admitted commands that had not completed when the run ended.
    pub fn unfinished(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }

    /// Arrivals that did not complete: shed, lost and unfinished alike.
    pub fn failed(&self) -> u64 {
        self.offered.saturating_sub(self.completed)
    }

    /// `failed ÷ offered` (0 for an empty run).
    pub fn failed_frac(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.offered as f64
    }

    /// Checks `offered = completed + shed + unfinished`.
    pub fn balanced(&self) -> bool {
        self.completed <= self.submitted
            && self.offered == self.completed + self.shed + self.unfinished()
    }
}

/// What one probe at an offered rate observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Completed ÷ offered.
    pub goodput: f64,
    /// The 99th percentile latency, `None` with too few samples.
    pub p99_ms: Option<f64>,
    /// The planned arrival window, s.
    pub window_s: f64,
    /// From the first planned arrival to the last completion, s.
    pub span_s: f64,
    /// Arrivals each generator offered.
    pub per_generator: f64,
}

impl Probe {
    /// True when the probe meets the SLO: goodput ≥ 0.99, a reportable p99
    /// at or below `slo_ms`, and no growing backlog — the last completion
    /// comes within the SLO of the arrival window's end, give or take four
    /// standard deviations of a Poisson generator's time to offer its
    /// arrivals (`window / √n`).  Arrivals are generated on the members'
    /// own node threads, so a generator that falls behind is a saturated
    /// node and counts as backlog too.
    pub fn meets(&self, slo_ms: f64) -> bool {
        let spread = 4.0 / self.per_generator.max(1.0).sqrt();
        self.goodput >= 0.99
            && self.p99_ms.is_some_and(|p| p <= slo_ms)
            && self.span_s <= self.window_s * (1.0 + spread) + slo_ms / 1e3
    }
}

/// The result of a capacity search.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// The highest probed rate that met the SLO.
    pub rate: f64,
    /// The lowest probed rate that missed it.
    pub failing_rate: f64,
    /// Every probe, in order: `(rate, met)`.
    pub probes: Vec<(f64, bool)>,
}

/// Bisects for the highest rate meeting the SLO between `lo` (expected to
/// pass) and `hi` (expected to fail), after confirming both ends.
///
/// When `lo` fails, the search halves downwards; when `hi` passes, it
/// doubles upwards — at most `steps` times either way, so the bracket is
/// set by the system, not by the starting guesses.  `steps` further
/// bisection probes then narrow the bracket.
pub fn search_capacity(
    mut lo: f64,
    mut hi: f64,
    steps: u32,
    mut probe: impl FnMut(f64) -> bool,
) -> Capacity {
    let mut probes = Vec::new();
    let mut run = |rate: f64, probes: &mut Vec<(f64, bool)>| {
        let met = probe(rate);
        probes.push((rate, met));
        met
    };
    let mut tries = 0;
    while !run(lo, &mut probes) && tries < steps {
        hi = lo;
        lo /= 2.0;
        tries += 1;
    }
    tries = 0;
    while run(hi, &mut probes) && tries < steps {
        lo = hi;
        hi *= 2.0;
        tries += 1;
    }
    for _ in 0..steps {
        let mid = (lo + hi) / 2.0;
        if run(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Capacity {
        rate: lo,
        failing_rate: hi,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0), "exactly ten beyond");
        assert_eq!(percentile(&v[..999], 0.99), None, "only nine beyond");
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_counts_shed_and_unfinished() {
        let a = Accounting {
            offered: 100,
            shed: 5,
            submitted: 95,
            completed: 90,
        };
        assert_eq!(a.unfinished(), 5);
        assert_eq!(a.failed(), 10);
        assert!((a.failed_frac() - 0.10).abs() < 1e-12);
        assert!(a.balanced());
        let lost = Accounting {
            offered: 100,
            shed: 0,
            submitted: 90,
            completed: 90,
        };
        assert!(!lost.balanced(), "ten arrivals neither shed nor submitted");
        assert_eq!(Accounting::default().failed_frac(), 0.0);
    }

    /// A synthetic system: p99 grows like an M/M/1 queue towards a knee at
    /// 1000 cmds/s, and goodput collapses past it.
    fn synthetic(rate: f64) -> Probe {
        let knee = 1000.0;
        if rate >= knee {
            return Probe {
                goodput: knee / rate,
                p99_ms: Some(1e3),
                window_s: 1.0,
                span_s: rate / knee,
                per_generator: 1e4,
            };
        }
        Probe {
            goodput: 1.0,
            p99_ms: Some(1.0 / (1.0 - rate / knee)),
            window_s: 1.0,
            span_s: 1.0,
            per_generator: 1e4,
        }
    }

    #[test]
    fn bisection_finds_the_slo_knee() {
        // p99 ≤ 10 ms holds up to 900 cmds/s.
        let cap = search_capacity(100.0, 5000.0, 8, |r| synthetic(r).meets(10.0));
        assert!(cap.rate <= 900.0 && cap.rate > 880.0, "{cap:?}");
        assert!(cap.failing_rate > 900.0);
        assert!(!cap.probes.iter().any(|&(r, met)| met && r > 900.0));
        // The highest probed rate missed the SLO.
        let top = cap.probes.iter().map(|p| p.0).fold(0.0, f64::max);
        assert!(cap.probes.contains(&(top, false)));
    }

    #[test]
    fn bisection_widens_a_bad_bracket() {
        // Both guesses above the knee: the search halves down first.
        let cap = search_capacity(2000.0, 4000.0, 8, |r| synthetic(r).meets(10.0));
        assert!(cap.rate <= 900.0 && cap.rate > 800.0, "{cap:?}");
        // Both guesses below it: the search doubles up.
        let cap = search_capacity(50.0, 100.0, 8, |r| synthetic(r).meets(10.0));
        assert!(cap.rate <= 900.0 && cap.rate > 850.0, "{cap:?}");
    }

    #[test]
    fn slo_needs_goodput_and_a_reportable_tail() {
        let ok = Probe {
            goodput: 1.0,
            p99_ms: Some(2.0),
            window_s: 1.0,
            span_s: 1.002,
            per_generator: 1e4,
        };
        assert!(ok.meets(5.0));
        assert!(!ok.meets(1.0));
        assert!(!Probe {
            goodput: 0.98,
            ..ok
        }
        .meets(5.0));
        assert!(!Probe { p99_ms: None, ..ok }.meets(5.0));
        assert!(
            !Probe { span_s: 1.1, ..ok }.meets(5.0),
            "completions trail the window: a backlog grew"
        );
        assert!(
            Probe {
                span_s: 1.1,
                per_generator: 100.0,
                ..ok
            }
            .meets(5.0),
            "within the Poisson spread of a 100-arrival window"
        );
    }
}
