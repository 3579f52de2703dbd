//! Order statistics and the pair rule used to judge a change.

/// Samples a reported percentile needs beyond it before it means anything.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank percentile `p` (in `0..=100`) of ascending `sorted`
/// samples: the smallest sample with at least `p` % of the samples at or
/// below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).saturating_sub(1)]
}

/// One-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps exact ranks such as 99.9 % of 10 000 from rounding up.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the usual reporting percentiles that still has
/// [`MIN_TAIL_SAMPLES`] samples beyond it, if any.
pub fn highest_resolved(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so spreads printed
/// here match the ones an external checker computes.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let (ld, n) = (v.len() as i64, 4i64);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Signed on purpose: the clamp can put `j * n` above `i * m`.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much better `new` is than `old` (negative when worse).
    fn gain(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => old - new,
            Better::Higher => new - old,
        }
    }
}

/// The verdict of [`judge`] on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least nine pairs in ten and moved the median by more than
    /// the parent's interquartile distance.
    Gain,
    /// The median worsened by more than the metric's bound.
    Regression,
    /// Run-to-run spread exceeds the bound, so "no regression" cannot be
    /// claimed.
    Unresolved,
    /// Within the bound, and not a gain.
    NoRegression,
    /// An exact metric (no bound) read the same on every run of both sides.
    Identical,
    /// An exact metric changed in the better direction.
    Better,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoRegression => "no regression",
            Verdict::Identical => "identical",
            Verdict::Better => "changed (better)",
        }
    }
}

/// Summary of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let [q1, _, q3] = quartiles(values);
        Side { median: median(values), q1, q3 }
    }
}

/// A judged (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub parent: Side,
    pub change: Side,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    pub pairs: usize,
}

/// Runs a comparison needs per side.
pub const MIN_PAIRS: usize = 10;

/// Applies the pair rule to `parent[i]`/`change[i]` run pairs. `bound` is
/// the share of the parent's median the metric may worsen by; `None`
/// marks an exact metric (modeled quantities and failure counts), which
/// may not move at all.
///
/// # Errors
///
/// Fewer than [`MIN_PAIRS`] pairs.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> Result<Judgement, String> {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Err(format!("{pairs} run pairs; the pair rule needs at least {MIN_PAIRS}"));
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let wins = parent.iter().zip(change).filter(|(p, c)| better.gain(**p, **c) > 0.0).count();
    let (ps, cs) = (Side::of(parent), Side::of(change));
    let moved = better.gain(ps.median, cs.median);
    let verdict = match bound {
        None => {
            if parent.iter().chain(change).all(|v| v.to_bits() == parent[0].to_bits()) {
                Verdict::Identical
            } else if moved > 0.0 {
                Verdict::Better
            } else {
                Verdict::Regression
            }
        }
        Some(bound) => {
            let every_run_better =
                parent.iter().all(|p| change.iter().all(|c| better.gain(*p, *c) > 0.0));
            let spread = relative_spread(parent).max(relative_spread(change));
            if wins * 10 >= pairs * 9 && moved > ps.q3 - ps.q1 {
                Verdict::Gain
            } else if spread > bound && !every_run_better {
                Verdict::Unresolved
            } else if -moved > bound * ps.median.abs() {
                Verdict::Regression
            } else {
                Verdict::NoRegression
            }
        }
    };
    Ok(Judgement { verdict, parent: ps, change: cs, wins, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_resolved(99), Some(50.0));
        assert_eq!(highest_resolved(100), Some(90.0));
        assert_eq!(highest_resolved(999), Some(90.0));
        assert_eq!(highest_resolved(1000), Some(99.0));
        assert_eq!(highest_resolved(10_000), Some(99.9));
        assert_eq!(highest_resolved(19), None);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn pair_rule_finds_a_clear_gain() {
        // Every change run beats its parent, and the medians sit farther
        // apart than the parent's interquartile distance.
        let parent = runs(100.0, 1.0);
        let change = runs(80.0, 1.0);
        let j = judge(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Gain, 10, 10));
        let j = judge(&change, &parent, Better::Higher, Some(0.1)).unwrap();
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn pair_rule_rejects_a_gain_inside_the_noise() {
        // Wins every pair, but by less than the parent's own spread.
        let parent = runs(100.0, 4.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let j = judge(&parent, &change, Better::Lower, Some(0.5)).unwrap();
        assert_eq!((j.verdict, j.wins), (Verdict::NoRegression, 10));
        // Eight wins in ten is not enough even for a large move.
        let parent = runs(100.0, 1.0);
        let change: Vec<f64> = parent
            .iter()
            .enumerate()
            .map(|(i, p)| if i < 2 { p + 1.0 } else { p - 20.0 })
            .collect();
        let j = judge(&parent, &change, Better::Lower, Some(0.2)).unwrap();
        assert_eq!((j.wins, j.verdict), (8, Verdict::NoRegression));
    }

    #[test]
    fn pair_rule_flags_regressions_and_noise() {
        let parent = runs(100.0, 0.5);
        let slower = runs(120.0, 0.5);
        let j = judge(&parent, &slower, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(j.verdict, Verdict::Regression);
        let j = judge(&parent, &runs(105.0, 0.5), Better::Lower, Some(0.1)).unwrap();
        assert_eq!(j.verdict, Verdict::NoRegression);
        // A spread wider than the bound leaves the metric unresolved.
        let noisy = runs(60.0, 10.0);
        let j = judge(&noisy, &noisy, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        assert!(judge(&parent[..9], &slower[..9], Better::Lower, Some(0.1)).is_err());
    }

    #[test]
    fn exact_metrics_may_not_move() {
        let same = vec![92.2; 10];
        assert_eq!(judge(&same, &same, Better::Lower, None).unwrap().verdict, Verdict::Identical);
        let mut moved = same.clone();
        moved[3] = 92.3;
        let j = judge(&same, &moved, Better::Lower, None).unwrap();
        assert_eq!(j.verdict, Verdict::Regression);
        let j = judge(&same, &[90.0; 10], Better::Lower, None).unwrap();
        assert_eq!(j.verdict, Verdict::Better);
    }
}
