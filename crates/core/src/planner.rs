//! Capacity planning: the binary search of Section 2.2.
//!
//! Given a workload profile, a response-time bound `δ`, and a guaranteed
//! fraction `f`, find the minimum capacity `Cmin` such that RTT decomposition
//! puts at least a fraction `f` of requests in the primary class. Because
//! RTT is optimal, no capacity below `Cmin` can guarantee `f` under *any*
//! partitioning — so the search yields the true provisioning requirement.

use std::fmt;

use gqos_trace::{Iops, SimDuration, Workload};

use crate::kernel::{
    budgeted_misses, count_misses, overflow_curve, overflow_curve_ns, RttParams, LANE_BATCH,
};
use crate::target::{Provision, QosTarget};

/// Why an SLA-menu request was rejected: a guaranteed fraction that is not
/// a real number in `(0, 1]`. Returned by [`CapacityPlanner::menu`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MenuError {
    /// The fraction at `index` is NaN or infinite.
    NotFinite {
        /// Position of the offending fraction in the request.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The fraction at `index` is outside the guaranteeable range `(0, 1]`.
    OutOfRange {
        /// Position of the offending fraction in the request.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for MenuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MenuError::NotFinite { index, value } => write!(
                f,
                "menu fraction #{index} must be a finite number (got {value})"
            ),
            MenuError::OutOfRange { index, value } => {
                write!(f, "menu fraction #{index} must be in (0, 1]: got {value}")
            }
        }
    }
}

impl std::error::Error for MenuError {}

/// Validates a menu request: every fraction finite and in `(0, 1]`.
fn validate_fractions(fractions: &[f64]) -> Result<(), MenuError> {
    for (index, &value) in fractions.iter().enumerate() {
        if !value.is_finite() {
            return Err(MenuError::NotFinite { index, value });
        }
        if value <= 0.0 || value > 1.0 {
            return Err(MenuError::OutOfRange { index, value });
        }
    }
    Ok(())
}

/// Plans capacity for one workload at a fixed deadline.
///
/// # Examples
///
/// ```
/// use gqos_core::CapacityPlanner;
/// use gqos_trace::{SimDuration, SimTime, Workload};
///
/// // A burst of 10 simultaneous requests, then silence.
/// let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
/// let planner = CapacityPlanner::new(&w, SimDuration::from_millis(10));
/// // All 10 within 10 ms needs 1000 IOPS; 50% needs only 500.
/// assert_eq!(planner.min_capacity(1.0).get(), 1000.0);
/// assert_eq!(planner.min_capacity(0.5).get(), 500.0);
/// ```
#[derive(Clone, Debug)]
pub struct CapacityPlanner<'w> {
    workload: &'w Workload,
    deadline: SimDuration,
}

impl<'w> CapacityPlanner<'w> {
    /// Creates a planner for `workload` with response-time bound `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(workload: &'w Workload, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        CapacityPlanner { workload, deadline }
    }

    /// The deadline being planned for.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Fraction of the workload RTT places in the primary class at
    /// `capacity` (1.0 for an empty workload).
    ///
    /// Runs the kernel's one scalar scan, as
    /// [`overflow_count`](crate::overflow_count) does: one allocation-free
    /// pass over the arrival column, no assignment vector. A degenerate
    /// capacity (`⌊C·δ⌋ = 0`) guarantees nothing (0.0).
    pub fn fraction_guaranteed(&self, capacity: Iops) -> f64 {
        let total = self.workload.len() as u64;
        if total == 0 {
            return 1.0;
        }
        let Some(p) = RttParams::try_new(capacity, self.deadline) else {
            return 0.0;
        };
        let col = self.workload.arrival_column().nanos();
        let primary = total - count_misses(col.iter().copied(), p, u64::MAX);
        primary as f64 / total as f64
    }

    /// [`fraction_guaranteed`](Self::fraction_guaranteed) for a whole
    /// capacity grid, evaluated by the fused [`overflow_curve`] kernel in a
    /// single pass over the workload. Degenerate capacities (`⌊C·δ⌋ = 0`)
    /// yield 0.0 (1.0 on an empty workload), exactly as the scalar method
    /// reports them.
    pub fn fraction_curve(&self, capacities: &[Iops]) -> Vec<f64> {
        let total = self.workload.len() as u64;
        if total == 0 {
            return vec![1.0; capacities.len()];
        }
        overflow_curve(self.workload, capacities, self.deadline)
            .into_iter()
            .map(|overflow| (total - overflow) as f64 / total as f64)
            .collect()
    }

    /// The minimum integer capacity (IOPS) guaranteeing at least `fraction`
    /// of the workload within the deadline — `Cmin(f, δ)`.
    ///
    /// Builds the workload's [`SeedCurve`] (one fused overflow pass over
    /// the doubling grid) and resolves the bracket it gives by wide
    /// bisection, as every `Cmin` quote in the crate is resolved.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn min_capacity(&self, fraction: f64) -> Iops {
        let budget = miss_budget(self.workload.len() as u64, fraction);
        let cmin = SeedCurve::new(self.workload, self.deadline).cmin(self.col(), budget, None);
        Iops::new(cmin as f64)
    }

    /// The workload's sorted arrival column in nanoseconds.
    fn col(&self) -> &[u64] {
        self.workload.arrival_column().nanos()
    }

    /// The full provision for a target: `Cmin(f, δ)` plus the default
    /// surplus `ΔC = 1/δ`.
    ///
    /// # Panics
    ///
    /// Panics if `target.deadline()` differs from this planner's deadline.
    pub fn provision(&self, target: QosTarget) -> Provision {
        assert_eq!(
            target.deadline(),
            self.deadline,
            "target deadline differs from planner deadline"
        );
        Provision::with_default_surplus(self.min_capacity(target.fraction()), self.deadline)
    }

    /// Evaluates `Cmin` for each fraction, producing one row of the paper's
    /// Table 1.
    ///
    /// One [`SeedCurve`] serves the whole row. The fractions are resolved
    /// in ascending order (results are returned in input order
    /// regardless): because `Cmin` is monotone in `f`, each result
    /// warm-starts the next fraction's lower bracket. Every entry equals
    /// [`min_capacity`](Self::min_capacity) of its fraction, bit for bit.
    ///
    /// # Errors
    ///
    /// Every fraction must be finite and in `(0, 1]`; otherwise the first
    /// offender is reported as a [`MenuError`] and no search runs.
    pub fn menu(&self, fractions: &[f64]) -> Result<Vec<SlaQuote>, MenuError> {
        validate_fractions(fractions)?;
        let seed = SeedCurve::new(self.workload, self.deadline);
        let mut order: Vec<usize> = (0..fractions.len()).collect();
        order.sort_by(|&a, &b| fractions[a].total_cmp(&fractions[b]));
        let mut cmins = vec![0; fractions.len()];
        let mut warm = None;
        for i in order {
            let budget = miss_budget(self.workload.len() as u64, fractions[i]);
            let cmin = seed.cmin(self.col(), budget, warm);
            cmins[i] = cmin;
            warm = Some(cmin);
        }
        Ok(fractions
            .iter()
            .zip(cmins)
            .map(|(&fraction, cmin)| SlaQuote {
                target: QosTarget::new(fraction, self.deadline),
                cmin: Iops::new(cmin as f64),
            })
            .collect())
    }
}

/// The miss budget for `fraction` over a workload of `total` requests: the
/// largest overflow count that still leaves a primary fraction of at least
/// `fraction` under the exact `primary/total >= fraction` comparison
/// [`CapacityPlanner::fraction_guaranteed`] performs.
///
/// The smallest integer `need` with `need/total >= fraction` is first
/// estimated in floating point and then adjusted to match f64 division
/// exactly, so budget probes and fraction comparisons can never disagree.
///
/// # Panics
///
/// Panics if `fraction` is outside `(0, 1]`: every `Cmin` quote derives
/// its budget here, so this is where the fraction is checked.
pub(crate) fn miss_budget(total: u64, fraction: f64) -> u64 {
    assert!(
        fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0, 1]: {fraction}"
    );
    if total == 0 {
        return 0;
    }
    let mut need = ((fraction * total as f64).ceil() as u64).min(total);
    while need > 0 && (need - 1) as f64 / total as f64 >= fraction {
        need -= 1;
    }
    while need < total && (need as f64) / (total as f64) < fraction {
        need += 1;
    }
    total - need
}

/// The smallest integer capacity with a non-degenerate RTT bound at
/// `deadline`, `⌈1/δ⌉` IOPS: the least `C` with `⌊C·δ⌋ ≥ 1`. Every
/// capacity search starts here.
///
/// # Examples
///
/// ```
/// use gqos_core::capacity_floor;
/// use gqos_trace::SimDuration;
///
/// assert_eq!(capacity_floor(SimDuration::from_millis(20)), 50);
/// assert_eq!(capacity_floor(SimDuration::from_millis(30)), 34);
/// assert_eq!(capacity_floor(SimDuration::from_secs(5)), 1);
/// ```
///
/// # Panics
///
/// Panics if `deadline` is zero.
pub fn capacity_floor(deadline: SimDuration) -> u64 {
    1_000_000_000u64.div_ceil(deadline.as_nanos())
}

/// Wide bisection over a raw arrival column: shrinks the bracket
/// `(lo fails, hi meets]` to the unique minimal integer capacity meeting
/// `budget`, probing up to [`LANE_BATCH`] interior capacities per fused
/// [`budgeted_misses`] pass (~9× bracket shrink per pass
/// instead of 2×). Requires `lo < hi`, `lo` failing and `hi` meeting.
/// Its one caller is [`SeedCurve::cmin`].
fn resolve_cmin_ns(
    col: &[u64],
    deadline: SimDuration,
    budget: u64,
    mut lo: u64,
    mut hi: u64,
) -> u64 {
    while hi - lo > 1 {
        let width = (hi - lo) as u128;
        let m = (width - 1).min(LANE_BATCH as u128) as u64;
        let point = |i: u64| lo + (width * i as u128 / (m as u128 + 1)) as u64;
        let probes: Vec<(Iops, u64)> = (1..=m)
            .map(|i| (Iops::new(point(i) as f64), budget))
            .collect();
        let misses = budgeted_misses(col, &probes, deadline);
        // Overflow is monotone in capacity: the verdicts flip from
        // failing to meeting exactly once across the probes.
        let mut new_lo = lo;
        let mut new_hi = hi;
        for (k, &count) in misses.iter().enumerate() {
            let c = point(k as u64 + 1);
            if count <= budget {
                new_hi = c;
                break;
            }
            new_lo = c;
        }
        (lo, hi) = (new_lo, new_hi);
    }
    hi
}

/// The doubling capacity seed grid `⌈1/δ⌉·2^k` of one workload at one
/// deadline (stopping once `⌊C·δ⌋ ≥ N`, a capacity that admits
/// everything), with its exact overflow counts from one fused
/// [`overflow_curve`] pass.
///
/// Built once per `(workload, deadline)`, a seed curve brackets
/// `Cmin(f, δ)` for *every* fraction at once:
/// [`bracket`](Self::bracket) maps a miss budget to the consecutive grid
/// pair `(failing lo, meeting hi)`, leaving only a narrow bisection to
/// resolve the exact quote. Its crate-private `cmin` is the crate's one
/// `Cmin` resolver: [`CapacityPlanner::min_capacity`] and
/// [`menu`](CapacityPlanner::menu) build a seed per call, the fleet
/// [`QuoteCache`](crate::QuoteCache) keeps one per tenant, and a
/// [`ServerBin`](crate::ServerBin) builds one over its merged column.
#[derive(Clone, Debug)]
pub struct SeedCurve {
    deadline: SimDuration,
    grid: Vec<u64>,
    counts: Vec<u64>,
}

impl SeedCurve {
    /// Builds the seed curve: one fused overflow pass over the doubling
    /// grid.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(workload: &Workload, deadline: SimDuration) -> Self {
        SeedCurve::from_nanos(workload.arrival_column().nanos(), deadline)
    }

    /// [`new`](Self::new) over a raw sorted arrival column — the fleet
    /// consolidation path holds merged columns, not [`Workload`]s.
    pub(crate) fn from_nanos(col: &[u64], deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        let n = col.len() as u64;
        let floor = capacity_floor(deadline);
        let mut grid = vec![floor];
        let mut c = floor;
        while Iops::new(c as f64).requests_within(deadline) < n {
            c = c.checked_mul(2).expect("capacity search overflow");
            grid.push(c);
        }
        let capacities: Vec<Iops> = grid.iter().map(|&c| Iops::new(c as f64)).collect();
        let counts = overflow_curve_ns(col, &capacities, deadline);
        SeedCurve {
            deadline,
            grid,
            counts,
        }
    }

    /// The doubling capacity grid (IOPS), ascending from the domain floor
    /// `⌈1/δ⌉`.
    pub fn grid(&self) -> &[u64] {
        &self.grid
    }

    /// The bracket for a miss budget: `(Some(lo), hi)` where `lo` is the
    /// largest grid capacity exceeding the budget and `hi` the smallest
    /// meeting it, or `(None, floor)` when the domain floor already meets
    /// it (then `floor` *is* `Cmin`). A meeting `hi` always exists: the
    /// grid's last capacity admits the whole workload.
    pub fn bracket(&self, budget: u64) -> (Option<u64>, u64) {
        let j = self
            .counts
            .iter()
            .position(|&overflow| overflow <= budget)
            .expect("seed grid tops out at an admit-all capacity");
        if j == 0 {
            (None, self.grid[0])
        } else {
            (Some(self.grid[j - 1]), self.grid[j])
        }
    }

    /// `Cmin` for `budget` over `col`, the column this curve was built
    /// from: the least integer capacity whose overflow count is at most
    /// `budget`. The curve's bracket is resolved by wide bisection; an
    /// empty column, or any budget the floor meets, brackets to
    /// `(None, ⌈1/δ⌉)` and returns the floor with no probe.
    ///
    /// `warm` is `Cmin` of the same column for a budget at least as large
    /// (an easier fraction): `warm − 1` cannot meet this one either, so it
    /// raises the lower end of the bracket. It changes how many probes
    /// run, never the answer.
    pub(crate) fn cmin(&self, col: &[u64], budget: u64, warm: Option<u64>) -> u64 {
        match self.bracket(budget) {
            (None, floor) => floor,
            (Some(lo), hi) => {
                let lo = lo.max(warm.unwrap_or(0).saturating_sub(1));
                resolve_cmin_ns(col, self.deadline, budget, lo, hi)
            }
        }
    }
}

/// One entry of an SLA menu: a target and its minimum capacity.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SlaQuote {
    /// The guaranteed target.
    pub target: QosTarget,
    /// The minimum capacity achieving it.
    pub cmin: Iops,
}

impl fmt::Display for SlaQuote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {:.0} IOPS", self.target, self.cmin.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn burst_full_guarantee_needs_burst_rate() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 10]);
        let p = CapacityPlanner::new(&w, dms(10));
        assert_eq!(p.min_capacity(1.0).get(), 1000.0);
    }

    #[test]
    fn relaxing_fraction_reduces_capacity_sharply() {
        // The paper's knee: a deep spike that is under 10% of the workload.
        // Exempting it collapses the capacity requirement.
        let mut arrivals: Vec<SimTime> = (0..500).map(|i| ms(i * 10)).collect();
        arrivals.extend(vec![ms(2500); 40]); // 40-deep spike, ~7% of total
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(10));
        let c100 = p.min_capacity(1.0).get();
        let c90 = p.min_capacity(0.90).get();
        assert!(
            c100 > 3.0 * c90,
            "expected sharp knee: C(100%)={c100}, C(90%)={c90}"
        );
    }

    #[test]
    fn min_capacity_is_minimal() {
        let mut arrivals: Vec<SimTime> = (0..50).map(|i| ms(i * 7)).collect();
        arrivals.extend(vec![ms(100); 12]);
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(10));
        for f in [0.9, 0.95, 1.0] {
            let c = p.min_capacity(f);
            assert!(p.fraction_guaranteed(c) >= f);
            let below = Iops::new(c.get() - 1.0);
            if below.get() >= 100.0 {
                assert!(
                    p.fraction_guaranteed(below) < f,
                    "capacity {} was not minimal for f={f}",
                    c.get()
                );
            }
        }
    }

    #[test]
    fn smooth_workload_has_flat_menu() {
        // Evenly spaced arrivals: Cmin barely depends on the fraction.
        let w = Workload::from_arrivals((0..500).map(|i| ms(i * 5)));
        let p = CapacityPlanner::new(&w, dms(10));
        let menu = p.menu(&[0.9, 0.99, 1.0]).unwrap();
        let c90 = menu[0].cmin.get();
        let c100 = menu[2].cmin.get();
        assert!(
            c100 <= c90 * 1.5,
            "smooth workload should not knee: {c90} vs {c100}"
        );
        assert!(menu[0].to_string().contains("IOPS"));
    }

    #[test]
    fn menu_is_monotonic_in_fraction() {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 11)).collect();
        arrivals.extend(vec![ms(777); 30]);
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(20));
        let menu = p.menu(&[0.90, 0.95, 0.99, 1.0]).unwrap();
        for pair in menu.windows(2) {
            assert!(
                pair[1].cmin.get() >= pair[0].cmin.get(),
                "menu not monotonic: {pair:?}"
            );
        }
    }

    #[test]
    fn longer_deadline_needs_less_capacity() {
        let mut arrivals: Vec<SimTime> = (0..100).map(|i| ms(i * 13)).collect();
        arrivals.extend(vec![ms(300); 20]);
        let w = Workload::from_arrivals(arrivals);
        let c_tight = CapacityPlanner::new(&w, dms(5)).min_capacity(0.95);
        let c_loose = CapacityPlanner::new(&w, dms(50)).min_capacity(0.95);
        assert!(c_loose.get() < c_tight.get());
    }

    #[test]
    fn fraction_curve_matches_scalar_fraction_guaranteed() {
        let mut arrivals: Vec<SimTime> = (0..300).map(|i| ms(i * 9)).collect();
        arrivals.extend(vec![ms(1200); 35]);
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(10));
        // Includes a degenerate capacity (50 × 10 ms < 1 slot).
        let grid: Vec<Iops> = [50.0, 120.0, 300.0, 700.0, 2500.0].map(Iops::new).to_vec();
        let curve = p.fraction_curve(&grid);
        for (i, &c) in grid.iter().enumerate() {
            assert_eq!(curve[i], p.fraction_guaranteed(c), "C={c}");
        }
        let empty = Workload::new();
        let pe = CapacityPlanner::new(&empty, dms(10));
        assert_eq!(pe.fraction_curve(&grid), vec![1.0; grid.len()]);
    }

    #[test]
    fn menu_rejects_bad_fractions() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let p = CapacityPlanner::new(&w, dms(10));
        assert!(matches!(
            p.menu(&[0.9, f64::NAN]),
            Err(MenuError::NotFinite { index: 1, .. })
        ));
        assert!(matches!(
            p.menu(&[0.5, 0.0]),
            Err(MenuError::OutOfRange { index: 1, .. })
        ));
        let quotes = p.menu(&[1.0]).expect("valid fraction");
        assert_eq!(quotes[0].cmin.get(), 100.0);
    }

    #[test]
    fn menu_error_displays_the_offender() {
        let nan = MenuError::NotFinite {
            index: 3,
            value: f64::NAN,
        };
        assert_eq!(
            nan.to_string(),
            "menu fraction #3 must be a finite number (got NaN)"
        );
        let range = MenuError::OutOfRange {
            index: 0,
            value: 2.0,
        };
        assert_eq!(
            range.to_string(),
            "menu fraction #0 must be in (0, 1]: got 2"
        );
    }

    #[test]
    fn seed_curve_brackets_every_fraction() {
        let mut arrivals: Vec<SimTime> = (0..200).map(|i| ms(i * 8)).collect();
        arrivals.extend(vec![ms(333); 25]);
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(10));
        let seed = SeedCurve::new(&w, dms(10));
        assert_eq!(seed.grid()[0], 100, "grid starts at the domain floor");
        assert!(
            seed.grid().windows(2).all(|g| g[1] == g[0] * 2),
            "doubling grid"
        );
        assert!(
            seed.counts.windows(2).all(|c| c[1] <= c[0]),
            "overflow counts non-increasing"
        );
        for f in [0.9, 0.99, 1.0] {
            let (lo, hi) = seed.bracket(miss_budget(w.len() as u64, f));
            let cmin = p.min_capacity(f).get() as u64;
            assert!(cmin <= hi, "f={f}: Cmin {cmin} above bracket top {hi}");
            assert!(
                p.fraction_guaranteed(Iops::new(hi as f64)) >= f,
                "f={f}: hi fails"
            );
            if let Some(lo) = lo {
                assert!(cmin > lo, "f={f}: Cmin {cmin} not above failing lo {lo}");
                assert!(
                    p.fraction_guaranteed(Iops::new(lo as f64)) < f,
                    "f={f}: lo meets"
                );
            } else {
                assert_eq!(cmin, hi, "floor meets: Cmin is the floor");
            }
        }
    }

    #[test]
    fn empty_workload_needs_only_floor() {
        let w = Workload::new();
        let p = CapacityPlanner::new(&w, dms(10));
        assert_eq!(p.min_capacity(1.0).get(), 100.0); // 1/δ
        assert_eq!(p.fraction_guaranteed(Iops::new(100.0)), 1.0);
        assert_eq!(SeedCurve::new(&w, dms(10)).bracket(0), (None, 100));
    }

    #[test]
    fn provision_adds_default_surplus() {
        let w = Workload::from_arrivals(vec![SimTime::ZERO; 5]);
        let p = CapacityPlanner::new(&w, dms(10));
        let prov = p.provision(QosTarget::new(1.0, dms(10)));
        assert_eq!(prov.cmin().get(), 500.0);
        assert_eq!(prov.delta_c().get(), 100.0);
        assert_eq!(prov.total().get(), 600.0);
    }

    #[test]
    #[should_panic(expected = "deadline differs")]
    fn provision_checks_deadline() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let p = CapacityPlanner::new(&w, dms(10));
        let _ = p.provision(QosTarget::new(1.0, dms(20)));
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn fraction_validated() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let _ = CapacityPlanner::new(&w, dms(10)).min_capacity(0.0);
    }

    #[test]
    fn sub_iops_floor_capacity_reports_zero_guarantee() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let p = CapacityPlanner::new(&w, dms(10));
        // 50 IOPS × 10 ms < 1 slot: nothing can be guaranteed.
        assert_eq!(p.fraction_guaranteed(Iops::new(50.0)), 0.0);
    }
}
