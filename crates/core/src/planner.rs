//! Capacity planning: the binary search of Section 2.2.
//!
//! Given a workload profile, a response-time bound `δ`, and a guaranteed
//! fraction `f`, find the minimum capacity `Cmin` such that RTT decomposition
//! puts at least a fraction `f` of requests in the primary class. Because
//! RTT is optimal, no capacity below `Cmin` can guarantee `f` under *any*
//! partitioning — so the search yields the true provisioning requirement.

use std::fmt;

use gqos_parallel::WorkerPool;
use gqos_trace::{Iops, SimDuration, Workload};

use crate::kernel::{overflow_curve, overflow_curve_ns, within_miss_budget_multi_ns, LANE_BATCH};
use crate::rtt::{overflow_count, within_miss_budget};
use crate::target::{Provision, QosTarget};

/// Why an SLA-menu request was rejected: a guaranteed fraction that is not
/// a real number in `(0, 1]`. Returned by [`CapacityPlanner::try_menu`]
/// and [`CapacityPlanner::try_menu_parallel`]; the panicking wrappers
/// ([`menu`](CapacityPlanner::menu),
/// [`menu_parallel`](CapacityPlanner::menu_parallel)) panic with the same
/// message.
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
    /// Runs on the counting kernel ([`overflow_count`]): one allocation-free
    /// pass over the arrival column, no assignment vector.
    pub fn fraction_guaranteed(&self, capacity: Iops) -> f64 {
        if capacity.requests_within(self.deadline) == 0 {
            return if self.workload.is_empty() { 1.0 } else { 0.0 };
        }
        let total = self.workload.len() as u64;
        if total == 0 {
            return 1.0;
        }
        let primary = total - overflow_count(self.workload, capacity, self.deadline);
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
    /// Converges by doubling plus binary search in `O(log C)` RTT probes,
    /// as in the paper. Each probe is budget-bounded
    /// ([`within_miss_budget`]): it aborts as soon as the overflow count
    /// exceeds the miss budget `N − ⌈f·N⌉`, so failing probes (most of the
    /// search) touch only a prefix of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn min_capacity(&self, fraction: f64) -> Iops {
        Iops::new(self.search_cmin(fraction, None) as f64)
    }

    /// The miss budget for `fraction` over this workload: the largest
    /// overflow count that still leaves a primary fraction of at least
    /// `fraction` under the exact `primary/total >= fraction` comparison
    /// [`fraction_guaranteed`](Self::fraction_guaranteed) performs.
    fn miss_budget(&self, fraction: f64) -> u64 {
        miss_budget(self.workload.len() as u64, fraction)
    }

    /// Core capacity search. `warm` is a known lower bracket: a capacity
    /// that is minimal for some fraction `f' <= fraction` (so `Cmin` here
    /// is at least `warm`, and `warm − 1` cannot meet the target). The
    /// menu sweep threads each result into the next fraction's search.
    fn search_cmin(&self, fraction: f64, warm: Option<u64>) -> u64 {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]: {fraction}"
        );
        let floor = self.capacity_floor();
        if self.workload.is_empty() {
            return floor;
        }

        let budget = self.miss_budget(fraction);
        let meets =
            |c: u64| within_miss_budget(self.workload, Iops::new(c as f64), self.deadline, budget);

        // `start` is the least capacity Cmin could be: the domain floor, or
        // the warm bracket from an easier fraction.
        let start = warm.map_or(floor, |w| w.max(floor));
        if meets(start) {
            return start;
        }

        // Grow an upper bound by doubling, keeping the last failing
        // capacity as the lower bracket. The peak burst bounds this: N
        // simultaneous requests need at most N/δ.
        let mut lo = start; // invariant: lo fails, hi meets
        let mut hi = start.max(self.workload.mean_iops().ceil() as u64).max(1);
        while !meets(hi) {
            lo = hi;
            hi = hi.checked_mul(2).expect("capacity search overflow");
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if meets(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Smallest capacity with a non-degenerate RTT bound: `C·δ ≥ 1`.
    fn capacity_floor(&self) -> u64 {
        capacity_floor(self.deadline)
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
    /// The fractions are swept in ascending order (results are returned in
    /// input order regardless): because `Cmin` is monotone in `f`, each
    /// result warm-starts the next search's lower bracket, so the sweep
    /// does one doubling phase for the whole row instead of one per entry.
    ///
    /// # Panics
    ///
    /// Panics with the [`MenuError`] message if any fraction is NaN,
    /// infinite, or outside `(0, 1]` — use [`try_menu`](Self::try_menu)
    /// for a non-panicking rejection path.
    pub fn menu(&self, fractions: &[f64]) -> Vec<SlaQuote> {
        self.try_menu(fractions).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`menu`](Self::menu) that rejects invalid fractions instead of
    /// panicking: every fraction must be finite and in `(0, 1]`, otherwise
    /// the first offender is reported as a [`MenuError`] and no search
    /// runs.
    pub fn try_menu(&self, fractions: &[f64]) -> Result<Vec<SlaQuote>, MenuError> {
        validate_fractions(fractions)?;
        let order = ascending_order(fractions);
        let mut quotes: Vec<Option<SlaQuote>> = vec![None; fractions.len()];
        let mut warm = None;
        for &i in &order {
            let cmin = self.search_cmin(fractions[i], warm);
            warm = Some(cmin);
            quotes[i] = Some(SlaQuote {
                target: QosTarget::new(fractions[i], self.deadline),
                cmin: Iops::new(cmin as f64),
            });
        }
        Ok(quotes
            .into_iter()
            .map(|q| q.expect("every entry filled"))
            .collect())
    }

    /// [`menu`](Self::menu) with the ascending fraction sweep partitioned
    /// into contiguous per-worker ranges over `pool` — byte-identical
    /// quotes, a fraction of the probe work.
    ///
    /// One fused [`overflow_curve`] pass over the doubling seed grid
    /// `⌈1/δ⌉·2^k` (the analytic curve behind
    /// [`fraction_curve`](Self::fraction_curve)) brackets every fraction's
    /// `Cmin` between consecutive grid points before any search runs. The
    /// sorted fractions are then split into contiguous ranges, one per
    /// worker; within a range each result warm-starts the next fraction's
    /// lower bracket exactly as the serial sweep does, and each bracket is
    /// resolved by *wide bisection*: up to eight interior capacities
    /// probed per fused budgeted-feasibility pass,
    /// shrinking the bracket ~9× per pass instead of 2×.
    ///
    /// Every probe answers the same exact integer feasibility question as
    /// the serial search (the fused kernels are bit-equal to the scalar
    /// scans), and both paths return the unique minimal integer capacity
    /// per fraction, so the output is guaranteed identical to
    /// [`menu`](Self::menu)'s, entry for entry — see
    /// `parallel_menu_is_byte_identical` in the tests. With a serial pool
    /// this *is* the warm-started serial sweep.
    ///
    /// # Panics
    ///
    /// Panics with the [`MenuError`] message if any fraction is NaN,
    /// infinite, or outside `(0, 1]` — use
    /// [`try_menu_parallel`](Self::try_menu_parallel) for a non-panicking
    /// rejection path.
    pub fn menu_parallel(&self, fractions: &[f64], pool: &WorkerPool) -> Vec<SlaQuote> {
        self.try_menu_parallel(fractions, pool)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`menu_parallel`](Self::menu_parallel) that rejects invalid
    /// fractions instead of panicking, with the same contract as
    /// [`try_menu`](Self::try_menu).
    pub fn try_menu_parallel(
        &self,
        fractions: &[f64],
        pool: &WorkerPool,
    ) -> Result<Vec<SlaQuote>, MenuError> {
        validate_fractions(fractions)?;
        if pool.is_serial() || fractions.len() <= 1 || self.workload.is_empty() {
            return self.try_menu(fractions);
        }

        // Seed: one fused overflow pass over the doubling grid gives every
        // fraction an exact (failing, meeting] capacity bracket.
        let seed = SeedCurve::new(self.workload, self.deadline);

        // Contiguous per-worker ranges of the ascending sweep.
        let order = ascending_order(fractions);
        let workers = pool.threads().max(1);
        let chunk = order.len().div_ceil(workers);
        let ranges: Vec<Vec<usize>> = order.chunks(chunk).map(<[usize]>::to_vec).collect();

        let resolved: Vec<Vec<(usize, u64)>> = pool.map(ranges, |range| {
            let mut out = Vec::with_capacity(range.len());
            let mut warm = None;
            for i in range {
                let cmin = self.resolve_bracket(fractions[i], &seed, warm);
                warm = Some(cmin);
                out.push((i, cmin));
            }
            out
        });

        let mut quotes: Vec<Option<SlaQuote>> = vec![None; fractions.len()];
        for (i, cmin) in resolved.into_iter().flatten() {
            quotes[i] = Some(SlaQuote {
                target: QosTarget::new(fractions[i], self.deadline),
                cmin: Iops::new(cmin as f64),
            });
        }
        Ok(quotes
            .into_iter()
            .map(|q| q.expect("every entry filled"))
            .collect())
    }

    /// Resolves one fraction's `Cmin` from its seed bracket by wide
    /// bisection. `warm` is the previous (easier) fraction's exact `Cmin`
    /// from the same range: `warm − 1` cannot meet this fraction either
    /// (budgets shrink as `f` grows), so it tightens the lower bracket.
    fn resolve_bracket(&self, fraction: f64, seed: &SeedCurve, warm: Option<u64>) -> u64 {
        let budget = self.miss_budget(fraction);
        let (seed_lo, hi) = seed.bracket(budget);
        let Some(seed_lo) = seed_lo else {
            // The domain floor itself meets the budget: minimal by
            // construction, exactly as the serial search returns `start`.
            return hi;
        };
        let lo = seed_lo.max(warm.unwrap_or(0).saturating_sub(1));
        resolve_cmin_ns(
            self.workload.arrival_column().nanos(),
            self.deadline,
            budget,
            lo,
            hi,
        )
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
pub(crate) fn miss_budget(total: u64, fraction: f64) -> u64 {
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

/// Smallest capacity with a non-degenerate RTT bound at `deadline`:
/// `C·δ ≥ 1`.
pub(crate) fn capacity_floor(deadline: SimDuration) -> u64 {
    (1.0 / deadline.as_secs_f64()).ceil().max(1.0) as u64
}

/// Wide bisection over a raw arrival column: shrinks the bracket
/// `(lo fails, hi meets]` to the unique minimal integer capacity meeting
/// `budget`, probing up to [`LANE_BATCH`] interior capacities per fused
/// [`within_miss_budget_multi_ns`] pass (~9× bracket shrink per pass
/// instead of 2×). Requires `lo < hi`, `lo` failing and `hi` meeting.
pub(crate) fn resolve_cmin_ns(
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
        let verdicts = within_miss_budget_multi_ns(col, &probes, deadline);
        // Overflow is monotone in capacity: the verdicts flip from
        // failing to meeting exactly once across the probes.
        let mut new_lo = lo;
        let mut new_hi = hi;
        for (k, &meets) in verdicts.iter().enumerate() {
            let c = point(k as u64 + 1);
            if meets {
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
/// resolve the exact quote. [`CapacityPlanner::menu_parallel`] seeds its
/// worker sweeps with one; the fleet [`QuoteCache`](crate::QuoteCache)
/// keeps one per tenant and memoizes the resolved quotes.
#[derive(Clone, Debug)]
pub struct SeedCurve {
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
        SeedCurve { grid, counts }
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
}

/// Indices of `fractions` sorted ascending by value. Callers have already
/// validated the fractions, so the total order is the numeric order.
fn ascending_order(fractions: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..fractions.len()).collect();
    order.sort_by(|&a, &b| fractions[a].total_cmp(&fractions[b]));
    order
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
        let menu = p.menu(&[0.9, 0.99, 1.0]);
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
        let menu = p.menu(&[0.90, 0.95, 0.99, 1.0]);
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
    fn parallel_menu_is_byte_identical() {
        let mut arrivals: Vec<SimTime> = (0..400).map(|i| ms(i * 6)).collect();
        arrivals.extend(vec![ms(900); 50]);
        arrivals.extend(vec![ms(2100); 20]);
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(10));
        // Deliberately unsorted fractions: order must be preserved.
        let fractions = [0.99, 0.90, 1.0, 0.95, 0.999];
        let serial = p.menu(&fractions);
        for threads in [1usize, 2, 4, 8] {
            let pool = gqos_parallel::WorkerPool::new(threads);
            let parallel = p.menu_parallel(&fractions, &pool);
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.target, b.target, "{threads} threads");
                assert_eq!(
                    a.cmin.get().to_bits(),
                    b.cmin.get().to_bits(),
                    "{threads} threads: quotes must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn try_menu_rejects_bad_fractions_without_panicking() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let p = CapacityPlanner::new(&w, dms(10));
        let pool = WorkerPool::new(4);
        assert!(matches!(
            p.try_menu(&[0.9, f64::NAN]),
            Err(MenuError::NotFinite { index: 1, .. })
        ));
        assert!(matches!(
            p.try_menu(&[0.5, 0.0]),
            Err(MenuError::OutOfRange { index: 1, .. })
        ));
        assert!(matches!(
            p.try_menu_parallel(&[1.5, 0.9], &pool),
            Err(MenuError::OutOfRange { index: 0, .. })
        ));
        assert!(matches!(
            p.try_menu_parallel(&[0.9, f64::INFINITY], &pool),
            Err(MenuError::NotFinite { index: 1, .. })
        ));
        // Valid requests still succeed through the fallible path.
        let quotes = p.try_menu(&[1.0]).expect("valid fraction");
        assert_eq!(quotes[0].cmin.get(), 100.0);
    }

    #[test]
    #[should_panic(expected = "must be a finite number")]
    fn menu_panics_on_nan_with_the_documented_message() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let _ = CapacityPlanner::new(&w, dms(10)).menu(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn menu_parallel_panics_on_out_of_range_with_the_documented_message() {
        let w = Workload::from_arrivals([SimTime::ZERO]);
        let pool = WorkerPool::new(2);
        let _ = CapacityPlanner::new(&w, dms(10)).menu_parallel(&[-0.25], &pool);
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
    fn parallel_menu_handles_duplicates_wide_menus_and_odd_pools() {
        // More fractions than workers, duplicates landing in different
        // worker ranges, and a pool wider than the menu: every shape must
        // reproduce the serial quotes exactly.
        let mut arrivals: Vec<SimTime> = (0..300).map(|i| ms(i * 6)).collect();
        arrivals.extend(vec![ms(450); 40]);
        arrivals.extend(vec![ms(1800); 15]);
        let w = Workload::from_arrivals(arrivals);
        let p = CapacityPlanner::new(&w, dms(10));
        let fractions = [0.95, 0.90, 0.95, 1.0, 0.99, 0.90, 0.999, 0.93];
        let serial = p.menu(&fractions);
        for threads in [2usize, 3, 5, 16] {
            let pool = WorkerPool::new(threads);
            let parallel = p.menu_parallel(&fractions, &pool);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.cmin.get().to_bits(), b.cmin.get().to_bits(), "{threads}");
                assert_eq!(a.target, b.target, "{threads}");
            }
        }
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
            let budget = p.miss_budget(f);
            let (lo, hi) = seed.bracket(budget);
            let cmin = p.search_cmin(f, None);
            assert!(cmin <= hi, "f={f}: Cmin {cmin} above bracket top {hi}");
            if let Some(lo) = lo {
                assert!(cmin > lo, "f={f}: Cmin {cmin} not above failing lo {lo}");
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
