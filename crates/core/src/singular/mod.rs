//! Singular k-CNF predicate detection (the paper's §3).
//!
//! Detecting `Possibly(Φ)` for a singular k-CNF predicate Φ is NP-complete
//! once k ≥ 2 (Theorem 1; see [`crate::hardness::reduce_sat`] for the
//! executable reduction). This module provides the paper's three
//! algorithms for the decidable side:
//!
//! * [`possibly_singular_ordered`] — **polynomial** when the computation
//!   is receive-ordered or send-ordered with respect to the clause
//!   meta-processes (§3.2).
//! * [`possibly_singular_subsets`] — general case: one CPDHB scan per
//!   choice of one literal per clause, `∏ᵢ kᵢ` scans total (§3.3).
//! * [`possibly_singular_chains`] — general case: cover each clause's
//!   true states with a minimum number of chains and scan once per chain
//!   combination, `∏ᵢ cᵢ` scans with `cᵢ ≤ kᵢ` — never more scans than the
//!   subset algorithm, and exponentially fewer than lattice enumeration
//!   (§3.3).
//! * [`possibly_singular`] — dispatcher: the polynomial special case when
//!   it applies, otherwise the chain-cover algorithm.
//!
//! All return the witness cut. Everything is validated against
//! [`crate::enumerate`] in the test suite.

mod chains;
mod ordered;
mod subsets;

pub use chains::{
    chain_cover_sizes, possibly_singular_chains, possibly_singular_chains_budgeted,
    possibly_singular_chains_par, SINGULAR_CHAINS,
};
pub use ordered::{possibly_singular_ordered, NotOrderedError};
pub use subsets::{
    possibly_singular_subsets, possibly_singular_subsets_budgeted, possibly_singular_subsets_par,
    possibly_singular_subsets_reference, SINGULAR_SUBSETS,
};

use gpd_computation::{BoolVariable, Computation, Cut, ProcessId};

use crate::budget::{
    unlimited_value, Budget, BudgetMeter, Checkpoint, DetectError, Progress, Verdict,
};
use crate::predicate::SingularCnf;
use crate::scan::{run_odometer, Candidate};
use crate::slice::Slice;

/// Detects `Possibly(Φ)` with the best applicable algorithm: the §3.2
/// polynomial scan when the computation is receive- or send-ordered for
/// Φ's clause grouping, the §3.3 chain-cover algorithm otherwise.
///
/// # Example
///
/// ```
/// use gpd::singular::possibly_singular;
/// use gpd::{CnfClause, SingularCnf};
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false]]);
/// // (x₀ ∨ x₁) — one clause spanning both processes.
/// let phi = SingularCnf::new(vec![CnfClause::new(vec![
///     (0.into(), true),
///     (1.into(), true),
/// ])]);
/// assert!(possibly_singular(&comp, &x, &phi).is_some());
/// ```
pub fn possibly_singular(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Option<Cut> {
    possibly_singular_par(comp, var, predicate, 0)
}

/// [`possibly_singular`] with the general-case fallback fanned out over
/// `threads` workers (`0`/`1` → sequential). The §3.2 polynomial special
/// case runs a single scan and stays sequential; only the combinatorial
/// chain-cover fallback benefits from the fan-out. The witness is the
/// same at every thread count.
pub fn possibly_singular_par(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    threads: usize,
) -> Option<Cut> {
    unlimited_value(possibly_singular_budgeted(
        comp,
        var,
        predicate,
        threads,
        &Budget::unlimited(),
        &BudgetMeter::new(),
        None,
    ))
}

/// [`possibly_singular_par`] under a [`Budget`]: the §3.2 polynomial
/// special case still short-circuits (it cannot meaningfully exhaust a
/// budget), and the combinatorial fallback runs as
/// [`possibly_singular_chains_budgeted`]. A `resume` checkpoint routes
/// by its recorded engine name, so a run interrupted inside the subsets
/// engine resumes there even through this dispatcher.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if a scan panics.
pub fn possibly_singular_budgeted(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    possibly_singular_within(comp, var, predicate, None, threads, budget, meter, resume)
}

/// The one dispatcher behind [`possibly_singular_budgeted`] and
/// [`crate::slice::possibly_singular_sliced_budgeted`]. Without a slice
/// the window is the whole lattice `[⊥, ⊤]`. With one, every candidate
/// state outside the slice window is dropped before the odometer walk
/// (see [`window_prune`]) and an empty slice decides `None` outright.
#[allow(clippy::too_many_arguments)]
pub(crate) fn possibly_singular_within(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    slice: Option<&Slice>,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    if slice.is_some_and(Slice::is_empty) {
        // No cut satisfies the envelope Φ implies, so none satisfies Φ.
        return Ok(Verdict::Decided(None, Progress::with_nodes(meter)));
    }
    let detector = match resume {
        Some(cp) if cp.detector() == SINGULAR_SUBSETS => SINGULAR_SUBSETS,
        Some(_) => SINGULAR_CHAINS,
        None => match possibly_singular_ordered(comp, var, predicate) {
            Ok(result) => return Ok(Verdict::Decided(result, Progress::with_nodes(meter))),
            Err(NotOrderedError) => SINGULAR_CHAINS,
        },
    };
    let mut choices = if detector == SINGULAR_SUBSETS {
        subsets::literal_choices(comp, var, predicate)
    } else {
        chains::clause_covers(comp, var, predicate, threads)
    };
    if let Some((lo, hi)) = slice.and_then(Slice::window) {
        window_prune(&mut choices, lo, hi);
    }
    run_odometer(detector, comp, threads, &choices, budget, meter, resume)
}

/// Drops candidate states outside the slice window `[mₚ, Mₚ]`. Sound
/// because any witness cut satisfies `Φ`, hence the envelope, hence lies
/// inside the window — and the cut passes *through* its chosen candidate
/// states, so those states are window-bounded too. List shapes (and with
/// them the odometer fingerprint and combination order) are preserved,
/// so checkpoints from sliced and unsliced runs stay interchangeable and
/// witnesses stay byte-identical; only the per-combination scan work
/// shrinks.
fn window_prune(choices: &mut [Vec<Vec<Candidate>>], lo: &[u32], hi: &[u32]) {
    for clause in choices.iter_mut() {
        for list in clause.iter_mut() {
            list.retain(|c| {
                let p = c.process.index();
                lo[p] <= c.state && c.state <= hi[p]
            });
        }
    }
}

/// The local states of `p` in which the literal `(p, positive)` holds —
/// including the initial state.
pub(crate) fn literal_states(
    comp: &Computation,
    var: &BoolVariable,
    p: ProcessId,
    positive: bool,
) -> Vec<Candidate> {
    (0..=comp.events_on(p) as u32)
        .filter(|&k| var.value_in_state(p, k) == positive)
        .map(|state| Candidate { process: p, state })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::par::search_combinations;
    use std::sync::Mutex;

    // The sequential (`threads = 0`) combination walk replaced the old
    // `cartesian_product` odometer; these pin down that it still visits
    // the same space in the same order.

    #[test]
    fn sequential_combinations_visit_all_in_odometer_order() {
        let seen: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        let result: Option<()> = search_combinations(0, &[2, 3], |idx| {
            seen.lock().unwrap().push(idx.to_vec());
            None
        });
        assert_eq!(result, None);
        let seen = seen.into_inner().unwrap();
        assert_eq!(
            seen,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn sequential_combinations_short_circuit() {
        let count = Mutex::new(0);
        let result = search_combinations(0, &[5, 5], |idx| {
            *count.lock().unwrap() += 1;
            (idx == [0, 2]).then_some("hit")
        });
        assert_eq!(result, Some("hit"));
        assert_eq!(*count.lock().unwrap(), 3);
    }

    #[test]
    fn empty_dimension_yields_nothing() {
        let result: Option<()> = search_combinations(0, &[2, 0], |_| panic!("must not visit"));
        assert_eq!(result, None);
    }

    #[test]
    fn zero_dimensions_visits_once() {
        let result = search_combinations(0, &[], |idx| {
            assert!(idx.is_empty());
            Some(42)
        });
        assert_eq!(result, Some(42));
    }
}
