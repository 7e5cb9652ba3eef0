//! Work bounds of the §3.3 odometer walk (`gpd::singular`'s subset and
//! chain-cover engines), read off the process-global counters. This file
//! holds a single `#[test]` so no concurrent test inflates the deltas.
//!
//! * At one thread every entry point (plain, `_par`, `_budgeted` with an
//!   unlimited budget) runs the same walk with one snapshot stack, so a
//!   dead clause prefix is scanned once and its whole subtree skipped.
//! * At two threads a wave is thousands of blocks and dead-prefix skips
//!   carry past its end, so a mostly dead space costs a handful of pool
//!   dispatches rather than one per few dozen combinations.

use gpd::singular::{
    possibly_singular_chains, possibly_singular_chains_budgeted, possibly_singular_chains_par,
    possibly_singular_subsets, possibly_singular_subsets_budgeted, possibly_singular_subsets_par,
};
use gpd::{counters, Budget, BudgetMeter, CnfClause, DetectError, SingularCnf, Verdict};
use gpd_computation::{BoolVariable, Computation, ComputationBuilder, Cut, ProcessId};

/// A local copy of the bench crate's E5 conflict gadget (the bench crate
/// is not a dependency of these tests): `groups` wide clauses over
/// always-true processes plus a two-clause gadget whose only true states
/// are mutually inconsistent, so no literal combination is live.
fn wide_unsat(pad: usize, groups: usize, width: usize) -> (Computation, BoolVariable, SingularCnf) {
    let n = 4 + groups * width;
    let mut b = ComputationBuilder::new(n);
    let _u1 = b.append(2);
    let u2 = b.append(2);
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    for p in 0..n {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..n)
        .map(|p| vec![p >= 4; comp.events_on(p) + 1])
        .collect();
    tracks[0][2] = true;
    tracks[2][1] = true;
    let var = BoolVariable::new(&comp, tracks);
    let mut clauses = vec![
        CnfClause::new(vec![(ProcessId::new(0), true), (ProcessId::new(1), true)]),
        CnfClause::new(vec![(ProcessId::new(2), true), (ProcessId::new(3), true)]),
    ];
    for g in 0..groups {
        clauses.push(CnfClause::new(
            (0..width)
                .map(|i| (ProcessId::new(4 + g * width + i), true))
                .collect(),
        ));
    }
    (comp, var, SingularCnf::new(clauses))
}

/// The value of a run under an unlimited budget.
fn decided(run: Result<Verdict<Option<Cut>>, DetectError>) -> Option<Cut> {
    run.unwrap()
        .value()
        .expect("unlimited budgets decide")
        .clone()
}

/// Runs `run`, asserts it rejects, and returns the counter delta.
fn rejects(run: impl FnOnce() -> Option<Cut>) -> counters::ScanCounters {
    let before = counters::snapshot();
    assert_eq!(run(), None);
    counters::snapshot().since(&before)
}

#[test]
fn one_walk_shares_prefixes_and_batches_waves() {
    // g3w4: clause sizes [2, 2, 4, 4, 4], chain covers [1, 1, 4, 4, 4].
    // Subsets: p0 alive, p2 dead, p3 dead, p1 dead — 4 scans. Chains:
    // the first cover alive, the second dead — 2 scans.
    let (comp, var, phi) = wide_unsat(30, 3, 4);
    let (unlimited, meter) = (Budget::unlimited(), BudgetMeter::new());

    let subsets = [
        rejects(|| possibly_singular_subsets(&comp, &var, &phi)),
        rejects(|| possibly_singular_subsets_par(&comp, &var, &phi, 1)),
        rejects(|| {
            decided(possibly_singular_subsets_budgeted(
                &comp, &var, &phi, 1, &unlimited, &meter, None,
            ))
        }),
    ];
    for (entry, work) in ["plain", "par", "budgeted"].iter().zip(&subsets) {
        assert_eq!(work.scan_runs, 4, "subsets, {entry}: {work:?}");
    }
    let chains = [
        rejects(|| possibly_singular_chains(&comp, &var, &phi)),
        rejects(|| possibly_singular_chains_par(&comp, &var, &phi, 1)),
        rejects(|| {
            decided(possibly_singular_chains_budgeted(
                &comp, &var, &phi, 1, &unlimited, &meter, None,
            ))
        }),
    ];
    for (entry, work) in ["plain", "par", "budgeted"].iter().zip(&chains) {
        assert_eq!(work.scan_runs, 2, "chains, {entry}: {work:?}");
    }

    // g5w4: 4 096 combinations, every one under a dead two-clause prefix.
    let (comp, var, phi) = wide_unsat(10, 5, 4);
    let work = rejects(|| {
        decided(possibly_singular_subsets_budgeted(
            &comp, &var, &phi, 2, &unlimited, &meter, None,
        ))
    });
    assert!(work.par_waves <= 8, "2 threads, g5w4: {work:?}");
}
