//! Exhaustive detection by walking the lattice of consistent cuts.
//!
//! This is the Cooper–Marzullo-style baseline: exact for *any* global
//! predicate, but it visits every consistent cut — exponentially many in
//! general, which is precisely the state explosion the paper's algorithms
//! avoid. The test suite uses it as the ground-truth oracle, and the E5
//! experiment measures the exponential gap against it.
//!
//! The level sweeps hold a lattice level as a sorted `Vec` of inline
//! packed keys ([`FrontierKey`]), whose integer order is `Cut` order:
//! a successor's key is one add on its predecessor's, deduplication is a
//! sort, and a `Cut` is materialized only for a witness or a checkpoint.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use gpd_computation::{with_frontier_key, Computation, Cut, FrontierKey, FrontierPacker};

use crate::budget::{
    catch_detect, problem_fingerprint, Budget, BudgetMeter, Checkpoint, DetectError, ExhaustReason,
    Partial, Progress, Verdict,
};
use crate::par::{fanout_chunks, halt_fanout, into_inner_unpoisoned, lock_unpoisoned};

/// Decides `Possibly(Φ)` by enumerating consistent cuts breadth-first;
/// returns the first (smallest) witness cut.
///
/// # Example
///
/// ```
/// use gpd::enumerate::possibly_by_enumeration;
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(1);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let witness = possibly_by_enumeration(&comp, |cut| cut.event_count() == 1);
/// assert_eq!(witness.unwrap().frontier(), &[1]);
/// ```
pub fn possibly_by_enumeration<F>(comp: &Computation, mut predicate: F) -> Option<Cut>
where
    F: FnMut(&Cut) -> bool,
{
    comp.consistent_cuts().find(|cut| predicate(cut))
}

/// [`possibly_by_enumeration`], parallel and **deterministic**: walks
/// the lattice one event-count level at a time on the work-stealing
/// level sweep (with an unlimited budget), keeping every level
/// canonically sorted and probing it for its lowest-index witness.
///
/// The returned witness is therefore **byte-identical at every thread
/// count**: the lowest cut (frontier-lexicographic) on the lowest
/// satisfying level. Earlier revisions returned whichever same-level
/// witness won the race; that racy level-synchronous walk survives only
/// as a benchmark baseline (`gpd-bench`'s legacy module). Determinism
/// keeps the exhaustive oracle usable for validating the parallel
/// detectors at sizes where the sequential sweep falls behind.
pub fn possibly_by_enumeration_par<F>(
    comp: &Computation,
    predicate: F,
    threads: usize,
) -> Option<Cut>
where
    F: Fn(&Cut) -> bool + Sync,
{
    let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
    let sweep = LevelSweep::new(comp, POSSIBLY_ENUMERATE, threads, &budget, &meter);
    decided(sweep.possibly(&predicate, None, (0, vec![comp.initial_cut()])))
}

/// Decides `Definitely(Φ)` exactly: Φ definitely holds iff **no** run
/// avoids Φ-cuts from start to finish, i.e. iff the final cut is
/// unreachable from the initial cut through `¬Φ` cuts only.
///
/// A breadth-first search over the whole reachable `¬Φ` region,
/// deduplicated on plain [`Cut`]s: it shares no key or sweep code with
/// the level sweeps, which keeps it an independent oracle for them.
/// Detection paths use [`definitely_levelwise`] instead.
///
/// # Example
///
/// ```
/// use gpd::enumerate::definitely_by_enumeration;
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// // "exactly one event executed" is unavoidable: every run serializes.
/// assert!(definitely_by_enumeration(&comp, |cut| cut.event_count() == 1));
/// // "p0 moved before p1" is avoidable.
/// assert!(!definitely_by_enumeration(
///     &comp,
///     |cut| cut.frontier() == [1, 0]
/// ));
/// ```
pub fn definitely_by_enumeration<F>(comp: &Computation, mut predicate: F) -> bool
where
    F: FnMut(&Cut) -> bool,
{
    let start = comp.initial_cut();
    if predicate(&start) {
        return true;
    }
    let goal = comp.final_cut();
    let mut seen: HashSet<Cut> = HashSet::from([start.clone()]);
    let mut queue = VecDeque::from([start]);
    // One successor buffer for the whole walk: expansion allocates only
    // for the successor cuts themselves.
    let mut succs: Vec<Cut> = Vec::new();
    while let Some(cut) = queue.pop_front() {
        if cut == goal {
            return false; // a run avoided Φ entirely
        }
        comp.cut_successors_into(&cut, &mut succs);
        for next in succs.drain(..) {
            if !predicate(&next) && seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    true
}

/// Decides `Definitely(Φ)` with the Cooper–Marzullo **level sweep**:
/// instead of remembering every visited cut, keep only the current
/// lattice level's reachable `¬Φ` cuts — cuts with exactly `k` events —
/// and advance `k`. Same exponential worst case as
/// [`definitely_by_enumeration`], but memory drops from the whole
/// reachable region to one level (its widest antichain), which is what
/// makes larger instances feasible in practice. This is
/// [`definitely_levelwise_budgeted`] on one thread with no budget.
///
/// # Example
///
/// ```
/// use gpd::enumerate::definitely_levelwise;
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// assert!(definitely_levelwise(&comp, |cut| cut.event_count() == 1));
/// ```
pub fn definitely_levelwise<F>(comp: &Computation, predicate: F) -> bool
where
    F: Fn(&Cut) -> bool + Sync,
{
    let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
    let sweep = LevelSweep::new(comp, DEFINITELY_LEVELWISE, 1, &budget, &meter);
    decided(sweep.definitely(&predicate, None, None))
}

// ---------------------------------------------------------------------------
// Budgeted variants: deadline/node/width governed, resumable, panic-isolated
// ---------------------------------------------------------------------------

/// Engine name embedded in [`possibly_by_enumeration_budgeted`]'s
/// checkpoints.
pub const POSSIBLY_ENUMERATE: &str = "possibly-enumerate";
/// Engine name embedded in [`definitely_levelwise_budgeted`]'s
/// checkpoints.
pub const DEFINITELY_LEVELWISE: &str = "definitely-levelwise";

/// Work-item granularity of the level sweeps: one work-stealing chunk —
/// budget gates and witness aggregation happen on chunk boundaries.
const LEVEL_BLOCK: usize = 256;

/// The value of a verdict reached under an unlimited budget.
fn decided<T>(verdict: Verdict<T>) -> T {
    match verdict {
        Verdict::Decided(value, _) => value,
        Verdict::Unknown(_) => unreachable!("unlimited budgets always decide"),
    }
}

/// The fixed context of one budgeted level sweep: every possibly and
/// definitely lattice engine — plain, parallel, budgeted and sliced —
/// runs [`LevelSweep::possibly`] or [`LevelSweep::definitely`].
pub(crate) struct LevelSweep<'a> {
    comp: &'a Computation,
    /// Engine name for checkpoints.
    detector: &'static str,
    threads: usize,
    budget: &'a Budget,
    meter: &'a BudgetMeter,
}

impl<'a> LevelSweep<'a> {
    pub(crate) fn new(
        comp: &'a Computation,
        detector: &'static str,
        threads: usize,
        budget: &'a Budget,
        meter: &'a BudgetMeter,
    ) -> Self {
        LevelSweep {
            comp,
            detector,
            threads,
            budget,
            meter,
        }
    }

    /// `Possibly(Φ)` from level `start` on: probe each level for its
    /// lowest witness, then expand it. With a `window` (a slice's
    /// greatest cut `M`) expansion keeps only cuts `≤ M` and the sweep
    /// ends at level `|M|`.
    pub(crate) fn possibly<F>(
        &self,
        predicate: &F,
        window: Option<&[u32]>,
        start: (u32, Vec<Cut>),
    ) -> Verdict<Option<Cut>>
    where
        F: Fn(&Cut) -> bool + Sync,
    {
        let packer = FrontierPacker::new(self.comp);
        with_frontier_key!(packer.words(), K => {
            self.possibly_keys::<K, F>(&packer, predicate, window, start)
        })
    }

    fn possibly_keys<K, F>(
        &self,
        packer: &FrontierPacker,
        predicate: &F,
        window: Option<&[u32]>,
        (mut k, level): (u32, Vec<Cut>),
    ) -> Verdict<Option<Cut>>
    where
        K: FrontierKey,
        F: Fn(&Cut) -> bool + Sync,
    {
        let cap = match window {
            Some(hi) => hi.iter().map(|&f| f as u64).sum::<u64>() as u32,
            None => self.comp.final_cut().event_count() as u32,
        };
        let keep =
            window.map(|hi| move |c: &Cut| c.frontier().iter().zip(hi).all(|(&f, &h)| f <= h));
        let mut level: Vec<K> = level.iter().map(|c| packer.pack_cut(c)).collect();
        loop {
            match self.probe(packer, predicate, &level) {
                Ok(Some(witness)) => {
                    return Verdict::Decided(Some(witness), Progress::with_nodes(self.meter))
                }
                Ok(None) => {}
                Err(reason) => return self.unknown(packer, reason, k, k, &level),
            }
            // Past the final (or window) level no cut remains.
            if k >= cap {
                return Verdict::Decided(None, Progress::with_nodes(self.meter));
            }
            match self.expand(packer, &level, keep.as_ref()) {
                Ok(next) if next.is_empty() => {
                    return Verdict::Decided(None, Progress::with_nodes(self.meter));
                }
                Ok(next) => {
                    k += 1;
                    level = next;
                }
                // Level k is fully probed (hence swept = k + 1) but the
                // next level was discarded: resume re-probes level k —
                // harmlessly, it is witness-free — then re-expands.
                Err(reason) => return self.unknown(packer, reason, k, k + 1, &level),
            }
        }
    }

    /// `Definitely(Φ)` as `¬Φ` path avoidance, from the initial cut or a
    /// `resumed` level. With a `window = (|m|, |M|)` (a slice's least
    /// and greatest cut sizes), levels below `|m|` keep successors
    /// without evaluating `Φ` and a sweep alive past `|M|` decides
    /// `false`.
    pub(crate) fn definitely<F>(
        &self,
        predicate: &F,
        window: Option<(u32, u32)>,
        resumed: Option<(u32, Vec<Cut>)>,
    ) -> Verdict<bool>
    where
        F: Fn(&Cut) -> bool + Sync,
    {
        let start = match resumed {
            Some(state) => state,
            None => {
                let start = self.comp.initial_cut();
                self.meter.charge(1);
                if predicate(&start) {
                    return Verdict::Decided(true, Progress::with_nodes(self.meter));
                }
                (0, vec![start])
            }
        };
        let packer = FrontierPacker::new(self.comp);
        with_frontier_key!(packer.words(), K => {
            self.definitely_keys::<K, F>(&packer, predicate, window, start)
        })
    }

    fn definitely_keys<K, F>(
        &self,
        packer: &FrontierPacker,
        predicate: &F,
        window: Option<(u32, u32)>,
        (mut k, level): (u32, Vec<Cut>),
    ) -> Verdict<bool>
    where
        K: FrontierKey,
        F: Fn(&Cut) -> bool + Sync,
    {
        let total = self.comp.final_cut().event_count() as u32;
        let (skip_below, cap) = window.unwrap_or((0, total));
        let avoids = |c: &Cut| !predicate(c);
        let mut level: Vec<K> = level.iter().map(|c| packer.pack_cut(c)).collect();
        // Invariant: `level` holds the ¬Φ cuts with k events reachable
        // from the initial cut through ¬Φ cuts only (equal to *all*
        // reachable cuts while k < |m|, where Φ cannot hold).
        while k < total {
            let keep = (k + 1 >= skip_below).then_some(&avoids);
            match self.expand(packer, &level, keep) {
                // Every surviving run hit Φ.
                Ok(next) if next.is_empty() => {
                    return Verdict::Decided(true, Progress::with_nodes(self.meter));
                }
                Ok(next) => {
                    k += 1;
                    level = next;
                    if k > cap {
                        // A ¬Φ path escaped past |M|: everything above is
                        // ¬Φ too, so some run avoids Φ entirely.
                        return Verdict::Decided(false, Progress::with_nodes(self.meter));
                    }
                }
                Err(reason) => return self.unknown(packer, reason, k, k, &level),
            }
        }
        // Some run reached the final level avoiding Φ throughout.
        Verdict::Decided(false, Progress::with_nodes(self.meter))
    }

    /// The deadline and node gates, then the width gate on `width` — the
    /// check every work chunk passes before it runs.
    fn gate(&self, width: usize) -> Option<ExhaustReason> {
        if self.budget.deadline_exceeded() {
            Some(ExhaustReason::Deadline)
        } else if self.budget.nodes_exceeded(self.meter.nodes()) {
            Some(ExhaustReason::Nodes)
        } else if self.budget.width_exceeded(width) {
            Some(ExhaustReason::Width)
        } else {
            None
        }
    }

    /// Probes a sorted level for its **lowest-index** witness.
    ///
    /// Workers drain [`LEVEL_BLOCK`]-sized chunks from rooted
    /// work-stealing spans (no level-wide barrier; see [`crate::par`])
    /// and race the lowest hit index into an atomic `fetch_min`. A chunk
    /// is *pruned* — skipped without probing or budget-gating — when it
    /// starts past the current best hit: it cannot lower the minimum, and
    /// gating it could discard an already-found witness on a budget trip.
    /// The winning index is the global minimum at every thread count,
    /// which is what makes witnesses byte-identical across thread counts.
    fn probe<K, F>(
        &self,
        packer: &FrontierPacker,
        predicate: &F,
        level: &[K],
    ) -> Result<Option<Cut>, ExhaustReason>
    where
        K: FrontierKey,
        F: Fn(&Cut) -> bool + Sync,
    {
        let best = AtomicUsize::new(usize::MAX);
        let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
        fanout_chunks(self.threads, level.len(), LEVEL_BLOCK, &|w, src| {
            let mut cut = Cut::from_frontier(Vec::new());
            while let Some(r) = src.next(w) {
                // Prune before gating: once a hit at a lower index exists,
                // later chunks are no-ops and must not trip the budget.
                if r.start > best.load(Ordering::Acquire) {
                    continue;
                }
                if let Some(reason) = self.gate(0) {
                    halt_fanout(&halt, reason, src);
                    return;
                }
                let mut probed = 0u64;
                for i in r {
                    probed += 1;
                    packer.unpack_into(&level[i], &mut cut);
                    if predicate(&cut) {
                        best.fetch_min(i, Ordering::AcqRel);
                        break;
                    }
                }
                self.meter.charge(probed);
            }
        });
        // A found witness outranks a concurrent budget trip: sequentially
        // the hit is reached before any later gate, so the parallel runs
        // must agree.
        match best.load(Ordering::Acquire) {
            usize::MAX => match into_inner_unpoisoned(halt) {
                Some(reason) => Err(reason),
                None => Ok(None),
            },
            i => Ok(Some(packer.unpack(&level[i]))),
        }
    }

    /// Expands a sorted level into the next one: the distinct successors
    /// that pass `keep` (all of them without one), sorted.
    ///
    /// Workers drain [`LEVEL_BLOCK`]-sized chunks, pushing each
    /// successor's key (`key + unit[p]`) into a worker-local buffer that
    /// is sorted and deduplicated once the fan-out drains; the sorted
    /// runs are merged. Every level cut is expanded exactly once and
    /// charged per lattice edge, so `meter` observes the same total at 1
    /// and at N threads. `keep` then runs once per *distinct* successor.
    ///
    /// Budget gates sit on chunk boundaries. The width cap is judged on
    /// the level being expanded there (bounding the candidate buffers by
    /// out-degree × a level that passed the cap) and on the finished,
    /// filtered next level. An `Err` discards the partial next level
    /// whole, so the caller's current level stays the valid checkpoint
    /// boundary.
    fn expand<K, P>(
        &self,
        packer: &FrontierPacker,
        level: &[K],
        keep: Option<&P>,
    ) -> Result<Vec<K>, ExhaustReason>
    where
        K: FrontierKey,
        P: Fn(&Cut) -> bool + Sync,
    {
        let runs: Mutex<Vec<Vec<K>>> = Mutex::new(Vec::new());
        let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
        fanout_chunks(self.threads, level.len(), LEVEL_BLOCK, &|w, src| {
            let mut cut = Cut::from_frontier(Vec::new());
            let mut succs: Vec<K> = Vec::new();
            while let Some(r) = src.next(w) {
                if let Some(reason) = self.gate(level.len()) {
                    halt_fanout(&halt, reason, src);
                    return;
                }
                let mut explored = 0u64;
                for key in &level[r] {
                    packer.unpack_into(key, &mut cut);
                    self.comp.for_each_enabled(&cut, |p| {
                        explored += 1;
                        succs.push(packer.successor(key, p));
                    });
                }
                self.meter.charge(explored);
            }
            succs.sort_unstable();
            succs.dedup();
            lock_unpoisoned(&runs).push(succs);
        });
        if let Some(reason) = into_inner_unpoisoned(halt) {
            return Err(reason);
        }
        let mut runs = into_inner_unpoisoned(runs);
        let mut next = runs.pop().unwrap_or_default();
        if !runs.is_empty() {
            for run in runs {
                next.extend(run);
            }
            // The stable sort merges the presorted runs in linear passes.
            next.sort();
            next.dedup();
        }
        if let Some(keep) = keep {
            next = self.filter(packer, next, keep)?;
        }
        if self.budget.width_exceeded(next.len()) {
            return Err(ExhaustReason::Width);
        }
        Ok(next)
    }

    /// The candidates that pass `keep`, in order, evaluated in parallel
    /// chunks on a scratch cut per worker. Only the deadline gates here:
    /// the node meter was settled by the expansion.
    fn filter<K, P>(
        &self,
        packer: &FrontierPacker,
        candidates: Vec<K>,
        keep: &P,
    ) -> Result<Vec<K>, ExhaustReason>
    where
        K: FrontierKey,
        P: Fn(&Cut) -> bool + Sync,
    {
        let kept: Vec<AtomicBool> = candidates.iter().map(|_| AtomicBool::new(false)).collect();
        let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
        fanout_chunks(self.threads, candidates.len(), LEVEL_BLOCK, &|w, src| {
            let mut cut = Cut::from_frontier(Vec::new());
            while let Some(r) = src.next(w) {
                if self.budget.deadline_exceeded() {
                    halt_fanout(&halt, ExhaustReason::Deadline, src);
                    return;
                }
                for i in r {
                    packer.unpack_into(&candidates[i], &mut cut);
                    kept[i].store(keep(&cut), Ordering::Relaxed);
                }
            }
        });
        if let Some(reason) = into_inner_unpoisoned(halt) {
            return Err(reason);
        }
        Ok(candidates
            .into_iter()
            .zip(kept)
            .filter_map(|(key, kept)| kept.into_inner().then_some(key))
            .collect())
    }

    /// The `Unknown` verdict for a sweep stopped at `level` (index
    /// `level_index`, not yet fully processed). `swept` is the sound
    /// bound: levels `0..swept` were fully probed witness-free.
    fn unknown<K: FrontierKey, T>(
        &self,
        packer: &FrontierPacker,
        reason: ExhaustReason,
        level_index: u32,
        swept: u32,
        level: &[K],
    ) -> Verdict<T> {
        let frontiers = level
            .iter()
            .map(|key| packer.unpack(key).frontier().to_vec())
            .collect();
        let problem = problem_fingerprint(self.comp);
        Verdict::Unknown(Partial {
            reason,
            progress: Progress {
                nodes_explored: self.meter.nodes(),
                levels_swept: Some(swept),
                ..Progress::default()
            },
            checkpoint: Checkpoint::level(self.detector, problem, level_index, frontiers),
        })
    }
}

/// [`possibly_by_enumeration`] under a [`Budget`]: level-synchronous,
/// deterministic, resumable.
///
/// Differences from the unbudgeted walks, by design:
///
/// * Every level is kept canonically sorted and probed for its
///   lowest-index witness, so for a fixed input the verdict **and the
///   witness** are byte-identical at every thread count — and an
///   interrupted run resumed from its checkpoint reproduces exactly the
///   uninterrupted outcome (`tests/budget_resume.rs` asserts both).
/// * An exhausted budget returns [`Verdict::Unknown`] carrying the
///   levels swept so far and a [`Checkpoint`] of the current level.
///   Checkpoints sit on level boundaries: work inside an interrupted
///   level is discarded, never resumed mid-way.
/// * A panicking `predicate` surfaces as
///   [`DetectError::PredicatePanicked`] instead of unwinding.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] if `resume` belongs to another
/// engine or computation; [`DetectError::PredicatePanicked`] if the
/// predicate panics.
pub fn possibly_by_enumeration_budgeted<F>(
    comp: &Computation,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
{
    let start = match resume {
        None => (0u32, vec![comp.initial_cut()]),
        Some(cp) => cp.restore_level(POSSIBLY_ENUMERATE, problem_fingerprint(comp), comp)?,
    };
    let sweep = LevelSweep::new(comp, POSSIBLY_ENUMERATE, threads, budget, meter);
    catch_detect(move || sweep.possibly(&predicate, None, start))
}

/// [`definitely_levelwise`] under a [`Budget`]: the same one-level-wide
/// `¬Φ` reachability sweep, budget-governed and resumable. The stored
/// checkpoint level is the set of reachable `¬Φ` cuts with `level`
/// events; `levels_swept` counts levels fully processed. Semantics of
/// budgets, determinism and panic containment match
/// [`possibly_by_enumeration_budgeted`].
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if the predicate panics.
pub fn definitely_levelwise_budgeted<F>(
    comp: &Computation,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<bool>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
{
    let resumed = match resume {
        None => None,
        Some(cp) => {
            Some(cp.restore_level(DEFINITELY_LEVELWISE, problem_fingerprint(comp), comp)?)
        }
    };
    let sweep = LevelSweep::new(comp, DEFINITELY_LEVELWISE, threads, budget, meter);
    catch_detect(move || sweep.definitely(&predicate, None, resumed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpd_computation::ComputationBuilder;

    fn two_by_two() -> Computation {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(0);
        b.append(1);
        b.append(1);
        b.build().unwrap()
    }

    #[test]
    fn possibly_finds_smallest_witness() {
        let comp = two_by_two();
        let w = possibly_by_enumeration(&comp, |c| c.event_count() >= 2).unwrap();
        assert_eq!(w.event_count(), 2);
    }

    #[test]
    fn possibly_none_when_unsatisfiable() {
        let comp = two_by_two();
        assert!(possibly_by_enumeration(&comp, |c| c.event_count() > 4).is_none());
    }

    #[test]
    fn definitely_holds_at_initial_cut() {
        let comp = two_by_two();
        assert!(definitely_by_enumeration(&comp, |c| c.event_count() == 0));
    }

    #[test]
    fn definitely_holds_at_levels() {
        // Every run passes through each event-count level.
        let comp = two_by_two();
        for level in 0..=4 {
            assert!(definitely_by_enumeration(&comp, |c| c.event_count() == level));
        }
    }

    #[test]
    fn definitely_fails_for_avoidable_state() {
        let comp = two_by_two();
        // The diagonal cut [1,1] can be stepped around via [2,0] or [0,2].
        assert!(!definitely_by_enumeration(&comp, |c| c.frontier() == [1, 1]));
    }

    #[test]
    fn messages_can_make_states_unavoidable() {
        // p0: s, p1: r with s → r: the cut [1,0] is on every run.
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        assert!(definitely_by_enumeration(&comp, |c| c.frontier() == [1, 0]));
    }

    #[test]
    fn empty_computation_definitely_is_initial_truth() {
        let comp = ComputationBuilder::new(1).build().unwrap();
        assert!(definitely_by_enumeration(&comp, |_| true));
        assert!(!definitely_by_enumeration(&comp, |_| false));
        assert!(definitely_levelwise(&comp, |_| true));
        assert!(!definitely_levelwise(&comp, |_| false));
    }

    #[test]
    fn levelwise_agrees_with_bfs_on_random_predicates() {
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(515);
        for round in 0..80 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let a = definitely_by_enumeration(&comp, |c| (0..n).all(|p| x.value_at(c, p)));
            let b = definitely_levelwise(&comp, |c| (0..n).all(|p| x.value_at(c, p)));
            assert_eq!(a, b, "round {round}");
            // Also an asymmetric predicate (not conjunctive).
            let threshold = rng.gen_range(0..=(n * m));
            let a = definitely_by_enumeration(&comp, |c| c.event_count() >= threshold);
            let b = definitely_levelwise(&comp, |c| c.event_count() >= threshold);
            assert_eq!(a, b, "round {round} (threshold)");
        }
    }

    #[test]
    fn parallel_enumeration_matches_sequential_verdict_and_level() {
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for round in 0..40 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let phi = |c: &Cut| (0..n).all(|p| x.value_at(c, p));
            let seq = possibly_by_enumeration(&comp, phi);
            // Thread count 1 is the deterministic reference: the sweeps
            // run in exact sequential order there.
            let reference = possibly_by_enumeration_par(&comp, phi, 1);
            assert_eq!(reference.is_some(), seq.is_some(), "round {round}");
            if let (Some(p), Some(s)) = (&reference, &seq) {
                // The deterministic walk finds a lowest-level witness.
                assert_eq!(p.event_count(), s.event_count(), "round {round}");
                assert!(phi(p), "round {round}: witness must satisfy Φ");
            }
            for threads in [0, 2, 4] {
                let par = possibly_by_enumeration_par(&comp, phi, threads);
                // Byte-identical witness at every thread count — the
                // lowest sorted cut on the lowest satisfying level.
                assert_eq!(par, reference, "round {round}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_enumeration_initial_cut_and_unsatisfiable() {
        let comp = two_by_two();
        for threads in [0, 4] {
            let w = possibly_by_enumeration_par(&comp, |_| true, threads).unwrap();
            assert_eq!(w.event_count(), 0);
            assert!(possibly_by_enumeration_par(&comp, |_| false, threads).is_none());
        }
    }

    #[test]
    fn levelwise_handles_unavoidable_message_state() {
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        assert!(definitely_levelwise(&comp, |c| c.frontier() == [1, 0]));
        assert!(!definitely_levelwise(&comp, |_| false));
    }
}
