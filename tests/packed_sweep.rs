//! The packed-key level sweeps against independent oracles.
//!
//! The lattice sweeps hold each level as sorted inline keys from
//! `gpd_computation::FrontierPacker`. These tests pin down the two facts
//! that design rests on, then check the sweeps end to end:
//!
//! * packing round-trips, a successor key is one add, and key order is
//!   `Cut` order — also for frontiers packed into more than one word;
//! * on random computations with wide frontiers, every sweep agrees with
//!   the `CutIter` walk and with `definitely_by_enumeration` (which
//!   deduplicates plain `Cut`s) on verdict, witness and
//!   `BudgetMeter::nodes`, at 1, 2 and 4 threads;
//! * a `max_width` cap trips on the same level, with the same
//!   checkpoint, as the heap-backed sweep the packed one replaced.

use std::collections::BTreeSet;

use gpd::enumerate::{
    definitely_by_enumeration, definitely_levelwise, definitely_levelwise_budgeted,
    possibly_by_enumeration_budgeted, possibly_by_enumeration_par,
};
use gpd::{Budget, BudgetMeter, ExhaustReason, Verdict};
use gpd_computation::{
    fnv1a, gen, with_frontier_key, Computation, ComputationBuilder, Cut, FrontierKey,
    FrontierPacker,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A computation with `n` processes of which only a few (1–4) have
/// events, linked by random forward messages. The idle processes widen
/// the frontier — up to several packed words — without widening the
/// lattice, so the oracles stay cheap. A `big` one has four busy
/// processes of 6–8 events and few messages, so its widest levels span
/// several work chunks and the sweeps merge runs from several workers.
fn wide_computation(rng: &mut StdRng, big: bool) -> Computation {
    let n = rng.gen_range(if big { 4 } else { 1 }..=90);
    let active: Vec<usize> = {
        let mut all: Vec<usize> = (0..n).collect();
        for i in (1..all.len()).rev() {
            all.swap(i, rng.gen_range(0..=i));
        }
        all.truncate(if big { 4 } else { rng.gen_range(1..=n.min(4)) });
        all
    };
    let events = if big { 6..=8 } else { 1..=rng.gen_range(1..=6) };
    let mut b = ComputationBuilder::new(n);
    let mut order = Vec::new();
    for &p in &active {
        for _ in 0..rng.gen_range(events.clone()) {
            order.push(p);
        }
    }
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    // Messages only run forward in append order, so they cannot cycle.
    let events: Vec<_> = order.iter().map(|&p| (p, b.append(p))).collect();
    for _ in 0..rng.gen_range(0..=active.len()) {
        let i = rng.gen_range(0..events.len());
        let j = rng.gen_range(0..events.len());
        let ((ps, s), (pr, r)) = (events[i.min(j)], events[i.max(j)]);
        if ps != pr {
            let _ = b.message(s, r);
        }
    }
    b.build().expect("forward messages keep the order acyclic")
}

/// The lattice levels by event count, each sorted in `Cut` order.
fn levels(comp: &Computation) -> Vec<Vec<Cut>> {
    let mut levels: Vec<Vec<Cut>> = Vec::new();
    for cut in comp.consistent_cuts() {
        let k = cut.event_count();
        if levels.len() <= k {
            levels.resize(k + 1, Vec::new());
        }
        levels[k].push(cut);
    }
    for level in &mut levels {
        level.sort_unstable();
    }
    levels
}

/// Lattice edges leaving `cuts`.
fn out_edges(comp: &Computation, cuts: &[Cut]) -> u64 {
    cuts.iter()
        .map(|c| comp.cut_successors(c).len() as u64)
        .sum()
}

/// The possibly sweep's witness (lowest cut of the lowest satisfying
/// level) and its one-thread node count: every cut probed up to the
/// witness, plus every edge out of the levels below it.
fn possibly_oracle(
    comp: &Computation,
    levels: &[Vec<Cut>],
    phi: &dyn Fn(&Cut) -> bool,
) -> (Option<Cut>, u64) {
    let mut nodes = 0u64;
    for level in levels {
        if let Some(i) = level.iter().position(phi) {
            return (Some(level[i].clone()), nodes + i as u64 + 1);
        }
        nodes += level.len() as u64 + out_edges(comp, level);
    }
    (None, nodes)
}

/// The definitely sweep's verdict and node count, by a level walk over
/// plain `Cut` sets: the initial cut, plus every edge out of each
/// expanded level of reachable `¬Φ` cuts.
fn definitely_oracle(comp: &Computation, phi: &dyn Fn(&Cut) -> bool) -> (bool, u64) {
    let start = comp.initial_cut();
    if phi(&start) {
        return (true, 1);
    }
    let total = comp.final_cut().event_count();
    let mut nodes = 1u64;
    let mut level = vec![start];
    for _ in 0..total {
        nodes += out_edges(comp, &level);
        let next: BTreeSet<Cut> = level
            .iter()
            .flat_map(|c| comp.cut_successors(c))
            .filter(|c| !phi(c))
            .collect();
        if next.is_empty() {
            return (true, nodes);
        }
        level = next.into_iter().collect();
    }
    (false, nodes)
}

fn decided<T: Clone + std::fmt::Debug>(verdict: Verdict<T>) -> T {
    verdict.value().expect("unlimited budgets decide").clone()
}

/// Pack → unpack round-trips, successor keys match repacking, and key
/// order agrees with `Cut` order for `K`.
fn check_key<K: FrontierKey>(packer: &FrontierPacker, lens: &[u32], a: &[u32], b: &[u32]) {
    let (ka, kb): (K, K) = (packer.pack(a), packer.pack(b));
    assert_eq!(packer.unpack(&ka).frontier(), a);
    assert_eq!(packer.unpack(&kb).frontier(), b);
    let (ca, cb) = (
        Cut::from_frontier(a.to_vec()),
        Cut::from_frontier(b.to_vec()),
    );
    assert_eq!(ka.cmp(&kb), ca.cmp(&cb), "{a:?} vs {b:?}");
    for p in 0..a.len() {
        if a[p] < lens[p] {
            let mut bumped = a.to_vec();
            bumped[p] += 1;
            assert_eq!(packer.successor(&ka, p), packer.pack::<K>(&bumped));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over 1–80 processes of 0–15 events, frontiers packed into one to
    /// several words, through the dispatched inline key and the boxed
    /// fallback alike.
    #[test]
    fn packing_round_trips_and_key_order_is_cut_order(
        seed in any::<u64>(),
        n in 1usize..80,
        equal_prefix in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lens: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=15)).collect();
        let mut b = ComputationBuilder::new(n);
        for (p, &len) in lens.iter().enumerate() {
            for _ in 0..len {
                b.append(p);
            }
        }
        let comp = b.build().unwrap();
        let packer = FrontierPacker::new(&comp);
        let a: Vec<u32> = lens.iter().map(|&m| rng.gen_range(0..=m)).collect();
        let mut other: Vec<u32> = lens.iter().map(|&m| rng.gen_range(0..=m)).collect();
        if equal_prefix {
            // Differ only late, so later words decide the order.
            let cut = rng.gen_range(0..n);
            other[..cut].copy_from_slice(&a[..cut]);
        }
        with_frontier_key!(packer.words(), K => check_key::<K>(&packer, &lens, &a, &other));
        check_key::<Box<[u64]>>(&packer, &lens, &a, &other);
    }
}

#[test]
fn wide_frontiers_use_every_key_width() {
    // 3 bits per entry, 21 entries per word.
    let words = |n: usize| {
        let mut b = ComputationBuilder::new(n);
        for _ in 0..7 {
            b.append(0);
        }
        FrontierPacker::new(&b.build().unwrap()).words()
    };
    assert_eq!(
        [words(21), words(22), words(63), words(84), words(85)],
        [1, 2, 3, 4, 5]
    );
}

#[test]
fn sweeps_agree_with_the_oracles_on_wide_frontiers() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0012);
    let mut widths = BTreeSet::new();
    let mut widest = 0;
    for round in 0..120 {
        let comp = wide_computation(&mut rng, round % 30 == 0);
        widths.insert(FrontierPacker::new(&comp).words());
        let levels = levels(&comp);
        widest = widest.max(levels.iter().map(Vec::len).max().unwrap());
        let x = gen::random_bool_variable(&mut rng, &comp, 0.5);
        let n = comp.process_count();
        let (modulus, residue) = (rng.gen_range(2..9u64), rng.gen_range(0..2u64));
        let conj = move |c: &Cut| (0..n).all(|p| x.value_at(c, p));
        let scattered =
            move |c: &Cut| fnv1a(c.frontier().iter().map(|&f| f as u64)) % modulus == residue;
        let never = |_: &Cut| false;
        let phis: [&(dyn Fn(&Cut) -> bool + Sync); 3] = [&conj, &scattered, &never];
        for (which, phi) in phis.into_iter().enumerate() {
            let ctx = format!("round {round}, predicate {which}");
            let (witness, nodes1) = possibly_oracle(&comp, &levels, phi);
            let (holds, dnodes) = definitely_oracle(&comp, phi);
            assert_eq!(holds, definitely_by_enumeration(&comp, phi), "{ctx}");
            assert_eq!(holds, definitely_levelwise(&comp, phi), "{ctx}");
            for threads in [1, 2, 4] {
                let ctx = format!("{ctx}, {threads} threads");
                let meter = BudgetMeter::new();
                let got = possibly_by_enumeration_budgeted(
                    &comp,
                    phi,
                    threads,
                    &Budget::unlimited(),
                    &meter,
                    None,
                )
                .unwrap();
                assert_eq!(decided(got), witness, "{ctx}");
                // Past the witness chunk a parallel probe may charge
                // cuts a one-thread run never reaches.
                if threads == 1 || witness.is_none() {
                    assert_eq!(meter.nodes(), nodes1, "{ctx}");
                }
                assert_eq!(possibly_by_enumeration_par(&comp, phi, threads), witness);
                let meter = BudgetMeter::new();
                let got = definitely_levelwise_budgeted(
                    &comp,
                    phi,
                    threads,
                    &Budget::unlimited(),
                    &meter,
                    None,
                )
                .unwrap();
                assert_eq!(decided(got), holds, "{ctx}");
                assert_eq!(meter.nodes(), dnodes, "{ctx}");
            }
        }
    }
    // The inline one-, two- and four-word keys and the boxed fallback
    // all ran.
    assert!(widths.contains(&1) && widths.contains(&2), "{widths:?}");
    assert!(widths.iter().any(|&w| (3..=4).contains(&w)), "{widths:?}");
    assert!(widths.iter().any(|&w| w > 4), "{widths:?}");
    // Some level spanned several 256-cut work chunks.
    assert!(widest > 256, "widest level {widest}");
}

#[test]
fn width_cap_trips_where_the_next_level_outgrows_it() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0013);
    for round in 0..40 {
        let comp = wide_computation(&mut rng, round % 8 == 0);
        let levels = levels(&comp);
        let widest = levels.iter().map(Vec::len).max().unwrap();
        if widest < 2 {
            continue;
        }
        let width = rng.gen_range(1..widest);
        // The sweep expands level k only after level k passed the cap,
        // so it trips expanding the level before the first one over it.
        let k = levels.iter().position(|l| l.len() > width).unwrap() - 1;
        let frontiers: Vec<Vec<u32>> = levels[k].iter().map(|c| c.frontier().to_vec()).collect();
        for threads in [1, 2, 4] {
            let budget = Budget::unlimited().with_max_width(width);
            let meter = BudgetMeter::new();
            let got =
                possibly_by_enumeration_budgeted(&comp, |_| false, threads, &budget, &meter, None)
                    .unwrap();
            let Verdict::Unknown(partial) = got else {
                panic!("round {round}: a {width}-cut cap must trip");
            };
            assert_eq!(partial.reason, ExhaustReason::Width, "round {round}");
            assert_eq!(partial.progress.levels_swept, Some(k as u32 + 1));
            let gpd::Checkpoint::Level {
                level,
                frontiers: got,
                ..
            } = &partial.checkpoint
            else {
                panic!("level sweeps checkpoint levels");
            };
            assert_eq!((*level, got), (k as u32, &frontiers), "round {round}");
        }
    }
}

/// Width-capped runs on one fixed computation, recorded on the
/// heap-backed sweep the packed one replaced: `(width, checkpoint
/// level, levels swept, nodes, FNV-1a of the checkpoint text)` for the
/// possibly sweep, then for the definitely sweep.
const WIDTH_TRIPS: [(usize, u32, u32, u64, u64); 6] = [
    (3, 1, 2, 16, 0x0ac7_bf72_5544_7111),
    (12, 3, 4, 102, 0x49b5_5a24_00a2_5e9d),
    (30, 4, 5, 217, 0xdf7b_005a_b381_e931),
    (3, 1, 1, 13, 0x2014_af12_cb5a_a5cb),
    (12, 3, 3, 81, 0x206e_5ab6_6dd8_8935),
    (30, 4, 4, 173, 0x4567_53fc_fb6c_4067),
];

#[test]
fn max_width_trip_lands_on_the_same_level_as_before() {
    let comp = gen::random_computation(&mut StdRng::seed_from_u64(4242), 5, 5, 6);
    for (i, &expected) in WIDTH_TRIPS.iter().enumerate() {
        let width = expected.0;
        for threads in [1, 2, 4, 8] {
            let budget = Budget::unlimited().with_max_width(width);
            let meter = BudgetMeter::new();
            let partial = if i < 3 {
                possibly_by_enumeration_budgeted(&comp, |_| false, threads, &budget, &meter, None)
            } else {
                definitely_levelwise_budgeted(&comp, |_| false, threads, &budget, &meter, None).map(
                    |v| match v {
                        Verdict::Decided(..) => panic!("the cap must trip"),
                        Verdict::Unknown(partial) => Verdict::Unknown(partial),
                    },
                )
            };
            let Ok(Verdict::Unknown(partial)) = partial else {
                panic!("width {width}: the cap must trip");
            };
            assert_eq!(partial.reason, ExhaustReason::Width);
            let text = partial.checkpoint.to_text();
            let gpd::Checkpoint::Level { level, .. } = partial.checkpoint else {
                panic!("level sweeps checkpoint levels");
            };
            let got = (
                width,
                level,
                partial.progress.levels_swept.unwrap(),
                meter.nodes(),
                fnv1a(text.bytes().map(u64::from)),
            );
            assert_eq!(got, expected, "{threads} threads");
        }
    }
}
