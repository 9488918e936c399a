//! The per-pair closed form that validates threshold and slice-threshold
//! systems, checked against enumeration: on random mixed systems the B³,
//! consistency and availability verdicts equal those of the same systems
//! converted to `Explicit` (which enumerate maximal fail-prone sets and
//! minimal quorums), and every violation either path returns is a genuine
//! witness.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use asym_quorum::topology::{self, Topology};
use asym_quorum::{
    AsymFailProneSystem, AsymQuorumSystem, FailProneSystem, ProcessSet, QuorumError, QuorumSystem,
};

/// Random mixed threshold / slice-threshold systems on 3–7 processes, a
/// function of `seed`: per process a fail-prone system (all of `P` or a
/// random slice, random `f`) and a quorum system that is canonical, a
/// threshold, a random slice or the fail-prone slice, with a random `q`; or
/// canonical quorums throughout.
fn random_systems(seed: u64) -> (AsymFailProneSystem, AsymQuorumSystem) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.random_range(3usize..=7);
    let canonical = rng.random_bool(0.25);
    // Dense slices and small thresholds make every verdict common.
    let density = [0.6, 0.85, 0.95][rng.random_range(0usize..3)];
    let max_f = rng.random_range(1usize..=3);
    let slice = |rng: &mut SmallRng| {
        let s: ProcessSet = (0..n).filter(|_| rng.random_bool(density)).collect();
        if s.is_empty() {
            ProcessSet::full(n)
        } else {
            s
        }
    };
    let mut fail = Vec::new();
    let mut quorums = Vec::new();
    for _ in 0..n {
        let s = slice(&mut rng);
        let fps = if rng.random_bool(0.3) {
            FailProneSystem::threshold(n, rng.random_range(0..n.min(max_f)))
        } else {
            FailProneSystem::slice_threshold(n, s.clone(), rng.random_range(0..s.len().min(max_f)))
        };
        let t = slice(&mut rng);
        quorums.push(match rng.random_range(0u8..4) {
            _ if canonical => fps.canonical_quorums(),
            0 => fps.canonical_quorums(),
            1 => QuorumSystem::threshold(n, rng.random_range(1..=n)),
            2 => QuorumSystem::slice_threshold(n, t.clone(), rng.random_range(1..=t.len())),
            _ => QuorumSystem::slice_threshold(n, s.clone(), rng.random_range(1..=s.len())),
        });
        fail.push(fps);
    }
    (AsymFailProneSystem::new(fail).unwrap(), AsymQuorumSystem::new(quorums).unwrap())
}

/// The same systems as explicit antichains, which validation enumerates.
fn explicit(
    fps: &AsymFailProneSystem,
    qs: &AsymQuorumSystem,
) -> (AsymFailProneSystem, AsymQuorumSystem) {
    let n = fps.n();
    let fail = fps.iter().map(|(_, s)| FailProneSystem::explicit(n, s.maximal_sets()).unwrap());
    let quorums = qs.iter().map(|(_, s)| QuorumSystem::explicit(n, s.minimal_quorums()).unwrap());
    (
        AsymFailProneSystem::new(fail.collect()).unwrap(),
        AsymQuorumSystem::new(quorums.collect()).unwrap(),
    )
}

fn assert_b3_witness(fps: &AsymFailProneSystem, violation: QuorumError) {
    let QuorumError::B3Violation { i, j, fi, fj, fij } = violation else {
        panic!("not a B³ violation: {violation}");
    };
    assert!(fps.foresees(i, &fi), "{fi} not fail-prone for {i}");
    assert!(fps.foresees(j, &fj), "{fj} not fail-prone for {j}");
    assert!(fps.foresees(i, &fij) && fps.foresees(j, &fij), "{fij} not common to {i}, {j}");
    assert_eq!(fi.union(&fj).union(&fij), ProcessSet::full(fps.n()), "{fi} ∪ {fj} ∪ {fij}");
}

fn assert_consistency_witness(
    qs: &AsymQuorumSystem,
    fps: &AsymFailProneSystem,
    violation: QuorumError,
) {
    let QuorumError::ConsistencyViolation { i, j, qi, qj, fij } = violation else {
        panic!("not a consistency violation: {violation}");
    };
    assert!(qs.contains_quorum_for(i, &qi), "{qi} is no quorum of {i}");
    assert!(qs.contains_quorum_for(j, &qj), "{qj} is no quorum of {j}");
    assert!(fps.foresees(i, &fij) && fps.foresees(j, &fij), "{fij} not common to {i}, {j}");
    assert!(qi.intersection(&qj).is_subset(&fij), "{qi} ∩ {qj} ⊄ {fij}");
}

fn assert_availability_witness(
    qs: &AsymQuorumSystem,
    fps: &AsymFailProneSystem,
    violation: QuorumError,
) {
    let QuorumError::AvailabilityViolation { process, fail_prone } = violation else {
        panic!("not an availability violation: {violation}");
    };
    assert!(fps.foresees(process, &fail_prone), "{fail_prone} not fail-prone for {process}");
    let avoiding = fail_prone.complement(fps.n());
    assert!(!qs.contains_quorum_for(process, &avoiding), "a quorum of {process} avoids it");
}

/// Checks every violation `fps`/`qs` report, asymmetric and per process.
fn assert_witnesses(fps: &AsymFailProneSystem, qs: &AsymQuorumSystem) {
    if let Some(v) = fps.b3_violation() {
        assert_b3_witness(fps, v);
    }
    if let Err(v) = qs.check_consistency(fps) {
        assert_consistency_witness(qs, fps, v);
    }
    if let Err(v) = qs.check_availability(fps) {
        assert_availability_witness(qs, fps, v);
    }
    for (p, quorums) in qs.iter() {
        let own_q = AsymQuorumSystem::uniform(quorums.clone());
        let own_f = AsymFailProneSystem::uniform(fps.of(p).clone());
        if let Err(v) = quorums.check_consistency(fps.of(p)) {
            assert_consistency_witness(&own_q, &own_f, v);
        }
        if let Err(v) = quorums.check_availability(fps.of(p)) {
            assert_availability_witness(&own_q, &own_f, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Counting and enumeration give the same verdicts, asymmetric and per
    /// process.
    #[test]
    fn prop_closed_form_agrees_with_enumeration(seed in 0u64..u64::MAX) {
        let (fps, qs) = random_systems(seed);
        let (fps_e, qs_e) = explicit(&fps, &qs);
        prop_assert_eq!(fps.satisfies_b3(), fps_e.satisfies_b3());
        prop_assert_eq!(qs.check_consistency(&fps).is_ok(), qs_e.check_consistency(&fps_e).is_ok());
        prop_assert_eq!(
            qs.check_availability(&fps).is_ok(),
            qs_e.check_availability(&fps_e).is_ok()
        );
        for (p, quorums) in qs.iter() {
            let (q_e, f_e) = (qs_e.of(p), fps_e.of(p));
            prop_assert_eq!(
                quorums.check_consistency(fps.of(p)).is_ok(),
                q_e.check_consistency(f_e).is_ok()
            );
            prop_assert_eq!(
                quorums.check_availability(fps.of(p)).is_ok(),
                q_e.check_availability(f_e).is_ok()
            );
        }
    }

    /// Every returned violation is a witness, on both paths.
    #[test]
    fn prop_every_violation_is_a_witness(seed in 0u64..u64::MAX) {
        let (fps, qs) = random_systems(seed);
        assert_witnesses(&fps, &qs);
        let (fps_e, qs_e) = explicit(&fps, &qs);
        assert_witnesses(&fps_e, &qs_e);
    }
}

/// The known-bad topologies: B³ fails for a pair of distinct processes in
/// the Ripple case, so by Theorem 2.4 their canonical quorums are
/// inconsistent; every witness holds on both paths.
#[test]
fn known_bad_topologies_return_witnesses() {
    for Topology { name, fail_prone, quorums } in
        [topology::ripple_unl(12, 4, 1), topology::mixed_thresholds(7, 2, 3)]
    {
        let (fps_e, qs_e) = explicit(&fail_prone, &quorums);
        for (fps, qs) in [(&fail_prone, &quorums), (&fps_e, &qs_e)] {
            assert!(!fps.satisfies_b3(), "{name}");
            assert!(qs.check_consistency(fps).is_err(), "{name}");
            assert!(qs.check_availability(fps).is_ok(), "{name}");
            assert_witnesses(fps, qs);
        }
    }
    let ripple = topology::ripple_unl(12, 4, 1);
    let Some(QuorumError::B3Violation { i, j, .. }) = ripple.fail_prone.b3_violation() else {
        panic!("ripple(12, 4, 1) satisfies B³");
    };
    assert_ne!(i, j, "every single UNL of ripple(12, 4, 1) is B³ on its own");
}
