//! Reusable invariant checkers over [`ScenarioOutcome`]s.
//!
//! Each checker audits one claim of the paper against everything an
//! execution observably produced. Checkers are plain functions
//! `fn(&ScenarioOutcome) -> Result<(), String>` so sweeps can run any subset
//! and report the violated invariant together with the exact reproduction
//! tuple ([`ScenarioFailure`]).
//!
//! | checker | paper claim |
//! |---------|-------------|
//! | [`quiescence`] | bounded executions terminate (budget not exhausted) |
//! | [`prefix_consistency`] | total order: outputs of honest processes are prefixes of one another, ids *and* blocks |
//! | [`no_duplicates`] | integrity: no vertex delivered twice |
//! | [`no_fabrication`] | validity: committed blocks were really injected (or are Byzantine-authored) |
//! | [`dag_no_fabrication`] | no honest DAG *stores* a vertex whose claimed honest source never created it (forged fetch replies) |
//! | [`cross_dag_consistency`] | any vertex id two honest DAGs share is bit-identical in both (no forged copy was smuggled in) |
//! | [`dag_well_formed`] | every local DAG satisfies the certified-DAG invariants incl. the line-140 quorum rule |
//! | [`commit_log_coin`] | commit logs elect exactly the common-coin leaders, in increasing waves |
//! | [`delivery_bookkeeping`] | the committer's delivered set and log agree exactly with the observed output stream |
//! | [`guild_liveness`] | when a guild survives the fault plan, every guild member commits |
//! | [`same_seed_determinism`] | the descriptor replays to the identical commit log |
//! | [`restart_no_double_delivery`] | a crash-restarted process never delivers a vertex twice across its restart |
//! | [`restart_prefix_consistency`] | a restarted process's delivered sequence stays a prefix-match with every fault-free process |
//! | [`restart_liveness`] | when a guild survives, a restarted process recovers, rejoins and delivers |
//! | [`wal_state_equivalence`] | replaying a process's final WAL reproduces its live DAG, delivered set (with wave tags) and commit log exactly |
//! | [`state_transfer_consistency`] | a delivered-state install reproduces some honest delivered prefix bit-for-bit, never re-delivers, and only ever happens on a recovering process |

use std::collections::HashSet;

use asym_crypto::CommonCoin;
use asym_dag::{round_of_wave, VertexId};

use crate::runner::ScenarioOutcome;
use crate::spec::Scenario;

/// One invariant checker.
pub type CheckFn = fn(&ScenarioOutcome) -> Result<(), String>;

/// The standard checker suite, in the order they are run.
pub fn standard_checks() -> Vec<(&'static str, CheckFn)> {
    vec![
        ("quiescence", quiescence),
        ("prefix_consistency", prefix_consistency),
        ("no_duplicates", no_duplicates),
        ("no_fabrication", no_fabrication),
        ("dag_no_fabrication", dag_no_fabrication),
        ("cross_dag_consistency", cross_dag_consistency),
        ("dag_well_formed", dag_well_formed),
        ("commit_log_coin", commit_log_coin),
        ("delivery_bookkeeping", delivery_bookkeeping),
        ("guild_liveness", guild_liveness),
        ("same_seed_determinism", same_seed_determinism),
        ("restart_no_double_delivery", restart_no_double_delivery),
        ("restart_prefix_consistency", restart_prefix_consistency),
        ("restart_liveness", restart_liveness),
        ("wal_state_equivalence", wal_state_equivalence),
        ("state_transfer_consistency", state_transfer_consistency),
    ]
}

/// An invariant violation, carrying the scenario tuple that reproduces it.
#[derive(Clone, Debug)]
pub struct ScenarioFailure {
    /// The failing scenario (replay with [`replay`]), boxed so a `Result`
    /// carrying a failure stays small.
    pub scenario: Box<Scenario>,
    /// Name of the violated invariant.
    pub check: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl core::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "invariant `{}` violated: {}", self.check, self.detail)?;
        writeln!(f, "  cell: {}", self.scenario.cell())?;
        write!(f, "  reproduce with: asym_scenarios::replay(&{})", self.scenario.repro())
    }
}

impl std::error::Error for ScenarioFailure {}

/// Re-executes a scenario descriptor bit-for-bit — the one function call a
/// failure report points at.
///
/// # Panics
///
/// Panics if the scenario cannot be built (see [`Scenario::try_run`]).
pub fn replay(scenario: &Scenario) -> ScenarioOutcome {
    scenario.run()
}

/// Runs a scenario and audits it with the full standard suite.
///
/// # Errors
///
/// The first violated invariant, as a [`ScenarioFailure`] naming the exact
/// reproduction tuple. An unbuildable scenario is reported the same way
/// (check name `build`).
pub fn run_and_check_all(scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioFailure> {
    run_and_check(scenario, &standard_checks())
}

/// Runs a scenario and audits it with a chosen checker subset.
///
/// # Errors
///
/// The first violated invariant (or build error) as a [`ScenarioFailure`].
pub fn run_and_check(
    scenario: &Scenario,
    checks: &[(&'static str, CheckFn)],
) -> Result<ScenarioOutcome, ScenarioFailure> {
    let outcome = scenario.try_run().map_err(|e| ScenarioFailure {
        scenario: Box::new(scenario.clone()),
        check: "build",
        detail: e.to_string(),
    })?;
    check_outcome(&outcome, checks)?;
    Ok(outcome)
}

/// Audits an already-produced outcome with a checker subset.
///
/// # Errors
///
/// The first violated invariant as a [`ScenarioFailure`].
pub fn check_outcome(
    outcome: &ScenarioOutcome,
    checks: &[(&'static str, CheckFn)],
) -> Result<(), ScenarioFailure> {
    for (name, check) in checks {
        check(outcome).map_err(|detail| ScenarioFailure {
            scenario: Box::new(outcome.scenario.clone()),
            check: name,
            detail,
        })?;
    }
    Ok(())
}

/// The execution must end in quiescence, not budget exhaustion — otherwise
/// the bounded forms of the other properties are meaningless.
pub fn quiescence(o: &ScenarioOutcome) -> Result<(), String> {
    if o.quiescent {
        Ok(())
    } else {
        Err(format!("run exhausted its {}-step budget without quiescing", o.scenario.max_steps))
    }
}

/// Total order: the output sequences of every pair of honest processes are
/// prefix-consistent (Definition 4.1, agreement + total order in bounded
/// form). Crash/mute processes are honest-but-truncated, so they are
/// included; Byzantine processes are not. Compares *blocks* as well as ids:
/// two processes agreeing on the vertex identity but delivering different
/// payloads (an equivocation that slipped past reliable broadcast, or a
/// forged fetch copy) is exactly the fork this invariant exists to catch —
/// an id-only comparison would wave it through.
pub fn prefix_consistency(o: &ScenarioOutcome) -> Result<(), String> {
    for a in &o.honest {
        for b in &o.honest {
            let (oa, ob) = (&o.outputs[a.index()], &o.outputs[b.index()]);
            let common = oa.len().min(ob.len());
            for k in 0..common {
                if oa[k].id != ob[k].id {
                    return Err(format!(
                        "total order forked between {a} and {b} at position {k}: {} vs {}",
                        oa[k].id, ob[k].id
                    ));
                }
                if oa[k].block != ob[k].block {
                    return Err(format!(
                        "{a} and {b} delivered {} at position {k} with different blocks: \
                         {:?} vs {:?}",
                        oa[k].id, oa[k].block.txs, ob[k].block.txs
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Integrity: no honest process delivers the same vertex twice.
pub fn no_duplicates(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        let mut seen = HashSet::new();
        for v in &o.outputs[p.index()] {
            if !seen.insert(v.id) {
                return Err(format!("{p} delivered {} twice", v.id));
            }
        }
    }
    Ok(())
}

/// Validity / no fabrication: a committed vertex created by an honest
/// process carries either a filler block or a block that process really
/// injected; a committed vertex from a Byzantine source carries only
/// transactions its attack is known to author. Nothing is invented by the
/// protocol.
pub fn no_fabrication(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        for v in &o.outputs[p.index()] {
            let src = v.id.source;
            if o.honest.contains(src) {
                if !v.block.is_empty() && !o.injected[src.index()].contains(&v.block) {
                    return Err(format!(
                        "{p} ordered {} carrying block {:?} that {src} never injected",
                        v.id, v.block.txs
                    ));
                }
            } else {
                let attack = o
                    .scenario
                    .faults
                    .byzantine()
                    .find(|(i, _)| *i == src.index())
                    .map(|(_, a)| a)
                    .expect("non-honest source must be a configured attacker");
                for tx in v.block.txs.iter() {
                    if !attack.injected_txs().contains(tx) {
                        return Err(format!(
                            "{p} ordered {} with tx {tx} not authored by the {attack} attack",
                            v.id
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// DAG-level no-fabrication: an honest process must never *store* (not
/// merely never deliver) a vertex from an honest source carrying a block
/// that source never injected, nor a vertex from a Byzantine source
/// carrying transactions its attack is not known to author. This is the
/// checker the forged-fetch-reply attack aims at: a fabricated vertex
/// attributed to an honest process that slips past the kernel-matched
/// fetch acceptance lands in a DAG long before (and even without ever)
/// being delivered.
pub fn dag_no_fabrication(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        let dag = o.dags[p.index()].as_ref().expect("honest processes snapshot their DAG");
        for r in 1..=dag.max_round().unwrap_or(0) {
            for v in dag.vertices_in_round(r) {
                let src = v.source();
                if o.honest.contains(src) {
                    if !v.block().is_empty() && !o.injected[src.index()].contains(v.block()) {
                        return Err(format!(
                            "{p} stores {} carrying block {:?} that {src} never injected \
                             (forged vertex accepted into a DAG)",
                            v.id(),
                            v.block().txs
                        ));
                    }
                } else {
                    let attack = o
                        .scenario
                        .faults
                        .byzantine()
                        .find(|(i, _)| *i == src.index())
                        .map(|(_, a)| a)
                        .expect("non-honest source must be a configured attacker");
                    for tx in v.block().txs.iter() {
                        if !attack.injected_txs().contains(tx) {
                            return Err(format!(
                                "{p} stores {} with tx {tx} not authored by the {attack} attack",
                                v.id()
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Cross-DAG consistency: any vertex identity present in two honest DAGs
/// must be bit-identical in both (same block, same edges). Reliable
/// broadcast guarantees this for arb-delivered vertices; the recovery
/// fetch path bypasses reliable broadcast, so this checker is what proves
/// the kernel-matched acceptance kept equivocated or forged fetch copies
/// out — *before* any of them reaches a commit.
pub fn cross_dag_consistency(o: &ScenarioOutcome) -> Result<(), String> {
    let honest: Vec<_> = o.honest.iter().collect();
    for (ai, a) in honest.iter().enumerate() {
        let da = o.dags[a.index()].as_ref().expect("honest DAG snapshot");
        for b in honest.iter().skip(ai + 1) {
            let db = o.dags[b.index()].as_ref().expect("honest DAG snapshot");
            for r in 1..=da.max_round().unwrap_or(0) {
                for v in da.vertices_in_round(r) {
                    if let Some(w) = db.get(v.id()) {
                        if v != w {
                            return Err(format!(
                                "{a} and {b} store different vertices under the same identity \
                                 {}: blocks {:?} vs {:?}",
                                v.id(),
                                v.block().txs,
                                w.block().txs
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Certified-DAG well-formedness of every honest local DAG, audited through
/// [`asym_dag::DagStore`]: parents precede children, strong edges satisfy
/// the Algorithm-6 line-140 quorum rule, every ordered vertex is stored with
/// the block it was ordered with, and delivery respects causality.
pub fn dag_well_formed(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        let dag = o.dags[p.index()].as_ref().expect("honest processes snapshot their DAG");
        let max_round = dag.max_round().unwrap_or(0);
        for r in 1..=max_round {
            for v in dag.vertices_in_round(r) {
                for parent in v.parents() {
                    // Pruned parents were delivered and garbage-collected
                    // — legally absent (per exact id, not by round).
                    if !dag.contains(parent) && !dag.is_pruned(parent) {
                        return Err(format!("{p}: {} references missing parent {parent}", v.id()));
                    }
                }
                if o.topology.quorums.contains_quorum_for_any(v.strong_edges()).is_none() {
                    return Err(format!(
                        "{p}: {} stored with strong edges {} containing no quorum (line 140)",
                        v.id(),
                        v.strong_edges()
                    ));
                }
            }
        }
        // Ordered outputs come from the DAG, blocks intact, parents first.
        let out = &o.outputs[p.index()];
        let pos: std::collections::HashMap<_, _> =
            out.iter().enumerate().map(|(k, v)| (v.id, k)).collect();
        for (k, v) in out.iter().enumerate() {
            let Some(stored) = dag.get(v.id) else {
                // A pruned vertex was delivered first and garbage-collected
                // later — exactly what WAL pruning promises.
                if dag.is_pruned(v.id) {
                    continue;
                }
                return Err(format!("{p} ordered {} which is not in its DAG", v.id));
            };
            if stored.block() != &v.block {
                return Err(format!("{p} ordered {} with a block differing from its DAG", v.id));
            }
            for parent in stored.parents() {
                if parent.round == 0 {
                    continue;
                }
                match pos.get(&parent) {
                    None => {
                        return Err(format!(
                            "{p}: {} delivered but its parent {parent} never was",
                            v.id
                        ))
                    }
                    Some(pk) if *pk > k => {
                        return Err(format!("{p}: parent {parent} delivered after child {}", v.id))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    Ok(())
}

/// Commit logs contain exactly coin-elected wave leaders, in strictly
/// increasing wave order, and are prefix-consistent across honest processes
/// (the shared total order is anchored in the shared leader sequence).
pub fn commit_log_coin(o: &ScenarioOutcome) -> Result<(), String> {
    let coin = CommonCoin::new(o.scenario.coin_seed(), o.topology.n());
    for p in &o.honest {
        let log = &o.commit_logs[p.index()];
        for w in log.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("{p}: commit log waves not increasing: {w:?}"));
            }
        }
        for (wave, leader) in log {
            let expected_round = round_of_wave(*wave, 1);
            if leader.round != expected_round || leader.source != coin.leader(*wave) {
                return Err(format!(
                    "{p}: wave {wave} committed leader {leader}, but the coin elects {} in round \
                     {expected_round}",
                    coin.leader(*wave)
                ));
            }
        }
    }
    for a in &o.honest {
        for b in &o.honest {
            let (la, lb) = (&o.commit_logs[a.index()], &o.commit_logs[b.index()]);
            let common = la.len().min(lb.len());
            if la[..common] != lb[..common] {
                return Err(format!("commit logs of {a} and {b} diverge within {common} entries"));
            }
        }
    }
    Ok(())
}

/// Internal-state audit: each honest process's [`WaveCommitter`] bookkeeping
/// must agree exactly with what it observably output — every output vertex
/// is marked delivered, nothing is marked delivered that was not output,
/// the snapshot's log equals the recorded commit log, and the decided wave
/// bounds it.
///
/// [`WaveCommitter`]: asym_core::WaveCommitter
pub fn delivery_bookkeeping(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        let committer =
            o.committers[p.index()].as_ref().expect("honest processes snapshot their committer");
        let out = &o.outputs[p.index()];
        for v in out {
            if !committer.is_delivered(v.id) {
                return Err(format!("{p}: output {} is not marked delivered", v.id));
            }
        }
        if committer.delivered_count() != out.len() {
            return Err(format!(
                "{p}: committer marked {} vertices delivered but {} were output",
                committer.delivered_count(),
                out.len()
            ));
        }
        let out_ids: HashSet<VertexId> = out.iter().map(|v| v.id).collect();
        for vid in committer.delivered() {
            if !out_ids.contains(&vid) {
                return Err(format!("{p}: {vid} marked delivered but never output"));
            }
        }
        if committer.log() != o.commit_logs[p.index()] {
            return Err(format!("{p}: committer log differs from the recorded commit log"));
        }
        if let Some((last_wave, _)) = committer.log().last() {
            if committer.decided_wave() < *last_wave {
                return Err(format!(
                    "{p}: decided wave {} behind last committed wave {last_wave}",
                    committer.decided_wave()
                ));
            }
        }
    }
    Ok(())
}

/// Liveness under a surviving guild: if the fault plan leaves a guild, every
/// guild member must have committed at least one vertex by quiescence. When
/// no guild survives, nothing is promised and the check passes vacuously
/// (safety checks still apply).
pub fn guild_liveness(o: &ScenarioOutcome) -> Result<(), String> {
    let Some(guild) = &o.guild else {
        return Ok(());
    };
    if !o.quiescent {
        return Ok(()); // quiescence checker reports this case
    }
    for g in guild {
        if o.outputs[g.index()].is_empty() {
            return Err(format!(
                "guild {guild} survived the fault plan but member {g} ordered nothing in {} waves",
                o.scenario.waves
            ));
        }
    }
    Ok(())
}

/// Same-seed determinism: re-running the descriptor yields the identical
/// execution — outputs, commit logs, step count. This is what makes every
/// red cell of a sweep reproducible.
pub fn same_seed_determinism(o: &ScenarioOutcome) -> Result<(), String> {
    let rerun = o.scenario.try_run().map_err(|e| format!("replay failed to build: {e}"))?;
    if rerun.outputs != o.outputs {
        return Err("replay produced different outputs".into());
    }
    if rerun.commit_logs != o.commit_logs {
        return Err("replay produced different commit logs".into());
    }
    if rerun.steps != o.steps || rerun.time != o.time {
        return Err(format!(
            "replay took {} steps / {} time, original {} / {}",
            rerun.steps, rerun.time, o.steps, o.time
        ));
    }
    Ok(())
}

/// Integrity across a restart: a crash-restarted process must never deliver
/// the same vertex twice, even though its post-recovery half runs from a
/// state rebuilt out of the write-ahead log. (Subsumed by
/// [`no_duplicates`], but reported under its own name so a WAL-replay bug
/// is attributed to recovery, not to the ordering layer.) Vacuous in cells
/// without a restart fault.
pub fn restart_no_double_delivery(o: &ScenarioOutcome) -> Result<(), String> {
    for i in o.restarted() {
        let mut seen = HashSet::new();
        for v in &o.outputs[i] {
            if !seen.insert(v.id) {
                return Err(format!(
                    "restarted p{i} delivered {} twice (WAL replay lost the delivered set?)",
                    v.id
                ));
            }
        }
    }
    Ok(())
}

/// Total order across a restart: the full delivered sequence of a restarted
/// process (pre-crash prefix + post-recovery tail) must stay
/// prefix-consistent with every fault-free process. Vacuous without a
/// restart fault.
pub fn restart_prefix_consistency(o: &ScenarioOutcome) -> Result<(), String> {
    for i in o.restarted() {
        for p in &o.correct {
            let (or, oc) = (&o.outputs[i], &o.outputs[p.index()]);
            let common = or.len().min(oc.len());
            for k in 0..common {
                if or[k].id != oc[k].id {
                    return Err(format!(
                        "restarted p{i} forked from {p} at position {k}: {} vs {}",
                        or[k].id, oc[k].id
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Recovery liveness: when the fault plan leaves a guild (so the run makes
/// progress at all), every restarted process must have executed its
/// recovery path and delivered at least one vertex by quiescence — crashing
/// forever is exactly what the storage subsystem is meant to prevent.
/// Vacuous without a restart fault, without a surviving guild, or for a
/// restart process whose crash window never opened (`crash_at` beyond the
/// deliveries it saw): such a process simply ran correctly throughout.
pub fn restart_liveness(o: &ScenarioOutcome) -> Result<(), String> {
    if o.guild.is_none() || !o.quiescent {
        return Ok(());
    }
    for i in o.restarted() {
        if !o.restart_fired[i] {
            continue; // never crashed: the fault was vacuous this run
        }
        if !o.recovered[i] {
            return Err(format!(
                "p{i}'s restart fired but the process never rebuilt itself from its log"
            ));
        }
        if o.outputs[i].is_empty() {
            return Err(format!(
                "restarted p{i} recovered but delivered nothing in {} waves",
                o.scenario.waves
            ));
        }
    }
    Ok(())
}

/// WAL/state equivalence: replaying a process's final write-ahead log must
/// reproduce its live state exactly — same DAG vertices, same delivered
/// set, same commit log, same decided wave. This is the checker that makes
/// "the log is the state" an audited invariant rather than a design hope.
/// Pruning keeps the equivalence *an equality*: the live DAG and every
/// snapshot drop the same delivered prefix and carry the same floor, so a
/// pruned replay must still coincide with the pruned live state — the
/// post-prefix extension of the original claim. Vacuous for processes
/// without storage.
pub fn wal_state_equivalence(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        let i = p.index();
        let Some(replay) = &o.wal_replays[i] else { continue };
        let replayed = replay.as_ref().map_err(|e| format!("{p}: WAL unreadable: {e}"))?;
        let dag = o.dags[i].as_ref().expect("honest processes snapshot their DAG");
        if replayed.dag.pruned_floor() != dag.pruned_floor()
            || replayed.pruned_round != dag.pruned_floor()
        {
            return Err(format!(
                "{p}: WAL replays to pruning floor {} (marker {}) but the live DAG's floor is {}",
                replayed.dag.pruned_floor(),
                replayed.pruned_round,
                dag.pruned_floor()
            ));
        }
        if replayed.dag.len() != dag.len() {
            return Err(format!(
                "{p}: WAL replays to {} vertices but the live DAG holds {}",
                replayed.dag.len(),
                dag.len()
            ));
        }
        for r in 1..=dag.max_round().unwrap_or(0) {
            for v in dag.vertices_in_round(r) {
                if replayed.dag.get(v.id()) != Some(v) {
                    return Err(format!("{p}: {} differs between WAL and live DAG", v.id()));
                }
            }
        }
        let committer =
            o.committers[i].as_ref().expect("honest processes snapshot their committer");
        if replayed.commit_log != committer.log() {
            return Err(format!("{p}: WAL commit log differs from the live one"));
        }
        if replayed.decided_wave != committer.decided_wave() {
            return Err(format!(
                "{p}: WAL decided wave {} vs live {}",
                replayed.decided_wave,
                committer.decided_wave()
            ));
        }
        let live: std::collections::BTreeSet<VertexId> = committer.delivered().collect();
        if replayed.delivered != live {
            return Err(format!(
                "{p}: WAL delivered set ({}) differs from live ({})",
                replayed.delivered.len(),
                live.len()
            ));
        }
        // The wave tags behind delivered-state transfer must survive the
        // snapshot/replay round-trip too — a donor serving segments out of
        // a replayed log must group deliveries exactly like the live one.
        let live_waves: std::collections::BTreeMap<VertexId, u64> =
            committer.delivered_waves().collect();
        if replayed.delivered_waves != live_waves {
            return Err(format!("{p}: WAL delivered-wave tags differ from the live ones"));
        }
    }
    Ok(())
}

/// Delivered-state transfer consistency: for every honest process that
/// installed transferred state, (a) the install happened on a recovering
/// process (the only path that requests state), (b) its full output
/// sequence is **bit-for-bit** (id, block *and* ordering wave) a
/// prefix-match with every fault-free process — the transferred prefix
/// equals some honest delivered prefix exactly, and (c) no vertex id
/// appears twice in its output stream (a state install never re-delivers;
/// the exact outputs-vs-committer bookkeeping reconciliation is
/// [`delivery_bookkeeping`]'s job and applies to these processes too).
/// Vacuous in cells where nothing was transferred.
pub fn state_transfer_consistency(o: &ScenarioOutcome) -> Result<(), String> {
    for p in &o.honest {
        let Some(stats) = o.transfers[p.index()] else { continue };
        if stats.deliveries_installed == 0 && stats.waves_installed == 0 {
            continue;
        }
        if !o.recovered[p.index()] {
            return Err(format!(
                "{p} installed transferred state without ever having recovered from its log"
            ));
        }
        let mine = &o.outputs[p.index()];
        for c in &o.correct {
            if c == p {
                continue;
            }
            let other = &o.outputs[c.index()];
            let common = mine.len().min(other.len());
            for k in 0..common {
                if mine[k] != other[k] {
                    return Err(format!(
                        "{p}'s transferred prefix diverges from {c} at position {k}: \
                         {:?} vs {:?} (a state install must reproduce an honest delivered \
                         prefix bit-for-bit)",
                        mine[k], other[k]
                    ));
                }
            }
        }
        let distinct: HashSet<VertexId> = mine.iter().map(|v| v.id).collect();
        if distinct.len() != mine.len() {
            return Err(format!("{p} re-delivered across a state install"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Fault, FaultPlan, SchedulerSpec};
    use crate::{ByzAttack, TopologySpec};
    use asym_core::OrderedVertex;

    fn scenario() -> Scenario {
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Random,
            5,
        )
        .waves(4)
    }

    #[test]
    fn standard_suite_passes_on_fault_free_run() {
        let outcome = run_and_check_all(&scenario()).expect("all invariants hold");
        assert!(outcome.max_commits() > 0);
    }

    #[test]
    fn standard_suite_passes_with_byzantine_attacker() {
        for attack in [
            ByzAttack::EquivocateVertices,
            ByzAttack::BogusStrongEdges,
            ByzAttack::ConfirmFlood,
            ByzAttack::ForgeFetchReplies,
        ] {
            let s = Scenario::new(
                TopologySpec::UniformThreshold { n: 4, f: 1 },
                FaultPlan::none().with(3, Fault::Byzantine(attack)),
                SchedulerSpec::Random,
                2,
            )
            .waves(5);
            run_and_check_all(&s).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn restart_cell_passes_the_standard_suite_and_records_recovery() {
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 120, recover_at: 900 }),
            SchedulerSpec::Random,
            4,
        )
        .waves(5);
        let outcome = run_and_check_all(&s).unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.recovered[1], "restart must actually fire");
        assert!(outcome.wal_replays[1].is_some(), "restarted process carries a WAL");
        assert!(outcome.wal_replays[0].is_none(), "always-up processes carry none");
        assert!(!outcome.outputs[1].is_empty(), "recovered process delivers");
        let stats = outcome.wal_stats[1].expect("stats for the WAL-equipped process");
        assert!(stats.records_appended > 0);
    }

    #[test]
    fn unfired_restart_window_is_vacuous_not_a_violation() {
        // crash_at far beyond the run's deliveries: the process never
        // crashes, runs correctly throughout, and the suite must pass with
        // the restart fault recorded as vacuous.
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 100_000, recover_at: 200_000 }),
            SchedulerSpec::Random,
            4,
        )
        .waves(4);
        let outcome = run_and_check_all(&s).unwrap_or_else(|e| panic!("{e}"));
        assert!(!outcome.restart_fired[1], "crash window must not have opened");
        assert!(!outcome.recovered[1]);
        assert!(!outcome.outputs[1].is_empty(), "it simply ran correctly");
    }

    #[test]
    fn forced_violation_names_check_and_cell() {
        fn impossible(_: &ScenarioOutcome) -> Result<(), String> {
            Err("forced".into())
        }
        let failure =
            run_and_check(&scenario(), &[("impossible", impossible)]).expect_err("must fail");
        assert_eq!(failure.check, "impossible");
        let report = failure.to_string();
        assert!(report.contains("threshold(n=4,f=1)"), "{report}");
        assert!(report.contains("seed=5"), "{report}");
        assert!(report.contains("replay"), "{report}");
    }

    #[test]
    fn unbuildable_scenario_reported_as_build_failure() {
        let s = Scenario::new(
            TopologySpec::RandomSlices { n: 6, slice: 2, f: 1, seed: 3 },
            FaultPlan::none(),
            SchedulerSpec::Fifo,
            1,
        );
        let failure = run_and_check_all(&s).expect_err("cannot build");
        assert_eq!(failure.check, "build");
    }

    #[test]
    fn guild_liveness_is_vacuous_without_a_guild() {
        // Two crashes with f = 1: no guild → safety-only cell must PASS.
        let s = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::crash_from_start([2, 3]),
            SchedulerSpec::Random,
            1,
        )
        .waves(4);
        let outcome = run_and_check_all(&s).unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.guild.is_none());
        assert!(outcome.outputs.iter().all(|o| o.is_empty()), "nothing can commit");
    }

    #[test]
    fn prefix_consistency_detects_a_fork() {
        let mut outcome = scenario().run();
        // Artificially fork one process's first output.
        let forged = OrderedVertex {
            id: asym_dag::VertexId::new(999, crate::pid(0)),
            ..outcome.outputs[1][0].clone()
        };
        outcome.outputs[1][0] = forged;
        assert!(prefix_consistency(&outcome).is_err());
    }

    #[test]
    fn prefix_consistency_detects_a_block_level_fork() {
        // Regression for a bug found while building the recovery attack
        // cells: the checker used to compare only vertex *ids*, so two
        // processes delivering the same id with different payloads (the
        // observable of a successful equivocation, and of the powerloss
        // own-vertex re-mint demonstrated in this PR) passed silently.
        let mut outcome = scenario().run();
        let mut forged = outcome.outputs[1][0].clone();
        forged.block = asym_core::Block::new(vec![424_242]);
        outcome.outputs[1][0] = forged;
        let err = prefix_consistency(&outcome).expect_err("block fork must be flagged");
        assert!(err.contains("different blocks"), "{err}");
    }

    #[test]
    fn cross_dag_consistency_detects_a_smuggled_copy() {
        // A forged copy of an existing vertex planted in one process's DAG
        // (what a broken fetch acceptance would allow) must be flagged
        // even if it is never delivered.
        let mut outcome = scenario().run();
        let dag = outcome.dags[2].as_mut().unwrap();
        let victim = dag.vertices_in_round(1).next().unwrap().clone();
        let id = victim.id();
        let forged = asym_dag::Vertex::new(
            id.source,
            id.round,
            asym_core::Block::new(vec![777_777]),
            victim.strong_edges().clone(),
            victim.weak_edges().to_vec(),
        );
        dag.remove(id).unwrap();
        dag.insert(forged).unwrap();
        let err = cross_dag_consistency(&outcome).expect_err("smuggled copy must be flagged");
        assert!(err.contains("same identity"), "{err}");
        assert!(dag_no_fabrication(&outcome).is_err(), "and it is a fabrication too");
    }
}
