//! Behaviour pin: every `Matrix::smoke()` cell must replay to exactly the
//! execution recorded in `tests/behaviour_pin.txt`, and every
//! `Matrix::full()` cell to the one recorded in
//! `tests/behaviour_pin_full.txt` (an `#[ignore]`d test, run by
//! `cargo test --release --test behaviour_pin -- --ignored`).
//!
//! Each cell folds its observable execution into one FNV-1a-64 digest
//! (the WAL framing's checksum, so the value is stable across platforms
//! and Rust versions): per-process outputs `(id, committed_in_wave, txs)`,
//! commit logs, transfer counters and WAL counters (records, bytes,
//! snapshots, and the order-sensitive digest of every record written),
//! plus the run's steps, simulated time and network counters.
//! A refactor that keeps every digest keeps every pinned execution bit for
//! bit. A change that alters a trace on purpose re-pins by replacing the
//! file with the table this test prints on a mismatch, and says so.

use asym_scenarios::{Matrix, Scenario, ScenarioOutcome};

/// The pinned per-cell digests, one hex value per line in sweep order.
const PINNED_SMOKE: &str = include_str!("behaviour_pin.txt");

/// The same for the full sweep.
const PINNED_FULL: &str = include_str!("behaviour_pin_full.txt");

/// Canonical little-endian encoding of everything the pin covers.
fn encode(o: &ScenarioOutcome) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut put = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    put(o.steps);
    put(o.time);
    put(o.net.sent);
    put(o.net.delivered);
    put(o.net.dropped);
    for p in 0..o.n() {
        put(o.outputs[p].len() as u64);
        for v in &o.outputs[p] {
            put(v.id.round);
            put(v.id.source.index() as u64);
            put(v.committed_in_wave);
            put(v.block.txs.len() as u64);
            v.block.txs.iter().for_each(|tx| put(*tx));
        }
        put(o.commit_logs[p].len() as u64);
        for (wave, leader) in &o.commit_logs[p] {
            put(*wave);
            put(leader.round);
            put(leader.source.index() as u64);
        }
        match o.transfers[p] {
            Some(t) => {
                put(1);
                put(t.offers_received);
                put(t.requests_sent);
                put(t.segments_received);
                put(t.segments_rejected);
                put(t.waves_installed);
                put(t.deliveries_installed);
            }
            None => put(0),
        }
        match o.wal_stats[p] {
            Some(w) => {
                put(1);
                put(w.records_appended);
                put(w.bytes_appended);
                put(w.snapshots_written);
                put(w.digest);
            }
            None => put(0),
        }
    }
    bytes
}

/// Replays every cell and compares its digest with the `pinned` table;
/// on a mismatch, fails listing the drifted cells and the new table.
fn assert_matches_pin(label: &str, cells: &[Scenario], pinned: &str) {
    let digests: Vec<u64> = cells
        .iter()
        .map(|s| {
            let outcome = s.try_run().unwrap_or_else(|e| panic!("{}: {e}", s.cell()));
            asym_storage::checksum(&encode(&outcome))
        })
        .collect();
    let pinned: Vec<u64> = pinned
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).expect("pin lines are hex digests"))
        .collect();
    let drifted: Vec<String> = digests
        .iter()
        .zip(&pinned)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(i, (got, want))| {
            format!("  cell {i} {}: {got:016x} != {want:016x}", cells[i].cell())
        })
        .collect();
    let table: String = digests.iter().map(|d| format!("{d:016x}\n")).collect();
    assert!(
        drifted.is_empty() && digests.len() == pinned.len(),
        "{} of {} {label} cells drifted from the pin ({} pinned):\n{}\nnew table:\n{table}",
        drifted.len(),
        digests.len(),
        pinned.len(),
        drifted.join("\n"),
    );
}

#[test]
fn smoke_matrix_executions_match_the_pinned_digests() {
    assert_matches_pin("smoke", &Matrix::smoke().scenarios(), PINNED_SMOKE);
}

#[test]
#[ignore = "replays all 5742 full-sweep cells; the scenario-matrix CI job runs it"]
fn full_matrix_executions_match_the_pinned_digests() {
    assert_matches_pin("full", &Matrix::full().scenarios(), PINNED_FULL);
}
