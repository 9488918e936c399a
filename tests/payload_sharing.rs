//! Regression guard for shared vertices and block payloads.
//!
//! A vertex is one immutable allocation, and so are its block's
//! transactions: every copy of a vertex the run makes — per-recipient
//! fan-out, broadcast tallies, the DAG buffer and store — is a reference
//! count on the origin's allocation, and the ordered outputs share the
//! block. In a fault-free asymmetric cell this shows three times: every
//! correct process delivers the very block allocation its origin was
//! handed, two correct processes store the very same vertices, and the
//! whole execution allocates well under one heap block per delivery step.
//! Copying the payload per message costs about 4.9 KB per step on this
//! cell; sharing the payload alone, 266 B and 2.79 allocations; sharing
//! the whole vertex, 129 B and 0.77 allocations; per-round broadcast rows,
//! inline tallies and process sets and one reused send buffer, 57 B and
//! 0.11 allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asym_scenarios::{FaultPlan, Scenario, SchedulerSpec, TopologySpec};

/// Counts every heap allocation and every byte requested (a reallocation
/// counts as an allocation of its new size, as a fresh one would).
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The only test in this binary, so no other test thread allocates while
/// it counts.
#[test]
fn block_payloads_are_shared_end_to_end() {
    let scenario = Scenario::new(
        TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
        FaultPlan::none(),
        SchedulerSpec::Random,
        1,
    )
    .waves(8)
    .blocks_per_process(33)
    .txs_per_block(256);

    let (bytes_before, count_before) =
        (ALLOCATED.load(Ordering::Relaxed), ALLOCATIONS.load(Ordering::Relaxed));
    let out = scenario.try_run().expect("the cell builds");
    let allocated = ALLOCATED.load(Ordering::Relaxed) - bytes_before;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - count_before;

    assert!(out.quiescent);
    assert_eq!(out.steps, 71_700, "the schedule of this pinned cell changed");
    let per_step = allocated / out.steps;
    assert!(
        per_step < 96,
        "{per_step} B allocated per step ({allocated} B over {} steps): vertices or block payloads are being copied",
        out.steps
    );
    let per_step = allocations as f64 / out.steps as f64;
    assert!(
        per_step < 0.30,
        "{per_step:.2} allocations per step ({allocations} over {} steps): vertices are being copied",
        out.steps
    );

    // One allocation per vertex: every correct process stores the very
    // vertex the hub delivered to all of them, not a copy of it. Genesis
    // vertices are built locally by each process.
    let mut first: HashMap<_, &asym_dag_rider::dag::Vertex<_>> = HashMap::new();
    let mut stored_twice = 0;
    for p in out.correct.iter() {
        let dag = out.dags[p.index()].as_ref().expect("correct processes report their DAG");
        for round in 1..=dag.max_round().unwrap_or(0) {
            for v in dag.vertices_in_round(round) {
                let seen = *first.entry(v.id()).or_insert(v);
                if !std::ptr::eq(seen, v) {
                    let (a, b) = (seen.strong_edges(), v.strong_edges());
                    assert!(std::ptr::eq(a, b), "{p} stores a copy of {}", v.id());
                    stored_twice += 1;
                }
            }
        }
    }
    assert!(stored_twice > 0);

    // One allocation per block: each correct process outputs the origin's
    // injected payload itself, never a copy of it.
    let mut first: HashMap<_, &asym_dag_rider::core::Block> = HashMap::new();
    let mut delivered = 0;
    for p in out.correct.iter() {
        assert!(!out.outputs[p.index()].is_empty(), "{p} delivered nothing");
        for o in &out.outputs[p.index()] {
            let block = *first.entry(o.id).or_insert(&o.block);
            assert!(Arc::ptr_eq(&block.txs, &o.block.txs), "{p} holds a copy of {}'s block", o.id);
            if !o.block.is_empty() {
                let injected = &out.injected[o.id.source.index()];
                assert!(
                    injected.iter().any(|b| Arc::ptr_eq(&b.txs, &o.block.txs)),
                    "{p} delivered {} with a payload its origin was never handed",
                    o.id
                );
                delivered += 1;
            }
        }
    }
    assert!(delivered > 0);
}
