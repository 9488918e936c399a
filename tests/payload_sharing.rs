//! Regression guard for shared block payloads.
//!
//! A block's transactions are one immutable allocation: every copy of a
//! vertex the run makes — per-recipient fan-out, broadcast tallies, the DAG
//! buffer and store, the ordered outputs — shares it. In a fault-free
//! asymmetric cell this shows twice: every correct process delivers the very
//! allocation its origin was handed, and the whole execution allocates far
//! less per delivery step than one 256-transaction block (2 KiB). Copying
//! the payload per message costs about 4.9 KB per step on this cell; sharing
//! it, about 0.3 KB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asym_scenarios::{FaultPlan, Scenario, SchedulerSpec, TopologySpec};

/// Counts every byte requested from the heap (a reallocation counts its new
/// size, as a fresh allocation would).
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
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

    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = scenario.try_run().expect("the cell builds");
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert!(out.quiescent);
    assert_eq!(out.steps, 71_700, "the schedule of this pinned cell changed");
    let per_step = allocated / out.steps;
    assert!(
        per_step < 1024,
        "{per_step} B allocated per step ({allocated} B over {} steps): block payloads are being copied",
        out.steps
    );

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
