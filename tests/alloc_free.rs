//! The guest cache-hit path allocates nothing. Once a file is cached, a
//! read submitted through `Cluster::submit_op` with a registered
//! handler runs from submission to its handler's wake without touching
//! the heap. A counting global allocator checks it; it counts only the
//! allocations of the test's own thread while the measured loop runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::guestos::FileOp;
use iorchestra_suite::hypervisor::{Cluster, OpHandler, OpResult, Sched, VmSpec, Waiter};
use iorchestra_suite::simcore::{SimTime, Simulation};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, plus a count of this thread's allocations
/// while `COUNTING` is set.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Counts wakes and checks each carries its op's result.
struct Hits(Cell<u64>);

impl OpHandler for Hits {
    fn wake(self: Rc<Self>, _: &mut Cluster, _: &mut Sched, _: u64, r: Option<OpResult>) {
        assert!(r.is_some(), "an op wake carries its result");
        self.0.set(self.0.get() + 1);
    }
}

#[test]
fn steady_state_cache_hits_do_not_allocate() {
    const FILE: u64 = 1 << 20;
    const READ: u64 = 16 << 10;
    const HITS: u64 = 10_000;

    let mut sim = Simulation::new(Cluster::new());
    let (cl, s) = sim.parts_mut();
    let idx = SystemKind::IOrchestra.provision(cl, s, 7);
    let dom = cl.create_domain(s, idx, VmSpec::new(1, 1).with_disk_gb(8), |_| {});
    let file = cl
        .machine_mut(idx)
        .kernel_mut(dom)
        .unwrap()
        .create_file(FILE)
        .unwrap();
    let hits = Rc::new(Hits(Cell::new(0)));
    let handler: Rc<dyn OpHandler> = hits.clone();
    // Reads that start 64 KiB apart: never sequential, so no readahead.
    let read = |i: u64| FileOp::Read {
        file,
        offset: (i * 7 % 16) * (64 << 10),
        len: READ,
    };
    // Cache the whole file, then run the hit loop once unmeasured so
    // every reused buffer reaches its working size.
    cl.submit_op(
        s,
        idx,
        dom,
        0,
        FileOp::Read {
            file,
            offset: 0,
            len: FILE,
        },
        None,
    );
    sim.run_until(SimTime::from_millis(100));
    let (cl, s) = sim.parts_mut();
    for i in 0..HITS {
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            read(i),
            Some(Waiter::new(handler.clone(), i)),
        );
    }
    assert_eq!(hits.0.get(), HITS, "every warm-up read is an inline hit");

    COUNTING.with(|on| on.set(true));
    for i in 0..HITS {
        cl.submit_op(
            s,
            idx,
            dom,
            0,
            read(i),
            Some(Waiter::new(handler.clone(), i)),
        );
    }
    COUNTING.with(|on| on.set(false));

    assert_eq!(
        hits.0.get(),
        2 * HITS,
        "every measured read is an inline hit"
    );
    assert_eq!(
        ALLOCS.with(Cell::get),
        0,
        "heap allocations on the hit path"
    );
}
