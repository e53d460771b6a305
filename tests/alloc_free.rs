//! The guest cache-hit path and the host I/O path allocate nothing in
//! steady state. Once a file is cached, a read submitted through
//! `Cluster::submit_op` with a registered handler runs from submission to
//! its handler's wake without touching the heap. Once warm, a block
//! request's trip through an I/O core (`enqueue` → `start_next` →
//! `finish`) and the host storage subsystem (fair queue, channels,
//! completion) does not either. A counting global allocator checks it;
//! it counts only the allocations of the test's own thread while the
//! measured loop runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use iorchestra_suite::core::SystemKind;
use iorchestra_suite::guestos::FileOp;
use iorchestra_suite::hypervisor::{
    Cluster, CoreId, DomainId, IoCore, OpHandler, OpResult, Sched, VmSpec, Waiter,
};
use iorchestra_suite::simcore::{SimRng, SimTime, Simulation};
use iorchestra_suite::storage::{
    paper_testbed_storage, IoKind, IoRequest, RequestId, StorageSubsystem, StreamId,
};

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

/// Domains (and host-queue streams) the host I/O path test spreads
/// requests over.
const HOST_DOMS: u32 = 40;
/// Requests outstanding at the device before the test completes some:
/// 32 on channels, at most 16 in the host queue.
const HOST_DEPTH: usize = 48;

fn host_req(id: u64, dom: u32, rng: &mut SimRng, now: SimTime) -> IoRequest {
    IoRequest {
        id: RequestId(id),
        kind: if id.is_multiple_of(3) {
            IoKind::Write
        } else {
            IoKind::Read
        },
        stream: StreamId(dom),
        offset: rng.below(1 << 22) * 4096,
        len: 4096 * (1 + rng.below(64)),
        submitted: now,
    }
}

/// One request's trip: buffered on the I/O core, copied, submitted to the
/// host queue; then completions until at most `HOST_DEPTH` requests are
/// outstanding at the device, so the queue stays backlogged beyond the
/// 32 channels and streams keep leaving and rejoining it.
fn host_cycle(
    i: u64,
    rng: &mut SimRng,
    now: &mut SimTime,
    core: &mut IoCore,
    sub: &mut StorageSubsystem,
    done: &mut Vec<IoRequest>,
) -> usize {
    let dom = 1 + rng.below(u64::from(HOST_DOMS)) as u32;
    let req = host_req(i, dom, rng, *now);
    core.enqueue(DomainId(dom), req, i.is_multiple_of(5), *now);
    *now = core
        .start_next(*now)
        .expect("an idle core with work starts");
    let (_, req) = core.finish(*now);
    sub.submit(req, *now);
    let mut completed = 0;
    while sub.in_flight() + sub.queue_depth() > HOST_DEPTH {
        let t = sub.next_completion().expect("a busy device completes");
        *now = (*now).max(t);
        sub.complete_due(*now, done);
        completed += done.len();
        done.clear();
    }
    completed
}

#[test]
fn steady_state_host_io_path_does_not_allocate() {
    const CYCLES: u64 = 10_000;

    let mut sub = paper_testbed_storage(7);
    let mut core = IoCore::new(0, CoreId(0));
    let mut rng = SimRng::new(11);
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    // Host-queue FIFOs are pooled and keep their capacity. Back every
    // stream up as deep as the loop can (17 queued: one submit past
    // `HOST_DEPTH`), so no pooled FIFO grows later; then the warm-up cycles bring every other record and
    // reused buffer to its working size.
    let mut id = 4 * CYCLES;
    for dom in 1..=HOST_DOMS {
        for _ in 0..=HOST_DEPTH - 32 {
            sub.submit(host_req(id, dom, &mut rng, now), now);
            id += 1;
        }
    }
    while let Some(t) = sub.next_completion() {
        now = t;
        sub.complete_due(now, &mut done);
        done.clear();
    }
    for i in 0..CYCLES {
        host_cycle(i, &mut rng, &mut now, &mut core, &mut sub, &mut done);
    }

    COUNTING.with(|on| on.set(true));
    let mut completed = 0;
    for i in CYCLES..2 * CYCLES {
        completed += host_cycle(i, &mut rng, &mut now, &mut core, &mut sub, &mut done);
    }
    COUNTING.with(|on| on.set(false));

    assert!(
        completed as u64 > CYCLES * 9 / 10,
        "the measured loop completed {completed} requests"
    );
    assert!(sub.merged_count() == 0 && core.backlog() == 0);
    assert_eq!(
        ALLOCS.with(Cell::get),
        0,
        "heap allocations on the host I/O path"
    );
}
