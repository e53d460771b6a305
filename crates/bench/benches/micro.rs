//! Micro-benchmarks for the hot data structures: system-store operations,
//! the event queue, the latency histogram, the DRR poller and the WFQ host
//! queue. Runs on the in-tree [`iorch_bench::timing`] harness (no external
//! bench framework).

use std::hint::black_box;

use iorch_bench::timing::Timer;
use iorch_hypervisor::{CoreId, DomainId, IoCore, Perms, XenStore, DOM0};
use iorch_metrics::LatencyHistogram;
use iorch_simcore::{Scheduler, SimDuration, SimTime, Simulation};
use iorch_storage::{IoKind, IoRequest, RequestId, StreamId, WfqQueue};

fn bench_store(t: &Timer) {
    {
        let mut store = XenStore::new();
        store
            .mkdir(DOM0, "/local/domain/1", Perms::private_to(DomainId(1)))
            .unwrap();
        t.time("xenstore_write_read", || {
            store
                .write(DomainId(1), "/local/domain/1/virt-dev/nr", "12345")
                .unwrap();
            black_box(store.read(DOM0, "/local/domain/1/virt-dev/nr").unwrap());
        })
        .report();
    }
    {
        let mut store = XenStore::new();
        store
            .mkdir(DOM0, "/local/domain/1", Perms::private_to(DomainId(1)))
            .unwrap();
        store.watch(DOM0, "/local");
        store.watch(DomainId(1), "/local/domain/1");
        t.time("xenstore_watch_fire", || {
            store
                .write(DomainId(1), "/local/domain/1/virt-dev/congested", "1")
                .unwrap();
            black_box(store.take_events());
        })
        .report();
    }
}

fn bench_event_queue(t: &Timer) {
    t.time("scheduler_1k_events", || {
        let mut sim = Simulation::new(0u64);
        for i in 0..1000u64 {
            sim.scheduler_mut().schedule_at(
                SimTime::from_nanos(i * 997 % 50_000),
                |w: &mut u64, _s: &mut Scheduler<u64>| *w += 1,
            );
        }
        sim.run_to_completion();
        black_box(*sim.world())
    })
    .report();
}

fn bench_histogram(t: &Timer) {
    {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        t.time("histogram_record", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_nanos(x >> 40));
        })
        .report();
    }
    {
        let mut h = LatencyHistogram::new();
        for i in 0..100_000u64 {
            h.record(SimDuration::from_nanos(i * 37 % 10_000_000));
        }
        t.time("histogram_p999", || black_box(h.p999())).report();
    }
}

fn bench_drr(t: &Timer) {
    t.time("iocore_drr_cycle", || {
        let mut core = IoCore::new(0, CoreId(0));
        for i in 0..64u64 {
            core.enqueue(
                DomainId((i % 4) as u32),
                IoRequest {
                    id: RequestId(i),
                    kind: IoKind::Read,
                    stream: StreamId((i % 4) as u32),
                    offset: i * (1 << 20),
                    len: 64 << 10,
                    submitted: SimTime::ZERO,
                },
                false,
                SimTime::ZERO,
            );
        }
        let mut now = SimTime::ZERO;
        while let Some(done) = core.start_next(now) {
            now = done;
            black_box(core.finish(now));
        }
    })
    .report();
}

fn bench_wfq(t: &Timer) {
    t.time("wfq_enqueue_dequeue", || {
        let mut q = WfqQueue::new();
        for s in 0..8u32 {
            q.set_weight(StreamId(s), 100 + s * 50);
        }
        for i in 0..256u64 {
            q.enqueue(IoRequest {
                id: RequestId(i),
                kind: IoKind::Write,
                stream: StreamId((i % 8) as u32),
                offset: i * (1 << 20),
                len: 64 << 10,
                submitted: SimTime::ZERO,
            });
        }
        while let Some(r) = q.dequeue() {
            black_box(r);
        }
    })
    .report();
}

fn main() {
    let t = Timer::default();
    bench_store(&t);
    bench_event_queue(&t);
    bench_histogram(&t);
    bench_drr(&t);
    bench_wfq(&t);
}
