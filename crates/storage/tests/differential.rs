//! Differential tests for the host queue and the channel dispatch. The
//! weighted fair queue must dequeue exactly what a scan of a `BTreeMap`
//! of streams picked, and `StorageSubsystem` must start requests on the
//! same channels and complete them in the same `(time, id)` order as a
//! dispatcher that lists the idle channels on every pass. Both references
//! are kept here, test-only, over random op scripts from the in-tree
//! seed-sweep harness (`iorch_simcore::gen`).

use iorch_simcore::{gen, SimDuration, SimRng, SimTime};
use iorch_storage::{
    DeviceModel, IoKind, IoRequest, Raid0, RequestId, SsdModel, SsdParams, StorageSubsystem,
    StreamId, SubsystemParams, WfqQueue,
};

use reference::{RefSubsystem, RefWfq};

const CASES: usize = 96;
const STREAMS: u32 = 6;

/// The reference schedulers: the `BTreeMap`-scan WFQ and the idle-list
/// channel dispatch, as they were before the heap and the bitmask.
mod reference {
    use std::collections::{BTreeMap, VecDeque};

    use iorch_simcore::{SimRng, SimTime};
    use iorch_storage::{DeviceModel, IoRequest, StreamId, DEFAULT_WEIGHT};

    #[derive(Clone, Debug)]
    struct Entry {
        req: IoRequest,
        finish_tag: f64,
    }

    /// Start-time fair queueing over a `BTreeMap` of per-stream FIFOs;
    /// dequeue scans every backlogged stream for the smallest head tag.
    #[derive(Default)]
    pub struct RefWfq {
        per_stream: BTreeMap<StreamId, VecDeque<Entry>>,
        weights: BTreeMap<StreamId, u32>,
        last_finish: BTreeMap<StreamId, f64>,
        virtual_time: f64,
        len: usize,
    }

    impl RefWfq {
        pub fn set_weight(&mut self, stream: StreamId, weight: u32) {
            self.weights.insert(stream, weight.clamp(1, 10_000));
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn stream_len(&self, stream: StreamId) -> usize {
            self.per_stream.get(&stream).map_or(0, |q| q.len())
        }

        pub fn enqueue(&mut self, req: IoRequest) {
            let weight = self
                .weights
                .get(&req.stream)
                .copied()
                .unwrap_or(DEFAULT_WEIGHT) as f64;
            let last = self.last_finish.get(&req.stream).copied().unwrap_or(0.0);
            let start = last.max(self.virtual_time);
            let finish = start + req.len as f64 / weight;
            self.last_finish.insert(req.stream, finish);
            self.per_stream
                .entry(req.stream)
                .or_default()
                .push_back(Entry {
                    req,
                    finish_tag: finish,
                });
            self.len += 1;
        }

        pub fn try_merge(&mut self, req: &IoRequest, max_merged_len: u64) -> bool {
            if let Some(q) = self.per_stream.get_mut(&req.stream) {
                if let Some(tail) = q.back_mut() {
                    if tail.req.can_back_merge(req) && tail.req.len + req.len <= max_merged_len {
                        tail.req.len += req.len;
                        return true;
                    }
                }
            }
            false
        }

        pub fn dequeue(&mut self) -> Option<IoRequest> {
            let (&stream, _) = self
                .per_stream
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .min_by(|(_, a), (_, b)| {
                    let fa = a.front().unwrap().finish_tag;
                    let fb = b.front().unwrap().finish_tag;
                    fa.partial_cmp(&fb).unwrap()
                })?;
            let q = self.per_stream.get_mut(&stream).unwrap();
            let entry = q.pop_front().unwrap();
            if q.is_empty() {
                self.per_stream.remove(&stream);
            }
            self.len -= 1;
            self.virtual_time = self.virtual_time.max(entry.finish_tag);
            Some(entry.req)
        }

        pub fn drain_stream(&mut self, stream: StreamId) -> usize {
            let n = self.per_stream.remove(&stream).map_or(0, |q| q.len());
            self.len -= n;
            n
        }
    }

    #[derive(Clone, Copy)]
    enum Slot {
        Idle,
        Primary(IoRequest, SimTime),
        Reserved(SimTime),
    }

    /// The host queue plus device channels, dispatching from a freshly
    /// collected idle-channel list on every pass.
    pub struct RefSubsystem {
        device: Box<dyn DeviceModel>,
        pub queue: RefWfq,
        channels: Vec<Slot>,
        rng: SimRng,
        max_merged_len: u64,
    }

    impl RefSubsystem {
        pub fn new(device: Box<dyn DeviceModel>, max_merged_len: u64, rng: SimRng) -> Self {
            let channels = vec![Slot::Idle; device.channels()];
            RefSubsystem {
                device,
                queue: RefWfq::default(),
                channels,
                rng,
                max_merged_len,
            }
        }

        pub fn submit(&mut self, req: IoRequest, now: SimTime) {
            if !self.queue.try_merge(&req, self.max_merged_len) {
                self.queue.enqueue(req);
            }
            self.kick(now);
        }

        fn kick(&mut self, now: SimTime) {
            loop {
                let idle: Vec<usize> = (0..self.channels.len())
                    .filter(|&c| matches!(self.channels[c], Slot::Idle))
                    .collect();
                if idle.is_empty() {
                    break;
                }
                let Some(req) = self.queue.dequeue() else {
                    break;
                };
                let want = self.device.parallelism(&req).max(1);
                let k = want.min(idle.len());
                let primary = idle[0];
                let service = self.device.service_time_k(primary, &req, k, &mut self.rng);
                let done_at = now + service;
                self.channels[primary] = Slot::Primary(req, done_at);
                for &c in idle.iter().take(k).skip(1) {
                    self.channels[c] = Slot::Reserved(done_at);
                }
            }
        }

        pub fn busy(&self) -> usize {
            self.channels
                .iter()
                .filter(|s| !matches!(s, Slot::Idle))
                .count()
        }

        pub fn next_completion(&self) -> Option<SimTime> {
            self.channels
                .iter()
                .filter_map(|slot| match slot {
                    Slot::Primary(_, t) | Slot::Reserved(t) => Some(*t),
                    Slot::Idle => None,
                })
                .min()
        }

        pub fn complete_due(&mut self, now: SimTime) -> Vec<(SimTime, IoRequest)> {
            let mut done = Vec::new();
            for slot in &mut self.channels {
                match *slot {
                    Slot::Primary(req, t) if t <= now => {
                        done.push((t, req));
                        *slot = Slot::Idle;
                    }
                    Slot::Reserved(t) if t <= now => *slot = Slot::Idle,
                    _ => {}
                }
            }
            done.sort_by_key(|&(t, r)| (t, r.id));
            self.kick(now);
            done
        }
    }
}

fn req(id: u64, stream: u32, offset: u64, len: u64) -> IoRequest {
    IoRequest {
        id: RequestId(id),
        kind: if id.is_multiple_of(3) {
            IoKind::Write
        } else {
            IoKind::Read
        },
        stream: StreamId(stream),
        offset,
        len,
        submitted: SimTime::ZERO,
    }
}

/// Draws the next request of a script: usually a back-merge candidate of
/// the stream's previous request, sometimes a jump. `cursor` tracks each
/// stream's next offset; `dead` streams were drained (torn down) and,
/// like a destroyed domain's stream, never submit again.
fn draw_request(
    rng: &mut SimRng,
    next_id: &mut u64,
    cursor: &mut [u64],
    dead: &[bool],
    max_len: u64,
) -> Option<IoRequest> {
    let live: Vec<u32> = (0..STREAMS).filter(|&s| !dead[s as usize]).collect();
    if live.is_empty() {
        return None;
    }
    let stream = live[rng.below(live.len() as u64) as usize];
    let c = &mut cursor[stream as usize];
    if rng.below(4) == 0 {
        *c = (u64::from(stream) << 32) + rng.below(1 << 20) * 4096;
    }
    // Multiples of 4 KiB, and every so often a tiny or odd length, so
    // tags collide and differ in every way.
    let len = match rng.below(8) {
        0 => 1 + rng.below(4095),
        _ => 4096 * (1 + rng.below(max_len / 4096)),
    };
    let r = req(*next_id, stream, *c, len);
    *next_id += 1;
    *c += len;
    Some(r)
}

/// Random `enqueue`/`dequeue`/`set_weight`/`try_merge`/`drain_stream`
/// scripts produce the same dequeue sequence as the `BTreeMap` scan.
#[test]
fn wfq_heap_matches_btreemap_scan() {
    gen::for_each_seed(0x57_d1ff, CASES, |seed, rng| {
        let mut heap = WfqQueue::new();
        let mut scan = RefWfq::default();
        let mut cursor = vec![0u64; STREAMS as usize];
        let mut dead = vec![false; STREAMS as usize];
        let mut next_id = 0;
        let steps = 50 + rng.below(400);
        for step in 0..steps {
            let at = format!("seed {seed} step {step}");
            match rng.below(10) {
                0..=3 => {
                    if let Some(r) = draw_request(rng, &mut next_id, &mut cursor, &dead, 256 << 10)
                    {
                        heap.enqueue(r);
                        scan.enqueue(r);
                    }
                }
                4 => {
                    if let Some(r) = draw_request(rng, &mut next_id, &mut cursor, &dead, 64 << 10) {
                        let limit = rng.below(512 << 10);
                        let merged = heap.try_merge(&r, limit);
                        assert_eq!(merged, scan.try_merge(&r, limit), "{at}");
                        if !merged {
                            heap.enqueue(r);
                            scan.enqueue(r);
                        }
                    }
                }
                5..=7 => {
                    let (a, b) = (heap.dequeue(), scan.dequeue());
                    assert_eq!(a.map(|r| (r.id, r.len)), b.map(|r| (r.id, r.len)), "{at}");
                }
                8 => {
                    let stream = StreamId(rng.below(u64::from(STREAMS)) as u32);
                    // Equal weights make equal tags, so ties are common.
                    let w = [1, 100, 100, 300, 20_000][rng.below(5) as usize];
                    heap.set_weight(stream, w);
                    scan.set_weight(stream, w);
                }
                _ => {
                    if rng.below(4) == 0 {
                        let s = rng.below(u64::from(STREAMS)) as usize;
                        let stream = StreamId(s as u32);
                        assert_eq!(heap.drain_stream(stream), scan.drain_stream(stream), "{at}");
                        dead[s] = true;
                    }
                }
            }
            assert_eq!(heap.len(), scan.len(), "{at}");
            for s in 0..STREAMS {
                let stream = StreamId(s);
                assert_eq!(heap.stream_len(stream), scan.stream_len(stream), "{at}");
            }
        }
        while let Some(r) = scan.dequeue() {
            assert_eq!(heap.dequeue().map(|h| h.id), Some(r.id), "seed {seed}");
        }
        assert!(heap.is_empty(), "seed {seed}");
        assert_eq!(heap.stream_entries()[1], 0, "seed {seed}");
    });
}

/// A device whose service time depends on the primary channel index and
/// the stripe width granted, plus noise from the subsystem's RNG, so a
/// different channel choice shows in completion times.
struct ChannelDevice {
    channels: usize,
}

impl DeviceModel for ChannelDevice {
    fn name(&self) -> &str {
        "channel-probe"
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn capacity_bytes(&self) -> u64 {
        1 << 40
    }

    fn max_bandwidth(&self) -> u64 {
        1 << 30
    }

    fn service_time(&mut self, channel: usize, req: &IoRequest, rng: &mut SimRng) -> SimDuration {
        self.service_time_k(channel, req, 1, rng)
    }

    fn parallelism(&self, req: &IoRequest) -> usize {
        (req.len / (64 << 10)) as usize + 1
    }

    fn service_time_k(
        &mut self,
        channel: usize,
        req: &IoRequest,
        k: usize,
        rng: &mut SimRng,
    ) -> SimDuration {
        let nanos = 1_000 * (channel as u64 + 1) + req.len / k as u64 + rng.below(2_000);
        SimDuration::from_nanos(nanos)
    }
}

fn testbed_raid() -> Box<dyn DeviceModel> {
    let members = (0..8)
        .map(|_| SsdModel::new(SsdParams::intel520()))
        .collect();
    Box::new(Raid0::new(members, 64 * 1024))
}

/// Drives one script through `StorageSubsystem` and the reference
/// dispatcher. A device that saturates gets more outstanding requests
/// than channels; completions interleave with submits at equal instants.
fn subsystem_script(
    seed: u64,
    rng: &mut SimRng,
    device: impl Fn() -> Box<dyn DeviceModel>,
    max_len: u64,
) {
    let dev_seed = rng.next_u64();
    let params = SubsystemParams {
        max_merged_len: 256 << 10,
        ..SubsystemParams::default()
    };
    let mut sub = StorageSubsystem::new(device(), params, SimRng::new(dev_seed));
    let mut oracle = RefSubsystem::new(device(), params.max_merged_len, SimRng::new(dev_seed));
    let mut cursor = vec![0u64; STREAMS as usize];
    let mut dead = vec![false; STREAMS as usize];
    let mut next_id = 0;
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    let steps = 100 + rng.below(500);
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        match rng.below(10) {
            0..=5 => {
                if let Some(mut r) = draw_request(rng, &mut next_id, &mut cursor, &dead, max_len) {
                    r.submitted = now;
                    sub.submit(r, now);
                    oracle.submit(r, now);
                }
            }
            6..=8 => {
                let Some(t) = oracle.next_completion() else {
                    continue;
                };
                now = t;
                let want = oracle.complete_due(now);
                out.clear();
                sub.complete_due(now, &mut out);
                let got: Vec<(RequestId, u64)> = out.iter().map(|r| (r.id, r.len)).collect();
                let want: Vec<(RequestId, u64)> = want.iter().map(|(_, r)| (r.id, r.len)).collect();
                assert_eq!(got, want, "{at}");
            }
            _ => {
                let s = rng.below(u64::from(STREAMS)) as usize;
                let stream = StreamId(s as u32);
                if rng.below(3) == 0 {
                    assert_eq!(
                        sub.drain_stream(stream),
                        oracle.queue.drain_stream(stream),
                        "{at}"
                    );
                    dead[s] = true;
                } else {
                    let w = 1 + rng.below(1_000) as u32;
                    sub.set_stream_weight(stream, w);
                    oracle.queue.set_weight(stream, w);
                }
            }
        }
        assert_eq!(sub.next_completion(), oracle.next_completion(), "{at}");
        assert_eq!(sub.in_flight(), oracle.busy(), "{at}");
        assert_eq!(sub.queue_depth(), oracle.queue.len(), "{at}");
    }
    while let Some(t) = oracle.next_completion() {
        let want: Vec<RequestId> = oracle.complete_due(t).iter().map(|(_, r)| r.id).collect();
        out.clear();
        sub.complete_due(t, &mut out);
        let got: Vec<RequestId> = out.iter().map(|r| r.id).collect();
        assert_eq!(got, want, "seed {seed} drain");
    }
    assert_eq!(sub.next_completion(), None, "seed {seed}");
    assert_eq!(sub.in_flight(), 0, "seed {seed}");
}

/// Striped requests reserve the same channels, and complete in the same
/// `(time, id)` order, as the idle-list dispatcher, on a device whose
/// timing reveals the channel chosen.
#[test]
fn channel_bitmask_matches_idle_list_dispatch() {
    gen::for_each_seed(0x57_c4a7, CASES, |seed, rng| {
        let channels = 1 + rng.below(64) as usize;
        subsystem_script(
            seed,
            rng,
            || Box::new(ChannelDevice { channels }),
            512 << 10,
        );
    });
}

/// The same on the paper's testbed volume (RAID0 of eight SSDs, 32
/// channels, service noise).
#[test]
fn testbed_raid_dispatch_matches_idle_list_dispatch() {
    gen::for_each_seed(0x57_4a1d, CASES, |seed, rng| {
        subsystem_script(seed, rng, testbed_raid, 1 << 20);
    });
}
