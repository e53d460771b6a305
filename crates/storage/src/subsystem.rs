//! The host storage subsystem: weighted-fair queue + device channels +
//! monitor, exposed as a passive state machine the hypervisor drives.
//!
//! The machine event loop calls [`StorageSubsystem::submit`] when a backend
//! pushes a request, asks [`next_completion`](StorageSubsystem::next_completion)
//! where to schedule the next device event, and calls
//! [`complete_due`](StorageSubsystem::complete_due) when that event fires.

use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{trace_event, FaultPlan, SimDuration, SimRng, SimTime};

use crate::device::DeviceModel;
use crate::monitor::DeviceMonitor;
use crate::request::{IoRequest, StreamId};
use crate::wfq::WfqQueue;

/// Tunables for the host storage subsystem.
#[derive(Clone, Copy, Debug)]
pub struct SubsystemParams {
    /// Maximum merged request size (Linux `max_sectors_kb` analogue).
    pub max_merged_len: u64,
    /// Queue depth (per device) above which the host considers itself
    /// congested — the management module's "overcrowded" test.
    pub congestion_queue_depth: usize,
    /// Monitoring window for bandwidth sampling.
    pub monitor_window: SimDuration,
}

impl Default for SubsystemParams {
    fn default() -> Self {
        SubsystemParams {
            // Host-level merging is disabled by default: a merged request
            // loses the absorbed request's identity, and the callers above
            // (guest kernels) track completions per request id. The guest
            // block layer already coalesces adjacent chunks before
            // submission, so the host sees large requests anyway.
            max_merged_len: 0,
            congestion_queue_depth: 64,
            monitor_window: SimDuration::from_millis(100),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    req: IoRequest,
    done_at: SimTime,
}

/// A channel slot: empty, carrying a request, or reserved as an extra
/// stripe lane for a request on another slot.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Idle,
    Primary(InFlight),
    /// Reserved until the given time for a striped request elsewhere.
    Reserved(SimTime),
}

/// One block device plus its host-side queueing, fairness and monitoring.
pub struct StorageSubsystem {
    device: Box<dyn DeviceModel>,
    queue: WfqQueue,
    channels: Vec<Slot>,
    /// Bit `c` is set while channel `c` is idle. Dispatch takes the lowest
    /// set bits, so a request's primary channel is the lowest idle index.
    idle: u64,
    /// Bits of every channel the device has.
    all: u64,
    /// Reused by `complete_due` to sort one instant's completions.
    done_spare: Vec<(SimTime, IoRequest)>,
    monitor: DeviceMonitor,
    params: SubsystemParams,
    rng: SimRng,
    merged: u64,
    submitted: u64,
    faults: Option<FaultPlan>,
}

impl StorageSubsystem {
    /// Wrap a device model with at most 64 channels.
    pub fn new(device: Box<dyn DeviceModel>, params: SubsystemParams, rng: SimRng) -> Self {
        let channels = device.channels();
        assert!(
            (1..=64).contains(&channels),
            "the channel bitmask holds 1..=64 channels, not {channels}"
        );
        let all = u64::MAX >> (64 - channels);
        let monitor = DeviceMonitor::new(device.max_bandwidth(), channels, params.monitor_window);
        StorageSubsystem {
            device,
            queue: WfqQueue::new(),
            channels: vec![Slot::Idle; channels],
            idle: all,
            all,
            done_spare: Vec::new(),
            monitor,
            params,
            rng,
            merged: 0,
            submitted: 0,
            faults: None,
        }
    }

    /// Install a fault plan; device-level faults (slowdown/stall windows)
    /// apply to requests *dispatched* while a window is active. With no
    /// plan installed the dispatch path pays only an `Option` check.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Set a stream's fair-share weight (the cgroup blkio knob the
    /// co-scheduler programs).
    pub fn set_stream_weight(&mut self, stream: StreamId, weight: u32) {
        self.queue.set_weight(stream, weight);
    }

    /// Submit a request to the host queue, merging if possible, and start
    /// it immediately if a channel is idle.
    pub fn submit(&mut self, req: IoRequest, now: SimTime) {
        self.submitted += 1;
        if self.queue.try_merge(&req, self.params.max_merged_len) {
            self.merged += 1;
        } else {
            self.queue.enqueue(req);
        }
        self.kick(now);
    }

    /// Start queued requests on idle channels. A striped request reserves
    /// up to its stripe parallelism in idle channels so aggregate
    /// bandwidth is conserved.
    fn kick(&mut self, now: SimTime) {
        let mut changed = false;
        while self.idle != 0 {
            let Some(req) = self.queue.dequeue() else {
                break;
            };
            let want = self.device.parallelism(&req).max(1);
            let k = want.min(self.idle.count_ones() as usize);
            let primary = self.idle.trailing_zeros() as usize;
            let service = self.device.service_time_k(primary, &req, k, &mut self.rng);
            let mut done_at = now + service;
            if let Some(plan) = &self.faults {
                let factor = plan.device_slowdown(now);
                if factor != 1.0 {
                    done_at = now + service.mul_f64(factor);
                }
                if let Some(until) = plan.device_stall_until(now) {
                    done_at = done_at.max(until);
                }
            }
            trace_event!(
                now,
                TraceEventKind::DeviceDispatch {
                    req: req.id.0,
                    dom: req.stream.0,
                    write: req.kind.is_write(),
                    len: req.len,
                    qdepth: self.queue.len() as u32,
                }
            );
            self.channels[primary] = Slot::Primary(InFlight { req, done_at });
            self.idle &= self.idle - 1;
            for _ in 1..k {
                self.channels[self.idle.trailing_zeros() as usize] = Slot::Reserved(done_at);
                self.idle &= self.idle - 1;
            }
            changed = true;
        }
        if changed {
            self.monitor.on_busy_channels(now, self.in_flight());
        }
    }

    /// Busy channels (primary or reserved) as a bitmask.
    fn busy(&self) -> u64 {
        self.all & !self.idle
    }

    /// Earliest pending completion, if any — the machine schedules its next
    /// device event here.
    pub fn next_completion(&self) -> Option<SimTime> {
        let mut next = None;
        let mut busy = self.busy();
        while busy != 0 {
            let t = match self.channels[busy.trailing_zeros() as usize] {
                Slot::Primary(f) => f.done_at,
                Slot::Reserved(t) => t,
                Slot::Idle => unreachable!("a busy bit marks a busy slot"),
            };
            next = Some(next.map_or(t, |n: SimTime| n.min(t)));
            busy &= busy - 1;
        }
        next
    }

    /// Complete everything due at or before `now`, then refill channels.
    /// Appends the completed requests to `out` in completion-time order
    /// (ties by request id, then by channel).
    pub fn complete_due(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        let mut done = std::mem::take(&mut self.done_spare);
        let mut busy = self.busy();
        while busy != 0 {
            let c = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            let finished = match self.channels[c] {
                Slot::Primary(inflight) if inflight.done_at <= now => {
                    done.push((inflight.done_at, inflight.req));
                    true
                }
                Slot::Reserved(t) => t <= now,
                _ => false,
            };
            if finished {
                self.channels[c] = Slot::Idle;
                self.idle |= 1 << c;
            }
        }
        done.sort_by_key(|&(t, r)| (t, r.id));
        for &(t, req) in &done {
            self.monitor.on_complete(t, &req);
            trace_event!(
                t,
                TraceEventKind::DeviceComplete {
                    req: req.id.0,
                    dom: req.stream.0,
                    latency_us: t.saturating_since(req.submitted).as_micros(),
                }
            );
            out.push(req);
        }
        done.clear();
        self.done_spare = done;
        self.monitor.on_busy_channels(now, self.in_flight());
        self.kick(now);
    }

    /// Number of requests waiting in the host queue (not yet on a channel).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Busy device channels: each in-flight request's primary channel
    /// plus the stripe lanes it reserved.
    pub fn in_flight(&self) -> usize {
        self.busy().count_ones() as usize
    }

    /// Total requests accepted (including those later merged away).
    pub fn submitted_count(&self) -> u64 {
        self.submitted
    }

    /// How many submissions were absorbed by merging.
    pub fn merged_count(&self) -> u64 {
        self.merged
    }

    /// The management module's "host device is overcrowded" test: a deep
    /// host queue means real congestion (as opposed to a guest's false
    /// trigger).
    pub fn is_congested(&self) -> bool {
        self.queue.len() >= self.params.congestion_queue_depth
    }

    /// Drop all queued (not yet in-flight) requests of a stream — VM
    /// teardown. Returns how many were dropped.
    pub fn drain_stream(&mut self, stream: StreamId) -> usize {
        self.queue.drain_stream(stream)
    }

    /// The host queue's per-stream entries: `[weights, backlogged
    /// streams]`. Teardown ([`StorageSubsystem::drain_stream`]) frees a
    /// stream's entries, so both stay bounded by the live streams.
    pub fn stream_entries(&self) -> [usize; 2] {
        self.queue.stream_entries()
    }

    /// Monitoring signals (bandwidth fraction, utilization, counters).
    pub fn monitor_mut(&mut self) -> &mut DeviceMonitor {
        &mut self.monitor
    }

    /// Read-only access to the monitor.
    pub fn monitor(&self) -> &DeviceMonitor {
        &self.monitor
    }

    /// Aggregate device bandwidth in bytes/s.
    pub fn device_bandwidth(&self) -> u64 {
        self.device.max_bandwidth()
    }

    /// Device model name.
    pub fn device_name(&self) -> &str {
        self.device.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoKind, RequestId};
    use crate::ssd::{SsdModel, SsdParams};

    fn quiet_subsystem(channels: usize) -> StorageSubsystem {
        let mut p = SsdParams::intel520();
        p.noise_sigma = 0.0;
        p.channels = channels;
        StorageSubsystem::new(
            Box::new(SsdModel::new(p)),
            SubsystemParams::default(),
            SimRng::new(1),
        )
    }

    fn complete(sub: &mut StorageSubsystem, now: SimTime) -> Vec<IoRequest> {
        let mut out = Vec::new();
        sub.complete_due(now, &mut out);
        out
    }

    fn req(id: u64, stream: u32, offset: u64, len: u64) -> IoRequest {
        IoRequest {
            id: RequestId(id),
            kind: IoKind::Read,
            stream: StreamId(stream),
            offset,
            len,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn single_request_completes_after_service_time() {
        let mut sub = quiet_subsystem(1);
        sub.submit(req(0, 1, 0, 4096), SimTime::ZERO);
        let done_at = sub.next_completion().unwrap();
        assert!(done_at > SimTime::ZERO);
        assert!(complete(&mut sub, done_at - SimDuration::from_nanos(1)).is_empty());
        let done = complete(&mut sub, done_at);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, RequestId(0));
        assert_eq!(sub.in_flight(), 0);
        assert!(sub.next_completion().is_none());
    }

    #[test]
    fn channels_run_in_parallel() {
        let mut sub = quiet_subsystem(4);
        for i in 0..4 {
            // Non-contiguous so no merging.
            sub.submit(req(i, i as u32, (i * 10) << 20, 4096), SimTime::ZERO);
        }
        assert_eq!(sub.in_flight(), 4);
        assert_eq!(sub.queue_depth(), 0);
        let t = sub.next_completion().unwrap();
        // All four should complete at the same (noise-free) time.
        let done = complete(&mut sub, t);
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn queue_backs_up_beyond_channels() {
        let mut sub = quiet_subsystem(2);
        for i in 0..10 {
            sub.submit(req(i, i as u32, (i * 10) << 20, 4096), SimTime::ZERO);
        }
        assert_eq!(sub.in_flight(), 2);
        assert_eq!(sub.queue_depth(), 8);
        // Completing frees channels and pulls more work in.
        let t = sub.next_completion().unwrap();
        complete(&mut sub, t);
        assert_eq!(sub.in_flight(), 2);
        assert_eq!(sub.queue_depth(), 6);
    }

    #[test]
    fn sequential_same_stream_requests_merge() {
        let mut p = SsdParams::intel520();
        p.noise_sigma = 0.0;
        p.channels = 1;
        let mut sub = StorageSubsystem::new(
            Box::new(SsdModel::new(p)),
            SubsystemParams {
                max_merged_len: 1024 * 1024,
                ..SubsystemParams::default()
            },
            SimRng::new(1),
        );
        // First occupies the channel; next two are contiguous in queue.
        sub.submit(req(0, 1, 0, 4096), SimTime::ZERO);
        sub.submit(req(1, 1, 1 << 20, 4096), SimTime::ZERO);
        sub.submit(req(2, 1, (1 << 20) + 4096, 4096), SimTime::ZERO);
        assert_eq!(sub.merged_count(), 1);
        assert_eq!(sub.queue_depth(), 1);
    }

    #[test]
    fn congestion_flag_follows_queue_depth() {
        let mut sub = quiet_subsystem(1);
        assert!(!sub.is_congested());
        for i in 0..70 {
            sub.submit(req(i, i as u32, (i * 10) << 20, 4096), SimTime::ZERO);
        }
        assert!(sub.is_congested());
    }

    #[test]
    fn weights_bias_dispatch_order() {
        let mut sub = quiet_subsystem(1);
        sub.set_stream_weight(StreamId(1), 400);
        sub.set_stream_weight(StreamId(2), 100);
        // Fill the single channel, then queue 8 per stream.
        sub.submit(req(99, 9, 500 << 20, 4096), SimTime::ZERO);
        for i in 0..8 {
            sub.submit(req(i, 1, (100 + i * 10) << 20, 4096), SimTime::ZERO);
            sub.submit(req(100 + i, 2, (300 + i * 10) << 20, 4096), SimTime::ZERO);
        }
        // Drain and observe that stream 1 finishes its backlog much earlier.
        let mut completions: Vec<(usize, u32)> = Vec::new();
        let mut idx = 0;
        while let Some(t) = sub.next_completion() {
            for done in complete(&mut sub, t) {
                completions.push((idx, done.stream.0));
                idx += 1;
            }
        }
        let last_s1 = completions
            .iter()
            .filter(|(_, s)| *s == 1)
            .map(|(i, _)| *i)
            .max()
            .unwrap();
        let last_s2 = completions
            .iter()
            .filter(|(_, s)| *s == 2)
            .map(|(i, _)| *i)
            .max()
            .unwrap();
        assert!(last_s1 < last_s2, "s1 backlog should clear first");
    }

    #[test]
    fn slowdown_window_stretches_service_time() {
        use iorch_simcore::{FaultKind, FaultWindow};
        let mut clean = quiet_subsystem(1);
        clean.submit(req(0, 1, 0, 4096), SimTime::ZERO);
        let clean_done = clean.next_completion().unwrap();

        let mut slow = quiet_subsystem(1);
        slow.install_faults(FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::DeviceSlowdown { factor: 4.0 },
        ));
        slow.submit(req(0, 1, 0, 4096), SimTime::ZERO);
        let slow_done = slow.next_completion().unwrap();
        assert_eq!(
            slow_done.saturating_since(SimTime::ZERO).as_nanos(),
            4 * clean_done.saturating_since(SimTime::ZERO).as_nanos()
        );

        // Outside the window the device is back to nominal speed.
        let mut windowed = quiet_subsystem(1);
        windowed.install_faults(FaultPlan::new().with(
            FaultWindow::new(SimTime::ZERO, SimTime::from_millis(1)),
            FaultKind::DeviceSlowdown { factor: 4.0 },
        ));
        let late = SimTime::from_millis(5);
        windowed.submit(req(0, 1, 0, 4096), late);
        let windowed_done = windowed.next_completion().unwrap();
        assert_eq!(windowed_done, late + (clean_done - SimTime::ZERO));
    }

    #[test]
    fn stall_window_defers_completion_to_window_end() {
        use iorch_simcore::{FaultKind, FaultWindow};
        let stall_end = SimTime::from_millis(50);
        let mut sub = quiet_subsystem(1);
        sub.install_faults(FaultPlan::new().with(
            FaultWindow::new(SimTime::ZERO, stall_end),
            FaultKind::DeviceStall,
        ));
        sub.submit(req(0, 1, 0, 4096), SimTime::ZERO);
        assert_eq!(sub.next_completion().unwrap(), stall_end);
        assert_eq!(complete(&mut sub, stall_end).len(), 1);
        // Work dispatched after the window services normally.
        sub.submit(req(1, 1, 10 << 20, 4096), stall_end);
        assert!(sub.next_completion().unwrap() < stall_end + SimDuration::from_millis(1));
    }

    #[test]
    fn monitor_sees_completions() {
        let mut sub = quiet_subsystem(1);
        sub.submit(req(0, 1, 0, 8192), SimTime::ZERO);
        let t = sub.next_completion().unwrap();
        complete(&mut sub, t);
        assert_eq!(sub.monitor().op_counts(), (1, 0));
        assert_eq!(sub.monitor().byte_counts(), (8192, 0));
    }
}
