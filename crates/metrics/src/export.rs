//! Live metrics export: the telemetry side of the experiment harness.
//!
//! Post-hoc histograms answer "what happened over the run"; long scale
//! runs and SLO-driven policies (IOTune-style elastic per-VM states) need
//! "what is happening *now*". [`TelemetryHub`] turns the two live streams
//! the simulator produces — application operation latencies (fed by the
//! workload recorders) and trace events (fed by the
//! [`iorch_simcore::trace`] tap) — into fixed-cadence windows, each
//! summarized as a [`LiveReport`]: ops, p50/p99/p99.9, SLO-violation
//! counts, device throughput and control-plane decision counts.
//!
//! Determinism contract (DESIGN.md §12): the hub is an *observer*. It
//! holds no RNG, schedules no events, and is fed exclusively by borrowed
//! data, so attaching it cannot change the (seed → trace) mapping; the
//! emitted report stream is itself a pure function of the run. Reports
//! are cut at fixed sim-time boundaries (`k * cadence`), rolled forward
//! whenever a sample arrives and flushed by [`TelemetryHub::finish`].

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{SimDuration, SimTime};

use crate::histogram::LatencyHistogram;

/// One telemetry window, summarized.
#[derive(Clone, Debug)]
pub struct LiveReport {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive; `start + cadence` except for the final
    /// partial window cut by [`TelemetryHub::finish`]).
    pub end: SimTime,
    /// Application operations recorded in the window.
    pub ops: u64,
    /// Median application op latency.
    pub p50: SimDuration,
    /// 99th-percentile application op latency.
    pub p99: SimDuration,
    /// 99.9th-percentile application op latency.
    pub p999: SimDuration,
    /// Ops whose latency exceeded the SLO threshold (0 when no SLO set).
    pub slo_violations: u64,
    /// Device completions observed via the trace tap.
    pub dev_ops: u64,
    /// Bytes dispatched to the device, observed via the trace tap.
    pub dev_bytes: u64,
    /// Control-plane decisions observed via the trace tap.
    pub decisions: u64,
}

impl LiveReport {
    /// Fraction of ops violating the SLO, in `[0, 1]` (0 when idle).
    pub fn slo_violation_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.ops as f64
        }
    }

    /// Render as the one-line live format streamed during a run:
    ///
    /// ```text
    /// [telemetry 1.500s] ops=420 p50=812.0us p99=2104.0us p999=2944.0us slo_viol=2/420 (0.5%) dev_ops=388 dev_bytes=12582912 decisions=3
    /// ```
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "[telemetry {:.3}s] ops={} p50={:.1}us p99={:.1}us p999={:.1}us",
            self.end.as_secs_f64(),
            self.ops,
            self.p50.as_micros_f64(),
            self.p99.as_micros_f64(),
            self.p999.as_micros_f64(),
        );
        let _ = write!(
            s,
            " slo_viol={}/{} ({:.1}%)",
            self.slo_violations,
            self.ops,
            self.slo_violation_rate() * 100.0
        );
        let _ = write!(
            s,
            " dev_ops={} dev_bytes={} decisions={}",
            self.dev_ops, self.dev_bytes, self.decisions
        );
        s
    }
}

/// Receives each completed [`LiveReport`] as it is cut.
pub type ReportSink = Box<dyn FnMut(&LiveReport)>;

/// Fixed-cadence live telemetry aggregator. See the module docs.
///
/// `Debug` is summary-only (the sink is opaque).
pub struct TelemetryHub {
    cadence: SimDuration,
    slo: Option<SimDuration>,
    window_start: SimTime,
    next_cut: SimTime,
    app: LatencyHistogram,
    slo_violations: u64,
    dev_ops: u64,
    dev_bytes: u64,
    decisions: u64,
    finished: bool,
    reports: Vec<LiveReport>,
    sink: Option<ReportSink>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHub")
            .field("cadence", &self.cadence)
            .field("slo", &self.slo)
            .field("window_start", &self.window_start)
            .field("reports", &self.reports.len())
            .finish_non_exhaustive()
    }
}

impl TelemetryHub {
    /// New hub cutting windows every `cadence` (≥ 1 ms enforced), with an
    /// optional application-latency SLO threshold.
    pub fn new(cadence: SimDuration, slo: Option<SimDuration>) -> Self {
        let cadence = cadence.max(SimDuration::from_millis(1));
        TelemetryHub {
            cadence,
            slo,
            window_start: SimTime::ZERO,
            next_cut: SimTime::ZERO + cadence,
            app: LatencyHistogram::new(),
            slo_violations: 0,
            dev_ops: 0,
            dev_bytes: 0,
            decisions: 0,
            finished: false,
            reports: Vec::new(),
            sink: None,
        }
    }

    /// Attach a sink called once per completed window (e.g. an eprintln
    /// of [`LiveReport::render`]). Reports are *also* retained internally.
    pub fn with_sink(mut self, sink: ReportSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The configured cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// The configured SLO threshold, if any.
    pub fn slo(&self) -> Option<SimDuration> {
        self.slo
    }

    /// Emit every window boundary at or before `now`.
    fn roll(&mut self, now: SimTime) {
        while now >= self.next_cut {
            let end = self.next_cut;
            self.cut(end);
            self.window_start = end;
            self.next_cut = end + self.cadence;
        }
    }

    fn cut(&mut self, end: SimTime) {
        let report = LiveReport {
            start: self.window_start,
            end,
            ops: self.app.count(),
            p50: self.app.median(),
            p99: self.app.percentile(99.0),
            p999: self.app.p999(),
            slo_violations: self.slo_violations,
            dev_ops: self.dev_ops,
            dev_bytes: self.dev_bytes,
            decisions: self.decisions,
        };
        if let Some(sink) = self.sink.as_mut() {
            sink(&report);
        }
        self.reports.push(report);
        self.app = LatencyHistogram::new();
        self.slo_violations = 0;
        self.dev_ops = 0;
        self.dev_bytes = 0;
        self.decisions = 0;
    }

    /// Record one application operation (workload-recorder feed).
    pub fn record_op(&mut self, now: SimTime, latency: SimDuration) {
        self.roll(now);
        self.app.record(latency);
        if self.slo.is_some_and(|t| latency > t) {
            self.slo_violations += 1;
        }
    }

    /// Observe one trace event (the [`iorch_simcore::trace`] tap feed).
    /// Only device dispatch/complete and control-plane decisions are
    /// aggregated; everything else is ignored cheaply.
    pub fn on_trace(&mut self, t: SimTime, kind: &TraceEventKind) {
        match kind {
            TraceEventKind::DeviceDispatch { len, .. } => {
                self.roll(t);
                self.dev_bytes += len;
            }
            TraceEventKind::DeviceComplete { .. } => {
                self.roll(t);
                self.dev_ops += 1;
            }
            TraceEventKind::Decision(_) => {
                self.roll(t);
                self.decisions += 1;
            }
            _ => {}
        }
    }

    /// Snapshot of the current (partial) window without cutting it.
    pub fn snapshot(&self, now: SimTime) -> LiveReport {
        LiveReport {
            start: self.window_start,
            end: now,
            ops: self.app.count(),
            p50: self.app.median(),
            p99: self.app.percentile(99.0),
            p999: self.app.p999(),
            slo_violations: self.slo_violations,
            dev_ops: self.dev_ops,
            dev_bytes: self.dev_bytes,
            decisions: self.decisions,
        }
    }

    /// Cut all windows up to `now`, then the final partial window if it
    /// holds anything. Idempotent; call once at end of run.
    pub fn finish(&mut self, now: SimTime) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.roll(now);
        if self.app.count() > 0 || self.dev_ops > 0 || self.dev_bytes > 0 || self.decisions > 0 {
            self.cut(now);
        }
    }

    /// All reports cut so far, oldest first.
    pub fn reports(&self) -> &[LiveReport] {
        &self.reports
    }
}

/// Shared handle to a [`TelemetryHub`], cloned into workload recorders
/// and the trace tap.
pub type SharedHub = Rc<RefCell<TelemetryHub>>;

/// Convenience: a shared hub.
pub fn shared_hub(cadence: SimDuration, slo: Option<SimDuration>) -> SharedHub {
    Rc::new(RefCell::new(TelemetryHub::new(cadence, slo)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn windows_cut_at_fixed_boundaries() {
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), None);
        hub.record_op(ms(30), SimDuration::from_micros(10));
        hub.record_op(ms(90), SimDuration::from_micros(20));
        // Crossing into the second window cuts the first.
        hub.record_op(ms(150), SimDuration::from_micros(30));
        assert_eq!(hub.reports().len(), 1);
        let r = &hub.reports()[0];
        assert_eq!(r.start, ms(0));
        assert_eq!(r.end, ms(100));
        assert_eq!(r.ops, 2);
        hub.finish(ms(180));
        assert_eq!(hub.reports().len(), 2);
        assert_eq!(hub.reports()[1].ops, 1);
        assert_eq!(hub.reports()[1].end, ms(180));
    }

    #[test]
    fn quiet_gaps_emit_empty_windows() {
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), None);
        hub.record_op(ms(10), SimDuration::from_micros(10));
        hub.record_op(ms(450), SimDuration::from_micros(10));
        // Windows [0,100), [100,200), [200,300), [300,400) were all cut.
        assert_eq!(hub.reports().len(), 4);
        assert_eq!(hub.reports()[0].ops, 1);
        assert_eq!(hub.reports()[1].ops, 0);
        assert_eq!(hub.reports()[1].p50, SimDuration::ZERO);
    }

    #[test]
    fn slo_violations_counted_per_window() {
        let slo = Some(SimDuration::from_micros(100));
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), slo);
        hub.record_op(ms(10), SimDuration::from_micros(50));
        hub.record_op(ms(20), SimDuration::from_micros(150));
        hub.record_op(ms(30), SimDuration::from_micros(100)); // at threshold: ok
        hub.finish(ms(40));
        let r = &hub.reports()[0];
        assert_eq!(r.ops, 3);
        assert_eq!(r.slo_violations, 1);
        assert!((r.slo_violation_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_feed_aggregates_device_and_decisions() {
        use iorch_simcore::trace::Decision;
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), None);
        hub.on_trace(
            ms(5),
            &TraceEventKind::DeviceDispatch {
                req: 1,
                dom: 0,
                write: true,
                len: 4096,
                qdepth: 1,
            },
        );
        hub.on_trace(
            ms(6),
            &TraceEventKind::DeviceComplete {
                req: 1,
                dom: 0,
                latency_us: 80,
            },
        );
        hub.on_trace(
            ms(7),
            &TraceEventKind::Decision(Decision::FlushAck { dom: 0 }),
        );
        // Ignored kind: no panic, no aggregation.
        hub.on_trace(ms(8), &TraceEventKind::CongestionEnter { dom: 0 });
        hub.finish(ms(9));
        let r = &hub.reports()[0];
        assert_eq!((r.dev_bytes, r.dev_ops, r.decisions), (4096, 1, 1));
    }

    #[test]
    fn finish_is_idempotent_and_skips_empty_tail() {
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), None);
        hub.record_op(ms(10), SimDuration::from_micros(10));
        hub.finish(ms(100));
        // The op landed in [0,100) which was cut by roll(); the tail at
        // t=100 is empty and must not produce a second report.
        assert_eq!(hub.reports().len(), 1);
        hub.finish(ms(200));
        assert_eq!(hub.reports().len(), 1);
    }

    #[test]
    fn render_is_deterministic() {
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), None);
        hub.record_op(ms(10), SimDuration::from_micros(500));
        hub.finish(ms(50));
        let a = hub.reports()[0].render();
        assert!(a.starts_with("[telemetry 0.050s] ops=1 p50=500.0us"));
        assert!(a.contains("slo_viol=0/1 (0.0%)"));
    }

    #[test]
    fn sink_sees_every_cut() {
        use std::cell::Cell;
        let n = Rc::new(Cell::new(0u32));
        let n2 = Rc::clone(&n);
        let mut hub = TelemetryHub::new(SimDuration::from_millis(100), None)
            .with_sink(Box::new(move |_| n2.set(n2.get() + 1)));
        hub.record_op(ms(250), SimDuration::from_micros(10));
        hub.finish(ms(260));
        assert_eq!(n.get() as usize, hub.reports().len());
        assert_eq!(n.get(), 3);
    }
}
