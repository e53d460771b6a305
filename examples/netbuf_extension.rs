//! The paper's future-work extension in action: collaborative network
//! transmit-buffer sizing (§7 — "network buffer sizes, window sizes,
//! packet queues").
//!
//! Four sender VMs share one GbE link through per-VM TX buffers. Their
//! traffic alternates bursts and quiet periods. With *static* buffers the
//! semantic gap bites twice: small buffers bounce bursty senders off the
//! limit while the link idles, and large buffers build seconds of
//! bufferbloat when the link saturates. The collaborative policy reads
//! each guest's published backlog/rejections from the system store, sees
//! the real link utilization from the host side, and resizes buffers on
//! the fly.
//!
//! ```text
//! cargo run --release --example netbuf_extension
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use iorchestra_suite::core::netbuf::{NetBufParams, NetBufPolicy, TxDecision, TxObservation};
use iorchestra_suite::netsim::TxQueue;
use iorchestra_suite::simcore::{Scheduler, SimDuration, SimTime, Simulation};

const LINK_BW: u64 = 117 * 1024 * 1024; // GbE
const PKT: u64 = 1500;
const SENDERS: usize = 4;

struct World {
    queues: Vec<TxQueue>,
    /// Whether each sender is currently in a burst phase.
    bursting: Vec<bool>,
    link_busy_until: SimTime,
    link_busy_time: SimDuration,
    /// Rotating round-robin cursor over the TX queues.
    rr: usize,
    sent_pkts: u64,
    rejected_before: Vec<u64>,
    /// Rejections counted during the settling window (excluded from the
    /// steady-state comparison).
    rejected_settling: u64,
    delays_us_sum: f64,
    delays_n: u64,
}

impl World {
    fn link_utilization(&self, now: SimTime) -> f64 {
        let t = now.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            (self.link_busy_time.as_secs_f64() / t).min(1.0)
        }
    }
}

fn drain_link(w: &mut World, s: &mut Scheduler<World>) {
    // Round-robin service of the TX queues at link speed.
    let now = s.now();
    if w.link_busy_until > now {
        return;
    }
    let n = w.queues.len();
    for k in 0..n {
        let i = (w.rr + k) % n;
        if !w.queues[i].is_empty() {
            w.rr = (i + 1) % n;
            let bytes = w.queues[i].pop(now).unwrap();
            let wire = SimDuration::from_secs_f64(bytes as f64 / LINK_BW as f64);
            w.link_busy_until = now + wire;
            w.link_busy_time += wire;
            w.sent_pkts += 1;
            w.delays_us_sum += w.queues[i].avg_delay().as_micros_f64();
            w.delays_n += 1;
            s.schedule_at(w.link_busy_until, drain_link);
            return;
        }
    }
}

fn run(collaborative: bool, initial_buf: u64) -> (f64, f64, u64) {
    let world = World {
        queues: (0..SENDERS).map(|_| TxQueue::new(initial_buf)).collect(),
        bursting: vec![false; SENDERS],
        link_busy_until: SimTime::ZERO,
        link_busy_time: SimDuration::ZERO,
        rr: 0,
        sent_pkts: 0,
        rejected_before: vec![0; SENDERS],
        rejected_settling: 0,
        delays_us_sum: 0.0,
        delays_n: 0,
    };
    let mut sim = Simulation::new(world);
    let s = sim.scheduler_mut();

    // Senders: each emits a 300 KiB application batch (say, a response
    // buffer handed to the NIC at once) every 15 ms, phase-shifted. The
    // average load (~80 MB/s) is well under the link: only the *burst*
    // needs buffer space — exactly the sizing question the guest cannot
    // answer alone.
    for i in 0..SENDERS {
        let phase = SimDuration::from_micros(3750 * i as u64 + 1);
        let st = s.now() + phase;
        s.schedule_at(st, move |w: &mut World, s| {
            fn batch(i: usize, w: &mut World, s: &mut Scheduler<World>) {
                w.bursting[i] = true;
                for _ in 0..200 {
                    let _ = w.queues[i].push(PKT, s.now());
                }
                s.schedule_in(SimDuration::from_millis(15), move |w, s| batch(i, w, s));
            }
            batch(i, w, s);
        });
    }
    // Kick the link whenever work may exist.
    s.schedule_every(SimDuration::from_micros(100), |w: &mut World, s| {
        drain_link(w, s);
        true
    });
    // Snapshot rejections after a settling second, so the table compares
    // steady states (the collaborative case needs a few management ticks
    // to adapt from its deliberately bad starting size).
    s.schedule_at(SimTime::from_secs(1), |w: &mut World, _s| {
        w.rejected_settling = w.queues.iter().map(|q| q.rejected()).sum();
    });
    // The collaborative management tick.
    if collaborative {
        let params = NetBufParams::default();
        let policy = Rc::new(RefCell::new(NetBufPolicy::new()));
        let pol = Rc::clone(&policy);
        s.schedule_every(SimDuration::from_millis(100), move |w: &mut World, s| {
            let util = w.link_utilization(s.now());
            for i in 0..w.queues.len() {
                let rejected_now = w.queues[i].rejected();
                let obs = TxObservation {
                    capacity: w.queues[i].capacity(),
                    backlog: w.queues[i].backlog(),
                    rejected_delta: rejected_now - w.rejected_before[i],
                    avg_delay: w.queues[i].avg_delay(),
                };
                w.rejected_before[i] = rejected_now;
                let d = pol.borrow_mut().decide(&params, obs, util);
                if std::env::var("IORCH_TRACE").is_ok() && i == 0 && s.now() < SimTime::from_secs(2)
                {
                    eprintln!(
                        "    t={} util={util:.2} cap={} delta={} delay={} -> {d:?}",
                        s.now(),
                        obs.capacity,
                        obs.rejected_delta,
                        obs.avg_delay
                    );
                }
                if let TxDecision::Resize(new) = d {
                    w.queues[i].set_capacity(new);
                }
            }
            true
        });
    }
    sim.run_until(SimTime::from_secs(10));
    let w = sim.world();
    let goodput = w.sent_pkts as f64 * PKT as f64 / 10.0 / 1e6;
    let avg_delay_ms = if w.delays_n == 0 {
        0.0
    } else {
        w.delays_us_sum / w.delays_n as f64 / 1000.0
    };
    let rejected: u64 = w.queues.iter().map(|q| q.rejected()).sum::<u64>() - w.rejected_settling;
    (goodput, avg_delay_ms, rejected)
}

fn main() {
    println!("collaborative TX-buffer sizing, 4 bursty senders on one GbE link\n");
    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "configuration", "goodput MB/s", "delay (ms)", "rejected*"
    );
    for (label, collaborative, buf) in [
        ("static 16 KiB (guessed too small)", false, 16u64 << 10),
        ("static 8 MiB (over-provisioned)", false, 8 << 20),
        ("collaborative (starts 16 KiB)", true, 16 << 10),
    ] {
        let (goodput, delay, rejected) = run(collaborative, buf);
        println!("{label:<34} {goodput:>12.1} {delay:>12.2} {rejected:>12}");
    }
    println!(
        "\n* rejections counted after a 1 s settling window.\n\
         The collaborative policy grows buffers while the link has headroom (ending \
         rejections) and shrinks them when queueing delay exceeds the target — the same \
         store-mediated pattern as the paper's Algorithms 1-3, applied to the NIC."
    );
}
