//! The simulation driver: owns the world and the scheduler and runs the
//! event loop to completion or to a time horizon.

use crate::event::{Callback, Scheduler};
use crate::time::{SimDuration, SimTime};

/// A complete simulation: a world of type `M` plus its event scheduler.
///
/// The world is whatever state the model needs — a machine, a cluster, a
/// test vector. Events are closures that receive `(&mut M, &mut Scheduler)`.
///
/// ```
/// use iorch_simcore::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new(0u64);
/// sim.scheduler_mut().schedule_in(SimDuration::from_millis(5), |count, s| {
///     *count += 1;
///     s.schedule_in(SimDuration::from_millis(5), |count, _| *count += 1);
/// });
/// sim.run_to_completion();
/// assert_eq!(*sim.world(), 2);
/// assert_eq!(sim.now(), iorch_simcore::SimTime::from_millis(10));
/// ```
pub struct Simulation<M> {
    world: M,
    sched: Scheduler<M>,
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    QueueEmpty,
    /// The horizon was reached with events still pending.
    HorizonReached,
}

impl<M> Simulation<M> {
    /// Create a simulation around an initial world at time zero.
    pub fn new(world: M) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Shared access to the world.
    #[inline]
    pub fn world(&self) -> &M {
        &self.world
    }

    /// Mutable access to the world (for setup and inspection between runs).
    #[inline]
    pub fn world_mut(&mut self) -> &mut M {
        &mut self.world
    }

    /// Mutable access to the scheduler (for setup).
    #[inline]
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M> {
        &mut self.sched
    }

    /// Both at once, for setup code that needs world and scheduler together.
    #[inline]
    pub fn parts_mut(&mut self) -> (&mut M, &mut Scheduler<M>) {
        (&mut self.world, &mut self.sched)
    }

    /// Consume the simulation and return the world.
    pub fn into_world(self) -> M {
        self.world
    }

    /// Execute a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop_next(SimTime::MAX) {
            Some(cb) => {
                self.dispatch(cb);
                true
            }
            None => false,
        }
    }

    #[inline]
    fn dispatch(&mut self, cb: Callback<M>) {
        cb(&mut self.world, &mut self.sched);
    }

    /// Run until the queue drains.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run until simulated time reaches `horizon` (inclusive: events *at*
    /// the horizon fire) or the queue drains, whichever is first. The clock
    /// is always left at `horizon` on return, so back-to-back `run_for`
    /// calls measure wall-clock spans even across idle periods.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        while let Some(cb) = self.sched.pop_next(horizon) {
            self.dispatch(cb);
        }
        if horizon > self.sched.now() {
            self.sched.advance_to(horizon);
        }
        if self.sched.pending() == 0 {
            RunOutcome::QueueEmpty
        } else {
            RunOutcome::HorizonReached
        }
    }

    /// Run for a relative span from the current clock.
    #[inline]
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.run_until(self.now() + span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        for ms in [1u64, 2, 3, 10, 20] {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_millis(ms), move |w, _| w.push(ms));
        }
        let outcome = sim.run_until(SimTime::from_millis(5));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.world(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(5));
        let outcome = sim.run_until(SimTime::from_millis(100));
        assert_eq!(outcome, RunOutcome::QueueEmpty);
        assert_eq!(sim.world(), &vec![1, 2, 3, 10, 20]);
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_millis(5), |w, _| *w += 1);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim = Simulation::new(());
        assert!(!sim.step());
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_millis(3), |w, _| *w += 1);
        sim.run_until(SimTime::from_millis(2));
        sim.run_for(SimDuration::from_millis(2));
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(4));
    }

    #[test]
    fn horizon_before_coarse_slot_leaves_wheel_anchored() {
        // Three deadlines share one multi-entry level-2 slot
        // ([8192, 12288) ns from time zero). A horizon inside that range
        // but before the earliest of them must fire nothing and leave the
        // wheel anchored to the clock: an event scheduled afterwards at
        // an already-pending timestamp still fires after it.
        let mut sim = Simulation::new(Vec::<u32>::new());
        for (id, ns) in [(1u32, 10_000u64), (2, 10_003), (3, 11_000)] {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_nanos(ns), move |w, _| w.push(id));
        }
        let outcome = sim.run_until(SimTime::from_nanos(9_000));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert!(sim.world().is_empty());
        assert_eq!(sim.scheduler_mut().pending(), 3);
        assert_eq!(sim.now(), SimTime::from_nanos(9_000));
        assert_eq!(sim.scheduler_mut().events_executed(), 0);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_nanos(10_000), |w, _| w.push(4));
        sim.run_to_completion();
        assert_eq!(sim.world(), &vec![1, 4, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_nanos(11_000));
    }

    #[test]
    fn periodic_stops_when_callback_returns_false() {
        let mut sim = Simulation::new(0u32);
        sim.scheduler_mut()
            .schedule_every(SimDuration::from_millis(1), |w, _| {
                *w += 1;
                *w < 3
            });
        let outcome = sim.run_until(SimTime::from_millis(10));
        assert_eq!(outcome, RunOutcome::QueueEmpty);
        assert_eq!(*sim.world(), 3);
        assert_eq!(sim.scheduler_mut().pending(), 0);
        assert_eq!(sim.scheduler_mut().events_executed(), 3);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(*sim.world(), 3, "a stopped periodic never fires again");
    }
}
