//! Cost-weighted admission control with bounded queuing and load shedding.
//!
//! Every request entering the server carries a **cost estimate** in
//! microseconds (for a batch, the estimate of its own plan, bridged by the
//! [`DevicePlanner`] — see [`crate::server`]). The controller
//! admits requests against a global in-flight budget:
//!
//! * while the sum of admitted costs stays within
//!   [`AdmissionConfig::max_inflight_cost_us`], requests are admitted
//!   immediately — cheap probes keep flowing next to an expensive join
//!   instead of queuing behind a per-connection count;
//! * past the budget, requests **queue in FIFO order** up to
//!   [`AdmissionConfig::max_queue_depth`] waiters;
//! * past the queue depth, requests are **shed**: [`AdmissionController::admit`]
//!   returns [`Overloaded`] immediately and the server replies
//!   `Response::Overloaded` instead of stalling the connection.
//!
//! A request costing more than the whole budget is still admitted once the
//! system drains (the `running == 0` escape hatch), so one oversized query
//! can never deadlock the server — it just runs alone.
//!
//! The synchronization is a ranked `OrderedMutex` + `OrderedCondvar` ticket
//! queue: each waiter takes a ticket and proceeds only when its ticket is at
//! the head and capacity is available, so admission order is arrival order —
//! a flood of cheap requests cannot starve an expensive one at the head. The
//! controller's lock carries [`LockRank::AdmissionQueue`], the outermost
//! rank in the workspace order: a planned request waits here holding
//! snapshots (`Arc`s), never a lock — nothing may be held while entering
//! the controller (checked at runtime under `debug_assertions`).
//!
//! [`DevicePlanner`]: deeplens_core::optimizer::DevicePlanner
//! [`Overloaded`]: Overloaded

use std::sync::atomic::{AtomicU64, Ordering};

use deeplens_analyze::sync::{LockRank, OrderedCondvar, OrderedMutex};

/// Admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Global budget of in-flight request cost, in estimated microseconds
    /// of single-core vectorized work.
    pub max_inflight_cost_us: f64,
    /// Maximum requests allowed to wait for budget; the next one is shed.
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            // Half a second of estimated single-core work in flight, and a
            // short queue: past that, replying Overloaded beats stacking
            // latency on every connection.
            max_inflight_cost_us: 500_000.0,
            max_queue_depth: 32,
        }
    }
}

/// The shed verdict: the budget was exhausted *and* the queue was full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Waiters already queued when the request was shed.
    pub queued: usize,
}

/// Mutable admission state behind the lock.
#[derive(Debug, Default)]
struct State {
    /// Sum of admitted (still-running) request costs.
    inflight_cost_us: f64,
    /// Admitted requests currently executing.
    running: usize,
    /// Waiters currently queued.
    queued: usize,
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Ticket currently allowed to attempt admission (FIFO head).
    head: u64,
}

/// Cost-weighted admission controller shared by every connection.
#[derive(Debug)]
pub struct AdmissionController {
    config_budget_us: f64,
    max_queue_depth: usize,
    state: OrderedMutex<State>,
    cv: OrderedCondvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl Default for AdmissionController {
    fn default() -> Self {
        Self::new(AdmissionConfig::default())
    }
}

impl AdmissionController {
    /// A controller enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config_budget_us: config.max_inflight_cost_us.max(0.0),
            max_queue_depth: config.max_queue_depth,
            state: OrderedMutex::new(
                LockRank::AdmissionQueue,
                "AdmissionController::state",
                State::default(),
            ),
            cv: OrderedCondvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Admit a request of estimated cost `cost_us`, blocking in FIFO order
    /// while the in-flight budget is exhausted. Returns the RAII permit
    /// whose drop releases the cost, or [`Overloaded`] immediately when the
    /// wait queue is already at the configured depth.
    pub fn admit(&self, cost_us: f64) -> Result<Permit<'_>, Overloaded> {
        let cost_us = cost_us.max(1.0);
        let mut st = self.state.lock();
        let fits =
            |st: &State| st.running == 0 || st.inflight_cost_us + cost_us <= self.config_budget_us;
        if !(st.queued == 0 && fits(&st)) {
            // Must wait — or shed, if the queue is already full.
            if st.queued >= self.max_queue_depth {
                let queued = st.queued;
                drop(st);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded { queued });
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queued += 1;
            while !(st.head == ticket && fits(&st)) {
                st = self.cv.wait(st);
            }
            st.head += 1;
            st.queued -= 1;
        } else {
            // Immediate admission consumes a ticket too, keeping the FIFO
            // head aligned with arrivals.
            st.next_ticket += 1;
            st.head += 1;
        }
        st.running += 1;
        st.inflight_cost_us += cost_us;
        drop(st);
        // Wake the next waiter: admission may leave budget for it.
        self.cv.notify_all();
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Permit {
            controller: self,
            cost_us,
        })
    }

    /// Requests admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed since construction.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Waiters currently queued for budget.
    pub fn queued(&self) -> usize {
        self.state.lock().queued
    }

    /// Sum of admitted, still-running request costs (µs).
    pub fn inflight_cost_us(&self) -> f64 {
        self.state.lock().inflight_cost_us
    }

    fn release(&self, cost_us: f64) {
        let mut st = self.state.lock();
        st.running -= 1;
        st.inflight_cost_us = (st.inflight_cost_us - cost_us).max(0.0);
        drop(st);
        self.cv.notify_all();
    }
}

/// RAII admission permit: holds `cost_us` of the in-flight budget until
/// dropped.
#[derive(Debug)]
pub struct Permit<'a> {
    controller: &'a AdmissionController,
    cost_us: f64,
}

impl Permit<'_> {
    /// The admitted cost this permit holds.
    pub fn cost_us(&self) -> f64 {
        self.cost_us
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.controller.release(self.cost_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn admits_within_budget_without_blocking() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight_cost_us: 100.0,
            max_queue_depth: 4,
        });
        let a = ctl.admit(40.0).unwrap();
        let b = ctl.admit(40.0).unwrap();
        assert_eq!(ctl.admitted(), 2);
        assert_eq!(ctl.shed(), 0);
        assert!((ctl.inflight_cost_us() - 80.0).abs() < 1e-9);
        drop(a);
        drop(b);
        assert!(ctl.inflight_cost_us() < 1e-9);
    }

    #[test]
    fn oversized_request_runs_alone_instead_of_deadlocking() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight_cost_us: 10.0,
            max_queue_depth: 4,
        });
        // Costs far beyond the whole budget still admit when idle.
        let p = ctl.admit(1e9).unwrap();
        drop(p);
        assert_eq!(ctl.admitted(), 1);
    }

    #[test]
    fn sheds_start_only_past_the_configured_queue_depth() {
        const DEPTH: usize = 3;
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_inflight_cost_us: 10.0,
            max_queue_depth: DEPTH,
        }));
        // Exhaust the budget with one running request…
        let hog = ctl.admit(10.0).unwrap();
        // …then fill the queue with exactly DEPTH blocked waiters.
        let waiters: Vec<_> = (0..DEPTH)
            .map(|_| {
                let ctl = ctl.clone();
                std::thread::spawn(move || drop(ctl.admit(5.0).unwrap()))
            })
            .collect();
        assert!(
            wait_until(Duration::from_secs(5), || ctl.queued() == DEPTH),
            "waiters did not enqueue"
        );
        // Depth reached but not exceeded: nothing shed yet.
        assert_eq!(ctl.shed(), 0, "sheds must not start below the depth");
        // The DEPTH+1-th concurrent request is the first to shed.
        let verdict = ctl.admit(5.0);
        assert_eq!(verdict.unwrap_err(), Overloaded { queued: DEPTH });
        assert_eq!(ctl.shed(), 1);
        // Draining the hog lets every queued waiter through, in order.
        drop(hog);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(ctl.admitted() as usize, 1 + DEPTH);
        assert_eq!(ctl.queued(), 0);
        assert!(ctl.inflight_cost_us() < 1e-9);
    }

    #[test]
    fn queued_requests_admit_in_arrival_order() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_inflight_cost_us: 10.0,
            max_queue_depth: 16,
        }));
        let hog = ctl.admit(10.0).unwrap();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..4 {
            let ctl_i = ctl.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                // Full-budget cost: each waiter admits only after its
                // predecessor released, so the recorded order is exactly
                // the admission order.
                let p = ctl_i.admit(10.0).unwrap();
                order.lock().unwrap().push(i);
                drop(p);
            }));
            // Serialize arrivals so ticket order is the spawn order.
            assert!(
                wait_until(Duration::from_secs(5), || ctl.queued() == i + 1),
                "waiter {i} did not enqueue"
            );
        }
        drop(hog);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "FIFO admission");
    }
}
