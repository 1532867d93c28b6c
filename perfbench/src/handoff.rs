//! The generators' own channel between their threads: a counter a thread
//! sleeps on until it reaches a value. It never touches the pool.
//!
//! A waiting thread sleeps instead of spinning, so the thread doing the
//! timed work runs alone. On a guest whose two vCPUs share a core, a
//! spinning peer slows the timed calls by as much as the host happens to
//! run the two vCPUs side by side, which varies from run to run.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
pub struct Gauge {
    value: Mutex<u64>,
    changed: Condvar,
}

impl Gauge {
    pub fn get(&self) -> u64 {
        *self.value.lock().expect("gauge poisoned")
    }

    pub fn set(&self, v: u64) {
        *self.value.lock().expect("gauge poisoned") = v;
        self.changed.notify_all();
    }

    /// Sleeps until `ready` holds for the value; returns it and the time
    /// waited.
    pub fn wait_until(&self, ready: impl Fn(u64) -> bool) -> (u64, Duration) {
        let t0 = Instant::now();
        let guard = self.value.lock().expect("gauge poisoned");
        let guard = self.changed.wait_while(guard, |v| !ready(*v)).expect("gauge poisoned");
        (*guard, t0.elapsed())
    }
}
