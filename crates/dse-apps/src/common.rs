//! Shared helpers for the paper workloads.

use std::sync::Arc;

use dse_api::{DseCtx, DseProgram, RunResult};
use parking_lot::Mutex;

/// A slot application bodies use to hand a result back to the harness
/// (typically set by rank 0 after the final barrier).
#[derive(Debug)]
pub struct Capture<T>(Arc<Mutex<Option<T>>>);

impl<T> Clone for Capture<T> {
    fn clone(&self) -> Self {
        Capture(Arc::clone(&self.0))
    }
}

impl<T> Default for Capture<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Capture<T> {
    /// An empty capture slot.
    pub fn new() -> Capture<T> {
        Capture(Arc::new(Mutex::new(None)))
    }

    /// Store the result (exactly once).
    pub fn set(&self, value: T) {
        let mut slot = self.0.lock();
        assert!(slot.is_none(), "Capture set twice");
        *slot = Some(value);
    }

    /// Take the result out after the run.
    pub fn take(&self) -> T {
        self.0
            .lock()
            .take()
            .expect("Capture never set — did rank 0 finish?")
    }
}

/// Run `body` as an SPMD program over `nprocs` processes of `program`;
/// returns the measured run and the value rank 0's body handed back.
pub fn run_captured<T: Send + 'static>(
    program: &DseProgram,
    nprocs: usize,
    body: impl Fn(&mut DseCtx<'_>) -> Option<T> + Send + Sync + 'static,
) -> (RunResult, T) {
    let capture = Capture::new();
    let cap = capture.clone();
    let result = program.run(nprocs, move |ctx| {
        if let Some(value) = body(ctx) {
            cap.set(value);
        }
    });
    (result, capture.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_take() {
        let c = Capture::new();
        c.set(42);
        assert_eq!(c.take(), 42);
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn double_set_panics() {
        let c = Capture::new();
        c.set(1);
        c.set(2);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn empty_take_panics() {
        let c: Capture<u8> = Capture::new();
        let _ = c.take();
    }
}
