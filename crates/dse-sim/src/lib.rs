//! # dse-sim — deterministic direct-execution discrete-event engine
//!
//! This crate is the timing substrate for the DSE reproduction. It simulates
//! a set of *processes* (each running real Rust code on its own OS thread,
//! interleaved one-at-a-time in virtual-time order), passive *components*
//! (processes without a thread: [`Component`] state machines resumed in
//! place by whichever thread pops their event), *messages* between them
//! (delivered after caller-computed latencies) and *FCFS resources* (machine
//! CPUs, shared buses) that serialize and therefore stretch contended work.
//!
//! Design rules that make runs bit-for-bit reproducible:
//!
//! * virtual time is integer nanoseconds ([`SimTime`]/[`SimDuration`]);
//! * a process's clock only advances at yield points, so events are always
//!   handled in global `(time, sequence)` order;
//! * all randomness flows through the seeded [`SimRng`].
//!
//! There is no scheduler thread. The scheduler state sits behind one lock
//! and is a baton: the process that blocks pops and dispatches the next
//! events itself, on its own thread, and either finds its own wake (no
//! context switch) or fills the next process's mailbox, unparks it and
//! parks (one switch, [`SimStats::handoffs`]). `send`, `spawn`, `recv` on a
//! non-empty inbox, and a sleep or resource hold whose wake is the next
//! event ([`SimStats::inline_wakes`]) never leave the calling thread, and
//! neither does anything a component does: its wakes are function calls on
//! the dispatching thread. The
//! thread inside [`Simulator::run`] only starts the first process, sleeps
//! until the event heap is empty, and releases and joins what is left.
//! Which thread pops an event never shows in the results: counters,
//! virtual times and `trace_hash` are those of a single
//! scheduler loop. Two measured rules of the hand-off — unpark only after
//! the lock is released, and join a finished thread before proceeding —
//! are explained in the engine module's header.
//!
//! The typical setup (done by `dse-api`) is one component per DSE node
//! kernel — the paper's kernel is a library linked into the application's
//! process, not a process — plus one process per parallel application
//! process and the launcher, and a CPU resource per physical machine.

#![warn(missing_docs)]

mod engine;
mod envelope;
mod ids;
mod rng;
mod stats;
mod time;

pub use engine::{CompCtx, Component, ProcCtx, Simulator, Wait, Wakeup};
pub use envelope::{Envelope, RecvResult};
pub use ids::{ProcId, ResourceId};
pub use rng::SimRng;
pub use stats::{ResourceStats, SimReport, SimStats};
pub use time::{SimDuration, SimTime};
