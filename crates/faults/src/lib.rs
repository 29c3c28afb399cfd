//! Deterministic, seed-driven fault injection for the serving stack.
//!
//! Ergen-style in-tyre radio links drop frames, brown out below the
//! break-even speed, and stall mid-transfer; a serving system for the
//! paper's energy analyses only earns the "production" label if its
//! behaviour under those conditions is *specified and tested*, not
//! discovered in the field. This crate supplies the test half of that
//! bargain: a [`FaultPlan`] is a seeded schedule of injectable faults
//! that the `monityre-serve` stack consults at its instrumented choke
//! points (the accept loop, job evaluation, response stream I/O).
//!
//! Design rules, each load-bearing:
//!
//! * **Compiled in always, inert unless armed.** Every injection point
//!   is a branch on an `Option<&FaultPlan>`; a `None` plan costs one
//!   pointer test and nothing else. Production binaries carry the same
//!   code the chaos suite exercises, so the tested paths are the
//!   shipped paths.
//! * **Deterministic by construction.** Whether the *n*-th decision of
//!   a given [`FaultKind`] fires is a pure function of `(seed, kind, n)`
//!   — a splitmix64 hash compared against the kind's probability
//!   threshold. Thread interleavings can reorder *wall-clock* effects
//!   but never change which occurrences fire, so a failing chaos run
//!   reproduces from its seed alone.
//! * **Observable.** Every injected fault increments the process-global
//!   [`monityre_obs`] counters `faults.injected` and
//!   `faults.injected.<kind>`, which the server's `metrics` op exposes.
//!
//! Plans are built programmatically ([`FaultPlan::new`] +
//! [`FaultPlan::with_fault`]) or parsed from a spec string
//! (`<seed>:<kind>=<prob>[,<kind>=<prob>...]`), which is also the format
//! of the [`FAULTS_ENV_VAR`] environment variable the server reads at
//! startup:
//!
//! ```
//! use monityre_faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("2011:conn_reset=0.5,corrupt_frame=0.25").unwrap();
//! assert_eq!(plan.seed(), 2011);
//! // The same plan replays the same decision sequence.
//! let replay = FaultPlan::parse("2011:conn_reset=0.5,corrupt_frame=0.25").unwrap();
//! let fired: Vec<bool> = (0..32).map(|_| plan.decide(FaultKind::ConnReset)).collect();
//! let again: Vec<bool> = (0..32).map(|_| replay.decide(FaultKind::ConnReset)).collect();
//! assert_eq!(fired, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;

pub use plan::{FaultKind, FaultPlan, FAULTS_ENV_VAR};
