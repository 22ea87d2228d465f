//! Master/worker deployment layer for the DStress reproduction.
//!
//! Everything before this crate runs a whole deployment inside one
//! process.  This crate splits it across real processes connected by
//! real sockets, without changing a single output bit:
//!
//! * [`proto`] — the framed master↔worker protocol: registration, job
//!   description, task batches, outcome batches.  The payloads are the
//!   engine's own serializable executor types.
//! * [`master`] — the `dstress-master` side: accepts worker and HTTP
//!   status connections on one listener, registers the fleet, sends
//!   every worker the run's one [`proto::JobSpec`], and drives
//!   [`dstress_core::engine::DStressRuntime::execute_with`] through a
//!   [`master::RemoteExecutor`] that ships every window's tasks to the
//!   fleet.
//! * [`worker`] — the `dstress-node` side: register, receive the job,
//!   execute whatever well-formed tasks arrive with the engine's
//!   task-level entry points (block MPCs over
//!   [`dstress_net::SocketTransport`] when the job says so).  The
//!   traffic it measures travels back inside the outcomes.
//!
//! Determinism is the load-bearing property: tasks carry their own
//! derived seeds and outcomes are stitched back in task order, so the
//! loopback integration test can pin a master + 3 worker run's released
//! value bit-for-bit against [`dstress_core::engine::DStressRuntime::execute`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod master;
pub mod proto;
pub mod worker;

pub use master::{run_master, MasterConfig, MasterReport, RemoteExecutor};
pub use proto::{DeployMsg, JobSpec, PROTOCOL_VERSION};
pub use worker::run_worker;
