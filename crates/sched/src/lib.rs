//! The EasyScale scheduler (paper §3.4) and the cluster simulation it is
//! evaluated in (§5.2–5.3).
//!
//! Architecture mirrors Figure 8:
//!
//! * [`companion`] — the per-job companion module: a database of scheduling
//!   plans and the Eq 1 analytical throughput model (`waste`, `f_overload`).
//! * [`health`] — the failure detector: heartbeat leases, straggler
//!   z-scores, and the Healthy → Suspect → Quarantined → Probation state
//!   machine whose transitions the AIMaster supervisor turns into
//!   evictions, checkpoint fallbacks, and probational readmissions.
//! * [`intra`] — the intra-job scheduler: picks the best EST-to-GPU mapping
//!   for the current allocation (Role 1), forms scale-out resource proposals
//!   (Role 2), and applies inter-job decisions (Role 3).
//! * [`inter`] — the inter-job (cluster) scheduler: greedy
//!   speedup-per-GPU proposal acceptance over the free-resource table.
//! * [`sim`] — a discrete-event cluster simulator running job traces under
//!   YARN-CS (FIFO gang scheduling), EasyScale-homo, or EasyScale-heter
//!   policies, producing the JCT/makespan/allocation-timeline numbers of
//!   Figs 14–15 and the co-location statistics of Fig 16.

#![deny(missing_docs)]

pub mod aimaster;
pub mod companion;
pub mod health;
pub mod inter;
pub mod intra;
pub mod sim;

pub use aimaster::{AiMaster, Supervisor, SupervisorAction};
pub use companion::{Companion, Plan};
pub use health::{HealthEvent, HealthPolicy, HealthState, HealthTracker, TransitionCause};
pub use inter::{Decision, InterJobScheduler};
pub use intra::{FreePool, IntraJobScheduler, ResourceProposal};
pub use sim::{ClusterSim, JobRecord, JobSpec, Policy, SimError, SimOutcome};
