//! Workload generation reproducing the paper's evaluation datasets.
//!
//! The paper evaluates on a snapshot of a real SAP customer's business
//! warehouse: 30 large columns of 10.9 million values each, of which two
//! extremes are reported (§6.2/§6.3):
//!
//! * **C1** — 6.96 million unique values, strings of 12 characters;
//! * **C2** — 13,361 unique values, strings of 10 characters.
//!
//! That snapshot is proprietary, so this crate builds *synthetic twins*
//! that reproduce the published statistics — row count, unique count,
//! string length, and a skewed (Zipf-like) occurrence distribution typical
//! of warehouse columns — plus the paper's evaluation machinery:
//!
//! * [`spec::ColumnSpec`] describing a column population;
//! * [`generate`] drawing a full or scaled sample ("we sample datasets from
//!   1 to 10 million records using the distribution and values of the
//!   original columns");
//! * [`queries::RangeQueryGen`] drawing the paper's random range queries of
//!   a given *range size* `RS` over `sorted(un(C))`.
//!
//! The dynamic-data extension adds [`schedule`]: interleaved
//! insert/delete/read/aggregate/compact schedules for the differential and
//! concurrency test harnesses (DESIGN.md §9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queries;
pub mod schedule;
pub mod spec;
pub mod zipf;

pub use queries::RangeQueryGen;
pub use schedule::{HotShardSpec, Op, ScheduleGen, ScheduleSpec, KINDS};
pub use spec::{generate, ColumnSpec, JoinQueryGen, JoinQueryShape};
