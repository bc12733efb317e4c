//! Unified observability for the LWFS services.
//!
//! `lwfs-obs` is a dependency-free metrics and tracing layer shared by
//! every service in the workspace:
//!
//! - [`Counter`], [`Gauge`], and log-linear [`Histogram`] (p50/p95/p99/
//!   max with ≤ 12.5% relative bucket error), all lock-free;
//! - a [`Registry`] of named metrics following the `component.op.stat`
//!   convention;
//! - span-style op tracing ([`SpanLog`], [`OpTrace`]) keyed by the
//!   request id threaded through `lwfs_proto::Request`, decomposing an
//!   operation into its stages (queue-wait → authorize → pull →
//!   store-write → reply);
//! - [`Snapshot`] export as a fixed-width text table or JSON (what
//!   `lwfs-repro probe metrics --out` writes), every JSON artifact built
//!   and read back through the one [`json::Json`].
//!
//! Histograms observe dimensionless `u64`s, so they work equally over
//! wall-clock nanoseconds (`record_duration`) and simulated-time
//! nanoseconds (`record` with a `SimDuration`'s nanosecond count).

#![forbid(unsafe_code)]

pub mod critpath;
mod event;
pub mod export;
pub mod json;
mod metrics;
mod registry;
mod span;
mod trace;
pub mod window;

pub use critpath::{attribute, attribute_with_claims, Attribution, BlameStage, TailReport};
pub use event::{Event, EventLog};
pub use export::{metric_key, prometheus_escape_label, MetricKey};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{ObsConfig, OpTrace, Registry, Snapshot};
pub use span::{intern, SpanLog, SpanRecord, TOTAL_STAGE};
pub use trace::{parse_chrome_spans, FlightRecorder, PinnedTrace, Trace, TraceCollector};
pub use window::{HistogramInterval, MetricFrame, WindowDelta, WindowTracker};
