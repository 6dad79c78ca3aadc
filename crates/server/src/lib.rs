//! # voxolap-server
//!
//! The server-side component of a web interface for voice-based OLAP —
//! the substrate behind the paper's exploratory user study (§B.2: a JEE
//! server on Heroku whose JavaScript client sent asynchronous requests;
//! "users can switch freely between the two compared vocalization methods
//! for each single query").
//!
//! A deliberately dependency-free HTTP/1.1 implementation over
//! `std::net::TcpListener` — a bounded worker pool with socket timeouts,
//! panic isolation, graceful shutdown, and per-request counters (see
//! [`http`] and DESIGN.md §10) — with a small JSON API:
//!
//! | Method & path | Body | Response |
//! |---|---|---|
//! | `GET /health` | — | `{"status":"ok"}` |
//! | `GET /stats` | — | dataset statistics |
//! | `POST /ask` | `{"question": "...", "approach": "holistic"?}` | spoken answer + planner stats |
//! | `POST /query/stream` | `{"question": "...", "approach": ...?}` | chunked NDJSON sentence stream (see DESIGN.md §11) |
//! | `POST /session/<id>/input` | `{"text": "...", "approach": ...?}` | per-session keyword command → spoken answer |
//! | `GET /session/<id>/attach` | — | `101` upgrade to a long-lived NDJSON session (see DESIGN.md §15) |
//!
//! Sessions accumulate drill-down state per id, exactly like the paper's
//! per-worker sessions; the `approach` field switches vocalization method
//! per request, enabling the Table 8 comparison workflow.

pub mod api;
pub mod http;
pub mod reactor;

pub use api::{percentile, AppState, SessionEntry, SessionStore};
pub use http::{
    serve, serve_with, BodyWriter, HttpMetrics, HttpMetricsSnapshot, Request, Response,
    ServerConfig, ServerHandle, SessionSink, SessionUpgrade, SessionVerdict, StreamBody,
};
pub use reactor::{install_shutdown_signals, raise_nofile_limit};
