//! Minimal HTTP/1.1 introspection endpoint over a [`SolverService`].
//!
//! Built on `std::net::TcpListener` only — no async runtime, no HTTP
//! framework — because the endpoint serves four small read-only routes to
//! an operator or a scraper, not production traffic:
//!
//! | route                      | payload                                                    |
//! |----------------------------|------------------------------------------------------------|
//! | `/healthz`                 | `ok` (text/plain) — liveness                               |
//! | `/version`                 | JSON build identity (crate version, git describe, exec, SIMD) |
//! | `/metrics`                 | Prometheus text exposition of the service registry         |
//! | `/jobs`                    | JSON: metrics snapshot + recently completed jobs           |
//! | `/profile`                 | JSON wall-clock kernel profile + cost-model fidelity report |
//! | `/debug/flight`            | JSON index of retained flight traces                       |
//! | `/debug/flight/<trace_id>` | One retained trace; `?format=chrome` / `?format=folded` re-use the exporters |
//!
//! `/profile` reads the process-wide `amgt_exec::prof` collector, so it
//! reflects every solve in the process (profiling must be enabled with
//! [`amgt_exec::prof::enable`] for it to carry samples). `/debug/flight`
//! serves what the tail sampler retained: bad-verdict jobs are always
//! there; healthy ones only when sampled or unusually slow.
//!
//! One acceptor thread handles connections sequentially; each request is
//! parsed with a read deadline so a stalled client cannot wedge the
//! acceptor forever. [`IntrospectionServer::stop`] flips a flag and pokes
//! the listener with a loopback connection to unblock `accept`.

use crate::service::SolverService;
use amgt_trace::{chrome_trace, folded_stacks, FidelityReport, TraceId};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long a single request may take to arrive before the connection is
/// dropped (protects the single-threaded acceptor).
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on request-head bytes we are willing to buffer.
const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Handle to a running introspection endpoint. Dropping it stops the
/// server (join happens in [`IntrospectionServer::stop`] or `Drop`).
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// introspection routes for `service` until [`stop`](Self::stop).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<SolverService>,
    ) -> std::io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let acceptor = thread::spawn(move || {
            amgt_trace::log::info(
                "amgt::server::http",
                "introspection endpoint listening",
                &[("addr", local.to_string())],
            );
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => handle_connection(stream, &service),
                    Err(e) => {
                        amgt_trace::log::warn(
                            "amgt::server::http",
                            "accept failed",
                            &[("error", e.to_string())],
                        );
                    }
                }
            }
        });
        Ok(IntrospectionServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (port is concrete even when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of the endpoint, e.g. `http://127.0.0.1:43817`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop accepting connections and join the acceptor thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Poke the blocking accept so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// JSON body of `/profile`.
#[derive(Serialize)]
struct ProfileBody {
    /// Whether the wall-clock collector is currently enabled.
    enabled: bool,
    /// Total measured kernel invocations in the profile.
    samples: u64,
    /// Total measured kernel wall time, nanoseconds.
    total_ns: u64,
}

fn handle_connection(mut stream: TcpStream, service: &SolverService) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Some((method, path)) = read_request_head(&mut stream) else {
        return;
    };
    let response = if method != "GET" {
        Response::text(405, "method not allowed\n")
    } else {
        route(&path, service)
    };
    let _ = response.write_to(&mut stream);
}

fn route(path: &str, service: &SolverService) -> Response {
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/healthz" => Response::text(200, "ok\n"),
        "/version" => Response {
            status: 200,
            content_type: "application/json",
            body: version_body(service),
        },
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: service.metrics_prometheus(),
        },
        "/jobs" => Response {
            status: 200,
            content_type: "application/json",
            body: jobs_body(service),
        },
        "/profile" => Response {
            status: 200,
            content_type: "application/json",
            body: profile_body(),
        },
        "/debug/flight" => Response {
            status: 200,
            content_type: "application/json",
            body: format!(
                "{{\"retained\":{}}}",
                Serialize::to_json(&service.flight_summaries())
            ),
        },
        _ => match path.strip_prefix("/debug/flight/") {
            Some(rest) => flight_trace_response(service, rest, query),
            None => Response::text(
                404,
                "not found; try /healthz /version /metrics /jobs /profile /debug/flight\n",
            ),
        },
    }
}

/// JSON body of `/version`.
#[derive(Serialize)]
struct VersionBody {
    /// Crate version (workspace-wide).
    version: String,
    /// `git describe --always --dirty --tags` at build time.
    git: String,
    /// Service-wide execution-backend override, or "per-request" when each
    /// request's config decides.
    exec: String,
    /// SIMD level the native backend detected on this host.
    simd: String,
}

fn version_body(service: &SolverService) -> String {
    let exec = service
        .config()
        .exec
        .map_or("per-request".to_string(), |e| e.label().to_string());
    Serialize::to_json(&VersionBody {
        version: env!("CARGO_PKG_VERSION").to_string(),
        git: env!("AMGT_GIT_DESCRIBE").to_string(),
        exec,
        simd: amgt_exec::simd_level().label().to_string(),
    })
}

/// JSON body of `/jobs`: the metrics snapshot plus the ring of recently
/// completed jobs (verdict, latency, trace id, retention).
fn jobs_body(service: &SolverService) -> String {
    format!(
        "{{\"metrics\":{},\"recent\":{}}}",
        Serialize::to_json(&service.metrics()),
        Serialize::to_json(&service.recent_jobs())
    )
}

/// One retained flight trace, addressed by hex trace id. `?format=chrome`
/// and `?format=folded` run the exporters over the trace's recording.
fn flight_trace_response(service: &SolverService, id_hex: &str, query: &str) -> Response {
    let Some(id) = TraceId::parse_hex(id_hex) else {
        return Response::text(404, "malformed trace id (want 16 hex digits)\n");
    };
    let Some(trace) = service.flight_trace(id) else {
        return Response::text(404, "no retained flight trace with that id\n");
    };
    let format = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("format="))
        .unwrap_or("json");
    match format {
        "json" => Response {
            status: 200,
            content_type: "application/json",
            body: trace.to_json(),
        },
        "chrome" => Response {
            status: 200,
            content_type: "application/json",
            body: chrome_trace(&trace.recording),
        },
        "folded" => Response {
            status: 200,
            content_type: "text/plain",
            body: folded_stacks(&trace.recording),
        },
        other => Response::text(
            400,
            &format!("unknown format {other:?}; want json, chrome or folded\n"),
        ),
    }
}

/// Assemble the `/profile` payload from the process-wide collector: a
/// summary header, the per-class wall profile, and the fidelity audit.
fn profile_body() -> String {
    let profile = amgt_exec::prof::snapshot();
    let fidelity = FidelityReport::from_profile(&profile, FidelityReport::DEFAULT_FLAG_THRESHOLD);
    let head = ProfileBody {
        enabled: amgt_exec::prof::is_enabled(),
        samples: profile.total_count(),
        total_ns: profile.total_ns(),
    };
    format!(
        "{{\"summary\":{},\"profile\":{},\"fidelity\":{}}}",
        Serialize::to_json(&head),
        profile.to_json(),
        fidelity.to_json()
    )
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.to_string(),
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Error",
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Read the request head (through the blank line) and return
/// `(method, path)`. `None` on malformed, oversized or timed-out input.
fn read_request_head(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_head_parses_method_and_path() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /metrics?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n")
                .unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let (method, path) = read_request_head(&mut stream).unwrap();
        assert_eq!(method, "GET");
        assert_eq!(path, "/metrics?x=1");
        client.join().unwrap();
    }

    #[test]
    fn profile_body_is_json_with_summary() {
        let body = profile_body();
        assert!(body.starts_with("{\"summary\":{"), "{body}");
        assert!(body.contains("\"fidelity\":{"), "{body}");
        assert!(body.contains("\"profile\":{"), "{body}");
    }
}
