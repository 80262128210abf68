//! The simulated network: a host → server registry with request dispatch,
//! redirect following, and traffic metrics.
//!
//! This is the stand-in for the live Internet the paper crawls. Servers are
//! trait objects so `webgen` can plug an entire synthetic web population in,
//! and tests can plug in single closures.

use crate::http::{Request, Response};
use crate::url::Url;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated origin server.
///
/// `handle` must be pure with respect to the request (any randomness must be
/// derived deterministically from request fields) so measurements are
/// reproducible; interior state for counters is fine.
pub trait Server: Send + Sync {
    /// Produce the response for `req`.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Server for F
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Counters the network keeps per run; cheap to read, updated atomically.
#[derive(Debug, Default)]
pub struct NetworkStats {
    /// Requests dispatched (including redirect hops).
    pub requests: AtomicU64,
    /// Requests that hit no registered host.
    pub unresolved: AtomicU64,
    /// Redirect hops followed.
    pub redirects: AtomicU64,
}

impl NetworkStats {
    /// Requests dispatched so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
    /// Unresolved-host count so far.
    pub fn unresolved(&self) -> u64 {
        self.unresolved.load(Ordering::Relaxed)
    }
    /// Redirect hops so far.
    pub fn redirects(&self) -> u64 {
        self.redirects.load(Ordering::Relaxed)
    }
}

/// Maximum redirect hops before giving up, mirroring browser limits.
pub const MAX_REDIRECTS: usize = 10;

/// Host → server registry.
///
/// Lookup resolves exact hosts first, then walks up parent domains so one
/// server can own a whole registrable domain including its subdomains
/// (`pt.climate-data.org` → server registered for `climate-data.org`).
#[derive(Clone, Default)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

#[derive(Default)]
struct NetworkInner {
    servers: Mutex<HashMap<String, Arc<dyn Server>>>,
    stats: NetworkStats,
}

impl Network {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `server` for `host` (and implicitly its subdomains, unless
    /// a more specific registration exists). Replaces a previous
    /// registration for the same host.
    pub fn register(&self, host: &str, server: Arc<dyn Server>) {
        self.inner
            .servers
            .lock()
            .insert(host.to_ascii_lowercase(), server);
    }

    /// Convenience: register a closure server.
    pub fn register_fn<F>(&self, host: &str, f: F)
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        self.register(host, Arc::new(f));
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.inner.servers.lock().len()
    }

    /// Is any server registered that would answer for `host`?
    pub fn resolves(&self, host: &str) -> bool {
        self.lookup(host).is_some()
    }

    fn lookup(&self, host: &str) -> Option<Arc<dyn Server>> {
        let servers = self.inner.servers.lock();
        let host = host.to_ascii_lowercase();
        // Exact, then parent domains.
        let mut candidate = host.as_str();
        loop {
            if let Some(s) = servers.get(candidate) {
                return Some(Arc::clone(s));
            }
            match candidate.find('.') {
                Some(i) => candidate = &candidate[i + 1..],
                None => return None,
            }
        }
    }

    /// Dispatch one request without following redirects.
    ///
    /// Unresolved hosts produce a 404-like failure response with status 0
    /// (connection error), which is how the crawler distinguishes "blocked
    /// or dead" from "served an error page".
    pub fn dispatch(&self, req: &Request) -> Response {
        self.inner.stats.requests.fetch_add(1, Ordering::Relaxed);
        match self.lookup(req.url.host()) {
            Some(server) => server.handle(req),
            None => {
                self.inner.stats.unresolved.fetch_add(1, Ordering::Relaxed);
                Response::connection_error()
            }
        }
    }

    /// Dispatch and follow up to [`MAX_REDIRECTS`] redirect hops. Returns
    /// the final response and the URL it came from.
    pub fn dispatch_following(&self, req: &Request) -> (Response, Url) {
        let mut current = req.clone();
        for _ in 0..MAX_REDIRECTS {
            let resp = self.dispatch(&current);
            if !resp.is_redirect() {
                return (resp, current.url);
            }
            self.inner.stats.redirects.fetch_add(1, Ordering::Relaxed);
            let loc = resp.location.as_deref().unwrap_or("/");
            match current.url.join(loc) {
                Ok(next) => current.url = next,
                Err(_) => return (resp, current.url),
            }
        }
        (Response::not_found(), current.url)
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }
}

/// Stable 64-bit FNV-1a hash of response content.
///
/// Used for store checksums, target-list fingerprints and lock-stripe
/// selection: equal bytes always hash equal, across runs and regions.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Region;

    fn req(url: &str) -> Request {
        Request::navigation(Url::parse(url).unwrap(), Region::Germany)
    }

    #[test]
    fn register_and_dispatch() {
        let net = Network::new();
        net.register_fn("site.de", |_| Response::html("<p>hi</p>"));
        let r = net.dispatch(&req("https://site.de/"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body_text(), "<p>hi</p>");
    }

    #[test]
    fn subdomain_falls_back_to_parent() {
        let net = Network::new();
        net.register_fn("climate-data.org", |r| {
            Response::html(format!("host={}", r.url.host()))
        });
        let r = net.dispatch(&req("https://pt.climate-data.org/x"));
        assert_eq!(r.body_text(), "host=pt.climate-data.org");
        // More specific registration wins.
        net.register_fn("pt.climate-data.org", |_| Response::html("specific"));
        let r = net.dispatch(&req("https://pt.climate-data.org/x"));
        assert_eq!(r.body_text(), "specific");
    }

    #[test]
    fn unresolved_host_status_zero() {
        let net = Network::new();
        let r = net.dispatch(&req("https://nothing.example/"));
        assert_eq!(r.status, 0);
        assert_eq!(net.stats().unresolved(), 1);
    }

    #[test]
    fn follows_redirects() {
        let net = Network::new();
        net.register_fn("a.de", |_| Response::redirect("https://b.de/land"));
        net.register_fn("b.de", |r| Response::html(format!("path={}", r.url.path())));
        let (resp, final_url) = net.dispatch_following(&req("https://a.de/"));
        assert_eq!(resp.body_text(), "path=/land");
        assert_eq!(final_url.to_string(), "https://b.de/land");
        assert_eq!(net.stats().redirects(), 1);
    }

    #[test]
    fn redirect_loop_bounded() {
        let net = Network::new();
        net.register_fn("loop.de", |_| Response::redirect("https://loop.de/again"));
        let (resp, _) = net.dispatch_following(&req("https://loop.de/"));
        assert_eq!(resp.status, 404);
        assert!(net.stats().requests() <= MAX_REDIRECTS as u64 + 1);
    }

    #[test]
    fn relative_redirect_resolved() {
        let net = Network::new();
        net.register_fn("rel.de", |r| {
            if r.url.path() == "/" {
                Response::redirect("/home")
            } else {
                Response::html("home")
            }
        });
        let (resp, final_url) = net.dispatch_following(&req("https://rel.de/"));
        assert_eq!(resp.body_text(), "home");
        assert_eq!(final_url.path(), "/home");
    }

    #[test]
    fn clones_share_servers_and_stats() {
        // The crawl scheduler hands one Network to many workers; a clone
        // must be a handle onto the same registry and counters, not a copy.
        let net = Network::new();
        let clone = net.clone();
        net.register_fn("shared.de", |_| Response::html("ok"));
        assert!(clone.resolves("shared.de"));
        clone.dispatch(&req("https://shared.de/"));
        assert_eq!(net.stats().requests(), 1);
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"<html>"), content_hash(b"<html>"));
        assert_ne!(content_hash(b"<html>"), content_hash(b"<htmk>"));
    }
}
