//! Typed paths for the IOrchestra keys in the system store.
//!
//! The prototype's XenStore layout (paper Fig. 3): each domain owns
//! `/local/domain/<id>/virt-dev/…` where the collaborative state lives.

use std::rc::Rc;

use iorch_hypervisor::{DomainId, StorePath, XenStore};

/// `has_dirty_pages` — set by the guest when `bdi_writeback.nr > 0`
/// (Algorithm 1).
pub fn has_dirty_pages(dom: DomainId) -> String {
    format!("{}/virt-dev/has_dirty_pages", XenStore::domain_path(dom))
}

/// `nr` — the guest's dirty-page count, published so the management module
/// can pick `argmax_i nr_i`.
pub fn nr_dirty(dom: DomainId) -> String {
    format!("{}/virt-dev/nr", XenStore::domain_path(dom))
}

/// `flush_now` — written by the management module to trigger a remote
/// `sync()` in the guest (Algorithm 1).
pub fn flush_now(dom: DomainId) -> String {
    format!("{}/virt-dev/flush_now", XenStore::domain_path(dom))
}

/// `congested` — set when the guest wants to enable congestion avoidance
/// on its virtual device (Algorithm 2).
pub fn congested(dom: DomainId) -> String {
    format!("{}/virt-dev/congested", XenStore::domain_path(dom))
}

/// `release_request` — written by the management module when the host
/// device is *not* actually congested (Algorithm 2).
pub fn release_request(dom: DomainId) -> String {
    format!("{}/virt-dev/release_request", XenStore::domain_path(dom))
}

/// Per-socket I/O weight published by the management module (§3.3).
pub fn socket_weight(dom: DomainId, socket: usize) -> String {
    format!("{}/virt-dev/weight/{}", XenStore::domain_path(dom), socket)
}

/// Root of the management module's published per-domain health counters
/// (dom0-owned, world-readable).
pub const HEALTH_ROOT: &str = "/iorchestra/health";

/// `/iorchestra/health/<id>` — root of one domain's health counters.
pub fn health_base(dom: DomainId) -> String {
    format!("{}/{}", HEALTH_ROOT, dom.0)
}

/// `…/flush_timeouts` — `flush_now` commands that timed out unacked.
pub fn health_flush_timeouts(dom: DomainId) -> String {
    format!("{}/flush_timeouts", health_base(dom))
}

/// `…/quarantined` — `"1"` while the domain is quarantined (anomalous or
/// persistently unresponsive), `"0"` otherwise.
pub fn health_quarantined(dom: DomainId) -> String {
    format!("{}/quarantined", health_base(dom))
}

/// `…/store_denied` — denied store operations attributed to the domain.
pub fn health_store_denied(dom: DomainId) -> String {
    format!("{}/store_denied", health_base(dom))
}

/// `/iorchestra/control/<id>/clear` — operator command channel: dom0
/// writes `"1"` to clear a domain's quarantine and restore collaboration.
/// Lives outside `/local` so a guest cannot write it itself.
pub fn clear_quarantine(dom: DomainId) -> String {
    format!("/iorchestra/control/{}/clear", dom.0)
}

/// Root of the operator command subtree (the management module watches
/// this prefix).
pub const CONTROL_ROOT: &str = "/iorchestra/control";

/// Root of the management module's persisted decision state. The store is
/// the plane's source of truth across a dom0 crash: everything under here
/// is rebuilt into plane memory by the recovery scan. No watch covers this
/// prefix, so persisting state generates no XenBus traffic.
pub const STATE_ROOT: &str = "/iorchestra/state";

/// `/iorchestra/state/epoch` — the plane's monotonic command generation.
/// Every `flush_now`/`release_request` command carries an epoch; a
/// restarted plane resumes at `persisted + 1` so guests can discard
/// anything stamped by a dead incarnation (or duplicated on the bus).
pub const STATE_EPOCH: &str = "/iorchestra/state/epoch";

/// Roots of the management module's per-domain subtrees (`<root>/<id>`):
/// persisted state, health counters and operator commands. Destroying a
/// domain removes its subtree under each.
pub const DOMAIN_ROOTS: [&str; 3] = [STATE_ROOT, HEALTH_ROOT, CONTROL_ROOT];

/// `/iorchestra/state/<id>` — root of one domain's persisted plane state.
pub fn state_base(dom: DomainId) -> String {
    format!("{}/{}", STATE_ROOT, dom.0)
}

/// `…/quarantined` — `"1"` while the domain is quarantined. Restored on
/// recovery so a crash cannot un-quarantine an anomalous guest.
pub fn state_quarantined(dom: DomainId) -> String {
    format!("{}/quarantined", state_base(dom))
}

/// `…/flush_epoch` — epoch of the in-flight `flush_now` command, `"0"`
/// when none is outstanding.
pub fn state_flush_epoch(dom: DomainId) -> String {
    format!("{}/flush_epoch", state_base(dom))
}

/// `…/flush_deadline` — ack deadline (raw nanoseconds) of the in-flight
/// `flush_now` command; meaningful only while `flush_epoch` is non-zero.
pub fn state_flush_deadline(dom: DomainId) -> String {
    format!("{}/flush_deadline", state_base(dom))
}

/// `…/fail_streak` — consecutive unacked flushes (quarantine input).
pub fn state_fail_streak(dom: DomainId) -> String {
    format!("{}/fail_streak", state_base(dom))
}

/// `…/timeouts` — cumulative flush timeouts (health counter input).
pub fn state_timeouts(dom: DomainId) -> String {
    format!("{}/timeouts", state_base(dom))
}

/// Extract the domain id from an operator command path
/// `/iorchestra/control/<id>/…`.
pub fn control_dom_of_path(path: &str) -> Option<DomainId> {
    let rest = path.strip_prefix("/iorchestra/control/")?;
    let id_str = rest.split('/').next()?;
    id_str.parse().ok().map(DomainId)
}

/// Extract the domain id from a store path under `/local/domain/<id>/…`.
pub fn domain_of_path(path: &str) -> Option<DomainId> {
    let rest = path.strip_prefix("/local/domain/")?;
    let id_str = rest.split('/').next()?;
    id_str.parse().ok().map(DomainId)
}

/// Does the path name this key (final segment match)?
pub fn is_key(path: &str, key: &str) -> bool {
    path.rsplit('/').next() == Some(key)
}

/// Pre-parsed store paths for one domain's `virt-dev` subtree.
///
/// The per-tick policy loops (Algorithms 1–3) touch these keys for every
/// domain on every 100 ms tick; building them with `format!` each time put
/// a handful of heap allocations on the hot path per domain per tick.
/// A `DomainKeys` is built once when the domain attaches to the control
/// plane; after that every store operation clones an interned
/// [`StorePath`] (a reference-count bump) and watch events fired from
/// these writes share the same allocation.
#[derive(Clone, Debug)]
pub struct DomainKeys {
    /// The domain these keys belong to.
    pub dom: DomainId,
    /// `/local/domain/<id>` — the domain's subtree root.
    pub base: StorePath,
    /// `…/virt-dev` — where the collaborative state lives (watch target).
    pub virt_dev: StorePath,
    /// `…/virt-dev/has_dirty_pages` (Algorithm 1).
    pub has_dirty_pages: StorePath,
    /// `…/virt-dev/nr` (Algorithm 1's argmax input).
    pub nr_dirty: StorePath,
    /// `…/virt-dev/flush_now` (Algorithm 1 trigger).
    pub flush_now: StorePath,
    /// `…/virt-dev/congested` (Algorithm 2).
    pub congested: StorePath,
    /// `…/virt-dev/release_request` (Algorithm 2).
    pub release_request: StorePath,
    /// `/iorchestra/health/<id>/flush_timeouts` (robustness counters).
    pub health_flush_timeouts: StorePath,
    /// `/iorchestra/health/<id>/quarantined`.
    pub health_quarantined: StorePath,
    /// `/iorchestra/health/<id>/store_denied`.
    pub health_store_denied: StorePath,
    /// `/iorchestra/state/<id>/quarantined` (crash-persisted).
    pub state_quarantined: StorePath,
    /// `/iorchestra/state/<id>/flush_epoch` (crash-persisted).
    pub state_flush_epoch: StorePath,
    /// `/iorchestra/state/<id>/flush_deadline` (crash-persisted).
    pub state_flush_deadline: StorePath,
    /// `/iorchestra/state/<id>/fail_streak` (crash-persisted).
    pub state_fail_streak: StorePath,
    /// `/iorchestra/state/<id>/timeouts` (crash-persisted).
    pub state_timeouts: StorePath,
    /// `…/virt-dev/weight/<socket>`, grown on demand (§3.3).
    socket_weights: Vec<StorePath>,
}

impl DomainKeys {
    /// Build the key set for a domain (the only place these paths are
    /// formatted).
    pub fn new(dom: DomainId) -> Self {
        let parse = |s: String| StorePath::parse(&s).expect("domain key paths are well-formed");
        DomainKeys {
            dom,
            base: parse(XenStore::domain_path(dom)),
            virt_dev: parse(format!("{}/virt-dev", XenStore::domain_path(dom))),
            has_dirty_pages: parse(has_dirty_pages(dom)),
            nr_dirty: parse(nr_dirty(dom)),
            flush_now: parse(flush_now(dom)),
            congested: parse(congested(dom)),
            release_request: parse(release_request(dom)),
            health_flush_timeouts: parse(health_flush_timeouts(dom)),
            health_quarantined: parse(health_quarantined(dom)),
            health_store_denied: parse(health_store_denied(dom)),
            state_quarantined: parse(state_quarantined(dom)),
            state_flush_epoch: parse(state_flush_epoch(dom)),
            state_flush_deadline: parse(state_flush_deadline(dom)),
            state_fail_streak: parse(state_fail_streak(dom)),
            state_timeouts: parse(state_timeouts(dom)),
            socket_weights: Vec::new(),
        }
    }

    /// `…/virt-dev/weight/<socket>`, interned on first use per socket.
    pub fn socket_weight(&mut self, socket: usize) -> &StorePath {
        while self.socket_weights.len() <= socket {
            let sk = self.socket_weights.len();
            let path = socket_weight(self.dom, sk);
            self.socket_weights
                .push(StorePath::parse(&path).expect("weight paths are well-formed"));
        }
        &self.socket_weights[socket]
    }
}

/// Cached store-value encodings for the hot flag and counter writes.
///
/// The store holds values as `Rc<str>`; encoding `"0"`, `"1"` and small
/// counters through this module means the per-tick republishes pass a
/// shared allocation straight through to the tree and every watch event.
/// The table is thread-local because the store's `Rc<str>` values are
/// single-threaded by design — the whole simulation is.
pub mod val {
    use super::Rc;

    const SMALL: u64 = 256;

    thread_local! {
        static TABLE: Vec<Rc<str>> = (0..SMALL)
            .map(|n| Rc::from(n.to_string().as_str()))
            .collect();
    }

    /// `"0"` — the dominant flag value.
    pub fn zero() -> Rc<str> {
        uint(0)
    }

    /// `"1"` — the other flag value.
    pub fn one() -> Rc<str> {
        uint(1)
    }

    /// A boolean flag as `"1"`/`"0"`.
    pub fn flag(v: bool) -> Rc<str> {
        uint(v as u64)
    }

    /// Decimal encoding of an unsigned counter; values below 256 come from
    /// a shared table, larger ones allocate.
    pub fn uint(n: u64) -> Rc<str> {
        match TABLE.with(|t| t.get(n as usize).map(Rc::clone)) {
            Some(v) => v,
            None => Rc::from(n.to_string().as_str()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_domain_scoped() {
        let d = DomainId(7);
        assert_eq!(
            has_dirty_pages(d),
            "/local/domain/7/virt-dev/has_dirty_pages"
        );
        assert_eq!(flush_now(d), "/local/domain/7/virt-dev/flush_now");
        assert_eq!(socket_weight(d, 1), "/local/domain/7/virt-dev/weight/1");
    }

    #[test]
    fn domain_extraction() {
        assert_eq!(
            domain_of_path("/local/domain/12/virt-dev/flush_now"),
            Some(DomainId(12))
        );
        assert_eq!(domain_of_path("/local/domain/12"), Some(DomainId(12)));
        assert_eq!(domain_of_path("/other/12"), None);
        assert_eq!(domain_of_path("/local/domain/xyz/a"), None);
    }

    #[test]
    fn health_and_control_paths() {
        let d = DomainId(9);
        assert_eq!(
            health_flush_timeouts(d),
            "/iorchestra/health/9/flush_timeouts"
        );
        assert_eq!(health_quarantined(d), "/iorchestra/health/9/quarantined");
        assert_eq!(health_store_denied(d), "/iorchestra/health/9/store_denied");
        assert_eq!(clear_quarantine(d), "/iorchestra/control/9/clear");
        assert_eq!(
            control_dom_of_path("/iorchestra/control/9/clear"),
            Some(DomainId(9))
        );
        assert_eq!(control_dom_of_path("/local/domain/9/virt-dev/nr"), None);
        let k = DomainKeys::new(d);
        assert_eq!(k.health_flush_timeouts.as_str(), health_flush_timeouts(d));
        assert_eq!(k.health_quarantined.as_str(), health_quarantined(d));
        assert_eq!(k.health_store_denied.as_str(), health_store_denied(d));
    }

    #[test]
    fn state_paths() {
        let d = DomainId(5);
        assert_eq!(STATE_EPOCH, "/iorchestra/state/epoch");
        assert_eq!(state_base(d), "/iorchestra/state/5");
        assert_eq!(state_quarantined(d), "/iorchestra/state/5/quarantined");
        assert_eq!(state_flush_epoch(d), "/iorchestra/state/5/flush_epoch");
        assert_eq!(
            state_flush_deadline(d),
            "/iorchestra/state/5/flush_deadline"
        );
        assert_eq!(state_fail_streak(d), "/iorchestra/state/5/fail_streak");
        assert_eq!(state_timeouts(d), "/iorchestra/state/5/timeouts");
        // The state subtree is not an operator-command path.
        assert_eq!(control_dom_of_path(&state_quarantined(d)), None);
        let k = DomainKeys::new(d);
        assert_eq!(k.state_quarantined.as_str(), state_quarantined(d));
        assert_eq!(k.state_flush_epoch.as_str(), state_flush_epoch(d));
        assert_eq!(k.state_flush_deadline.as_str(), state_flush_deadline(d));
        assert_eq!(k.state_fail_streak.as_str(), state_fail_streak(d));
        assert_eq!(k.state_timeouts.as_str(), state_timeouts(d));
    }

    #[test]
    fn key_matching() {
        assert!(is_key("/local/domain/1/virt-dev/flush_now", "flush_now"));
        assert!(!is_key("/local/domain/1/virt-dev/flush_now", "congested"));
    }

    #[test]
    fn domain_keys_match_formatted_paths() {
        let d = DomainId(42);
        let mut k = DomainKeys::new(d);
        assert_eq!(k.base.as_str(), "/local/domain/42");
        assert_eq!(k.virt_dev.as_str(), "/local/domain/42/virt-dev");
        assert_eq!(k.has_dirty_pages.as_str(), has_dirty_pages(d));
        assert_eq!(k.nr_dirty.as_str(), nr_dirty(d));
        assert_eq!(k.flush_now.as_str(), flush_now(d));
        assert_eq!(k.congested.as_str(), congested(d));
        assert_eq!(k.release_request.as_str(), release_request(d));
        // Sockets can be requested out of order; the vec backfills.
        assert_eq!(k.socket_weight(1).as_str(), socket_weight(d, 1));
        assert_eq!(k.socket_weight(0).as_str(), socket_weight(d, 0));
    }

    #[test]
    fn cached_values_encode_decimal() {
        assert_eq!(&*val::zero(), "0");
        assert_eq!(&*val::one(), "1");
        assert_eq!(&*val::flag(true), "1");
        assert_eq!(&*val::flag(false), "0");
        assert_eq!(&*val::uint(255), "255");
        assert_eq!(&*val::uint(1_000_000), "1000000");
        // Small values share one allocation.
        assert!(std::rc::Rc::ptr_eq(&val::uint(7), &val::uint(7)));
    }
}
