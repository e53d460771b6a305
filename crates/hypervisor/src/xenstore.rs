//! The shared system store — a XenStore work-alike.
//!
//! IOrchestra's information-exchange backbone (paper §3, §4): a
//! hierarchical key-value store maintained by the hypervisor where
//! "each guest domain stores their configuration data…, all VMs have
//! access to the store, but not all data fields. For security and privacy,
//! each VM can only access its own data… Only the hypervisor has the
//! access to the data of all VMs."
//!
//! Watches implement the publish–subscribe pattern of Fig. 3: a write to a
//! watched subtree queues a [`WatchEvent`] for the watch's owner; the
//! machine delivers those events over the (modelled) XenBus channel with a
//! small latency.
//!
//! # Hot path
//!
//! The store sits on the path of every Algorithm 1–3 decision, so every
//! per-operation allocation the seed implementation made has been removed:
//!
//! * Paths are walked with an iterator — no per-op `Vec<&str>`.
//! * [`StorePath`] interns a validated path as an `Rc<str>`; policy code
//!   parses its keys once per domain and clones them for free.
//! * Values live as `Rc<str>`; watch-event payloads share them instead of
//!   cloning a `String` per subscriber, and [`XenStore::read_ref`] borrows
//!   straight out of the tree.
//! * Watches are indexed by their full prefix. A write enumerates the
//!   ancestor prefixes of its path (cost: path depth), so non-matching
//!   watches cost nothing — the seed scanned every watch on every write.
//! * [`XenStore::write_if_changed`] suppresses no-op republishes entirely.
//! * Transactions validate permissions by walking the live tree; the seed
//!   cloned the whole store per commit.
//!
//! The seed implementation is preserved verbatim in
//! [`crate::xenstore_legacy`] as a differential-test oracle and benchmark
//! baseline.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use iorch_simcore::trace::TraceEventKind;
use iorch_simcore::{trace_event, SimTime};

use crate::domain::DomainId;

/// Hypervisor / control domain: full access to every path.
pub const DOM0: DomainId = DomainId(0);

/// Errors from store operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// Path does not exist.
    NotFound,
    /// Caller lacks permission.
    PermissionDenied,
    /// Malformed path (empty segment, no leading `/`).
    BadPath,
    /// Unknown transaction id.
    BadTransaction,
    /// A per-domain resource quota was exceeded (see [`StoreQuota`]).
    QuotaExceeded,
}

/// Per-domain resource limits, mirroring real XenStore's defenses against
/// a misbehaving guest (`quota-max-entries`, `quota-max-size`, and the
/// xenstored write-rate throttle). Enforced only for non-dom0 callers, and
/// only on stores where [`XenStore::set_quota`] was called — a bare
/// [`XenStore::new`] store is quota-free, which keeps the differential
/// oracle and the hot-path benches (both clock-less) byte-identical.
///
/// A limit of `0` means "unlimited" for that dimension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreQuota {
    /// Maximum number of store nodes a domain may own at once.
    pub max_owned_nodes: u64,
    /// Maximum length in bytes of a single written value.
    pub max_value_bytes: usize,
    /// Sustained write rate (token-bucket refill), writes per second.
    pub write_rate_per_sec: u64,
    /// Token-bucket capacity: writes that may land back-to-back.
    pub write_burst: u64,
}

impl StoreQuota {
    /// Defaults generous enough that a well-behaved guest (dirty-page
    /// publications, congestion handshakes, command acks) never trips
    /// them, while a `StoreHammer` at thousands of writes per second is
    /// throttled within one burst.
    pub fn generous() -> Self {
        StoreQuota {
            max_owned_nodes: 64,
            max_value_bytes: 256,
            write_rate_per_sec: 500,
            write_burst: 100,
        }
    }
}

/// One token = `TOKEN` nano-tokens, so refill math stays in integers.
const TOKEN: u64 = 1_000_000_000;

/// Per-domain token-bucket state for the write-rate quota.
#[derive(Clone, Copy, Debug)]
struct TokenBucket {
    /// Available nano-tokens (1 write costs [`TOKEN`]).
    nanos: u64,
    /// Last refill timestamp.
    last: SimTime,
}

/// Per-node permissions (simplified Xen model: an owner domain plus
/// world-readable / world-writable bits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Perms {
    /// Domain with read/write rights.
    pub owner: DomainId,
    /// Whether other domains may read.
    pub others_read: bool,
    /// Whether other domains may write.
    pub others_write: bool,
}

impl Perms {
    /// Owned by a domain, private to it (and dom0).
    pub fn private_to(owner: DomainId) -> Self {
        Perms {
            owner,
            others_read: false,
            others_write: false,
        }
    }

    /// Whether `caller` may read a node with these permissions.
    pub fn can_read(&self, caller: DomainId) -> bool {
        caller == DOM0 || caller == self.owner || self.others_read
    }

    /// Whether `caller` may write a node with these permissions.
    pub fn can_write(&self, caller: DomainId) -> bool {
        caller == DOM0 || caller == self.owner || self.others_write
    }
}

// --------------------------------------------------------------------
// Paths
// --------------------------------------------------------------------

fn validate_path(path: &str) -> Result<(), StoreError> {
    if !path.starts_with('/') {
        return Err(StoreError::BadPath);
    }
    if path == "/" {
        return Ok(());
    }
    // No empty segment: no "//" anywhere and no trailing '/'.
    let bytes = path.as_bytes();
    if bytes[bytes.len() - 1] == b'/' {
        return Err(StoreError::BadPath);
    }
    if bytes.windows(2).any(|w| w == b"//") {
        return Err(StoreError::BadPath);
    }
    Ok(())
}

/// Iterate the segments of an already-validated absolute path.
/// `"/"` yields nothing.
fn path_segments(path: &str) -> std::str::Split<'_, char> {
    // `""` has a single empty segment under split; normalise so the root
    // path iterates zero segments. `"/".split('/')` on the trimmed empty
    // string still yields one "", so handle via the trimmed slice below.
    let trimmed = if path == "/" { "" } else { &path[1..] };
    let mut it = trimmed.split('/');
    if trimmed.is_empty() {
        // Consume the single empty item so the iterator is empty.
        it.next();
    }
    it
}

/// A pre-validated, interned store path.
///
/// Parsing checks the same rules as the string entry points (leading `/`,
/// no empty segments); after that, passing a `StorePath` to the store is
/// allocation-free, and the path inside any resulting [`WatchEvent`] is a
/// reference-counted clone of this one. Policy code should build its keys
/// once per domain (see `iorchestra::keys::DomainKeys`) and reuse them
/// every tick.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StorePath {
    full: Rc<str>,
}

impl StorePath {
    /// Parse and intern a path.
    pub fn parse(path: &str) -> Result<Self, StoreError> {
        validate_path(path)?;
        Ok(StorePath {
            full: Rc::from(path),
        })
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.full
    }

    /// A shared copy of the underlying string (refcount bump, no copy).
    pub fn shared(&self) -> Rc<str> {
        Rc::clone(&self.full)
    }

    /// Iterate the path's segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        path_segments(&self.full)
    }
}

impl Deref for StorePath {
    type Target = str;
    fn deref(&self) -> &str {
        &self.full
    }
}

impl AsRef<str> for StorePath {
    fn as_ref(&self) -> &str {
        &self.full
    }
}

impl fmt::Display for StorePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.full)
    }
}

impl fmt::Debug for StorePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StorePath({})", &*self.full)
    }
}

/// Anything the store accepts as a path argument.
///
/// Strings are validated and walked in place; a [`StorePath`] additionally
/// hands the store a shareable `Rc<str>` so firing a watch never copies
/// the path.
pub trait AsStorePath {
    /// The path as a string slice.
    fn path_str(&self) -> &str;
    /// A pre-interned shared copy, if one exists. `None` means the store
    /// allocates one lazily — and only if a watch actually fires.
    fn to_shared(&self) -> Option<Rc<str>> {
        None
    }
}

impl AsStorePath for &str {
    fn path_str(&self) -> &str {
        self
    }
}

impl AsStorePath for String {
    fn path_str(&self) -> &str {
        self
    }
}

impl AsStorePath for &String {
    fn path_str(&self) -> &str {
        self
    }
}

impl AsStorePath for StorePath {
    fn path_str(&self) -> &str {
        &self.full
    }
    fn to_shared(&self) -> Option<Rc<str>> {
        Some(self.shared())
    }
}

impl AsStorePath for &StorePath {
    fn path_str(&self) -> &str {
        &self.full
    }
    fn to_shared(&self) -> Option<Rc<str>> {
        Some(self.shared())
    }
}

/// Anything the store accepts as a value argument. Cached `Rc<str>`
/// encodings (see `iorchestra::keys::val`) pass through with a refcount
/// bump; borrowed strings are copied once, at the final write site.
pub trait IntoStoreValue {
    /// The value as a string slice (used for change detection without
    /// committing to an allocation).
    fn value_str(&self) -> &str;
    /// Convert into the stored representation.
    fn into_value(self) -> Rc<str>;
}

impl IntoStoreValue for Rc<str> {
    fn value_str(&self) -> &str {
        self
    }
    fn into_value(self) -> Rc<str> {
        self
    }
}

impl IntoStoreValue for &Rc<str> {
    fn value_str(&self) -> &str {
        self
    }
    fn into_value(self) -> Rc<str> {
        Rc::clone(self)
    }
}

impl IntoStoreValue for &str {
    fn value_str(&self) -> &str {
        self
    }
    fn into_value(self) -> Rc<str> {
        Rc::from(self)
    }
}

impl IntoStoreValue for String {
    fn value_str(&self) -> &str {
        self
    }
    fn into_value(self) -> Rc<str> {
        Rc::from(self)
    }
}

impl IntoStoreValue for &String {
    fn value_str(&self) -> &str {
        self
    }
    fn into_value(self) -> Rc<str> {
        Rc::from(self.as_str())
    }
}

// --------------------------------------------------------------------
// Nodes, watches, events
// --------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Node {
    value: Option<Rc<str>>,
    perms: Perms,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn new(perms: Perms) -> Self {
        Node {
            value: None,
            perms,
            children: BTreeMap::new(),
        }
    }
}

/// Identifies a registered watch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WatchId(pub u64);

/// A queued watch firing: `path` changed, notify `owner`.
///
/// The payload strings are shared (`Rc<str>`): when several watches match
/// one write, every event references the same path and value allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WatchEvent {
    /// The watch that fired.
    pub watch: WatchId,
    /// Domain to notify.
    pub owner: DomainId,
    /// The path that was written or removed.
    pub path: Rc<str>,
    /// New value (`None` for a removal).
    pub value: Option<Rc<str>>,
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    id: WatchId,
    owner: DomainId,
}

/// Identifies an open transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxnId(pub u64);

/// The system store.
#[derive(Clone, Debug)]
pub struct XenStore {
    root: Node,
    /// Watches bucketed by their full prefix string. A write looks up each
    /// ancestor prefix of its path — O(depth) probes, independent of how
    /// many watches are registered elsewhere in the tree.
    watch_index: HashMap<Rc<str>, Vec<Watch>>,
    /// Reverse map for `unwatch`.
    watch_prefixes: BTreeMap<u64, Rc<str>>,
    next_watch: u64,
    pending: Vec<WatchEvent>,
    /// Recycled event buffer: [`XenStore::take_events`] hands `pending`
    /// out and installs this (empty, capacity retained) in its place;
    /// [`XenStore::recycle_events`] returns a drained buffer here. Keeps
    /// the write→flush→deliver cycle allocation-free at steady state.
    spare_events: Vec<WatchEvent>,
    /// Reused hit buffer for `fire_watches` (watch id, owner), doubling as
    /// a one-entry fan-out memo: while `memo_key` matches the written
    /// path's shared `Rc` (by pointer) and `memo_epoch` matches
    /// `watch_epoch`, the buffer is reused verbatim — repeated writes to
    /// one hot key (the common control-loop pattern) skip the ancestor
    /// prefix probes and the sort entirely.
    scratch_hits: Vec<(u64, DomainId)>,
    /// Path the memo in `scratch_hits` was computed for. Holding a clone
    /// of the `Rc` pins the allocation, so the pointer identity check
    /// can never alias a freed-and-reused address.
    memo_key: Option<Rc<str>>,
    /// Value of `watch_epoch` when the memo was computed.
    memo_epoch: u64,
    /// Bumped on every watch-set mutation, invalidating the memo.
    watch_epoch: u64,
    txns: BTreeMap<u64, Vec<(DomainId, StorePath, Rc<str>)>>,
    next_txn: u64,
    write_counts: BTreeMap<DomainId, u64>,
    /// Writes by all domains ever, forgotten ones included. Monotonic: an
    /// unchanged total proves every per-domain count is unchanged, so
    /// per-tick anomaly scans can skip the domain loop in O(1).
    write_total: u64,
    /// Denied operations by all domains ever (same O(1) change check).
    denied_total: u64,
    /// Per-domain count of denied write-type operations (write /
    /// write_if_changed / remove / mkdir returning `PermissionDenied`) —
    /// the anomaly detector's "permission violation" signal. Bumped only
    /// on the error path, so the hot path never touches it.
    denied_counts: BTreeMap<DomainId, u64>,
    /// Sim-time stamp for trace events. The store itself is time-free;
    /// the machine refreshes this at each event-loop entry while a trace
    /// recorder is installed (see [`XenStore::set_trace_now`]).
    trace_now: SimTime,
    /// Per-domain resource limits; `None` (the default) disables all
    /// quota enforcement and accounting.
    quota: Option<StoreQuota>,
    /// Write-rate token buckets, lazily created full per domain.
    buckets: BTreeMap<DomainId, TokenBucket>,
    /// Nodes currently owned per domain (maintained only with a quota
    /// installed; the quota must be set while the store is empty).
    owned_counts: BTreeMap<DomainId, u64>,
    /// Clock for the write-rate buckets, fed by [`XenStore::set_now`].
    now: SimTime,
}

impl Default for XenStore {
    fn default() -> Self {
        Self::new()
    }
}

impl XenStore {
    /// Empty store; the root is dom0-owned and world-readable.
    pub fn new() -> Self {
        XenStore {
            root: Node::new(Perms {
                owner: DOM0,
                others_read: true,
                others_write: false,
            }),
            watch_index: HashMap::new(),
            watch_prefixes: BTreeMap::new(),
            next_watch: 0,
            pending: Vec::new(),
            spare_events: Vec::new(),
            scratch_hits: Vec::new(),
            memo_key: None,
            memo_epoch: 0,
            watch_epoch: 0,
            txns: BTreeMap::new(),
            next_txn: 0,
            write_counts: BTreeMap::new(),
            write_total: 0,
            denied_counts: BTreeMap::new(),
            denied_total: 0,
            trace_now: SimTime::ZERO,
            quota: None,
            buckets: BTreeMap::new(),
            owned_counts: BTreeMap::new(),
            now: SimTime::ZERO,
        }
    }

    /// Set the sim-time used to stamp trace events for subsequent store
    /// operations. Store methods take no clock of their own, so the
    /// machine pushes the current time here before running control-plane
    /// code — and only while a trace recorder is installed, keeping the
    /// untraced hot path untouched.
    pub fn set_trace_now(&mut self, now: SimTime) {
        self.trace_now = now;
    }

    /// Install per-domain quotas (see [`StoreQuota`]). Must be called
    /// while the store is empty so the owned-node accounting starts from
    /// zero; the machine does this at construction. Dom0 is exempt.
    pub fn set_quota(&mut self, quota: StoreQuota) {
        debug_assert!(
            self.root.children.is_empty(),
            "quotas must be installed on an empty store"
        );
        self.quota = Some(quota);
    }

    /// The installed quota, if any.
    pub fn quota(&self) -> Option<StoreQuota> {
        self.quota
    }

    /// Advance the clock used by the write-rate token buckets. The store
    /// itself is time-free; the machine pushes the current sim time here
    /// at each event-loop entry. Monotonic (a stale time never refunds).
    pub fn set_now(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Nodes currently owned by a domain (0 unless a quota is installed).
    pub fn owned_count(&self, dom: DomainId) -> u64 {
        self.owned_counts.get(&dom).copied().unwrap_or(0)
    }

    /// Refill every domain's write-rate token bucket to its full burst
    /// allowance. A recovering control plane calls this so that retries a
    /// guest burned against a dead dom0 do not carry over as an empty
    /// bucket — and a denial storm — the moment service resumes. No-op
    /// without an installed quota.
    pub fn quota_refill_all(&mut self) {
        let Some(quota) = self.quota else { return };
        let now = self.now;
        for b in self.buckets.values_mut() {
            b.nanos = quota.write_burst.saturating_mul(TOKEN);
            b.last = now;
        }
    }

    /// Take one write token from `caller`'s bucket, refilling for elapsed
    /// time first. Returns whether the write may proceed.
    fn take_token(&mut self, caller: DomainId, quota: &StoreQuota) -> bool {
        if quota.write_rate_per_sec == 0 {
            return true;
        }
        let cap = quota.write_burst.saturating_mul(TOKEN);
        let now = self.now;
        let b = self.buckets.entry(caller).or_insert(TokenBucket {
            nanos: cap,
            last: now,
        });
        let elapsed = now.as_nanos().saturating_sub(b.last.as_nanos());
        b.last = now;
        b.nanos = b
            .nanos
            .saturating_add(elapsed.saturating_mul(quota.write_rate_per_sec))
            .min(cap);
        if b.nanos >= TOKEN {
            b.nanos -= TOKEN;
            true
        } else {
            false
        }
    }

    /// Segments of `path` that do not exist yet (nodes a write would
    /// create). Only called on the quota-enforced slow path.
    fn missing_nodes(&self, path: &str) -> u64 {
        let mut node = Some(&self.root);
        let mut missing = 0u64;
        for s in path_segments(path) {
            match node.and_then(|n| n.children.get(s)) {
                Some(child) => node = Some(child),
                None => {
                    node = None;
                    missing += 1;
                }
            }
        }
        missing
    }

    /// Enforce the installed quota for a write-type operation: one rate
    /// token, the value-size cap, and the owned-node cap (counting nodes
    /// the write would create). Trips feed the denied-op counters and the
    /// trace layer like permission violations.
    fn enforce_quota(
        &mut self,
        caller: DomainId,
        path: &str,
        value_len: usize,
    ) -> Result<(), StoreError> {
        let Some(quota) = self.quota else {
            return Ok(());
        };
        if caller == DOM0 {
            return Ok(());
        }
        if !self.take_token(caller, &quota) {
            self.note_denied(caller, path);
            return Err(StoreError::QuotaExceeded);
        }
        if quota.max_value_bytes != 0 && value_len > quota.max_value_bytes {
            self.note_denied(caller, path);
            return Err(StoreError::QuotaExceeded);
        }
        if quota.max_owned_nodes != 0 {
            let creating = self.missing_nodes(path);
            if creating > 0 && self.owned_count(caller) + creating > quota.max_owned_nodes {
                self.note_denied(caller, path);
                return Err(StoreError::QuotaExceeded);
            }
        }
        Ok(())
    }

    /// Record node-ownership changes for quota accounting (no-op without
    /// an installed quota).
    fn account_owned(&mut self, owner: DomainId, delta: i64) {
        if self.quota.is_none() || delta == 0 {
            return;
        }
        let c = self.owned_counts.entry(owner).or_insert(0);
        if delta > 0 {
            *c += delta as u64;
        } else {
            *c = c.saturating_sub((-delta) as u64);
        }
    }

    #[cold]
    fn note_denied(&mut self, caller: DomainId, path: &str) {
        *self.denied_counts.entry(caller).or_insert(0) += 1;
        self.denied_total += 1;
        trace_event!(
            self.trace_now,
            TraceEventKind::StoreDenied {
                dom: caller.0,
                path: Rc::from(path),
            }
        );
    }

    fn lookup<'a>(&'a self, path: &str) -> Option<&'a Node> {
        let mut node = &self.root;
        for s in path_segments(path) {
            node = node.children.get(s)?;
        }
        Some(node)
    }

    fn lookup_mut<'a>(&'a mut self, path: &str) -> Option<&'a mut Node> {
        let mut node = &mut self.root;
        for s in path_segments(path) {
            node = node.children.get_mut(s)?;
        }
        Some(node)
    }

    /// Read a value (owned copy; see [`XenStore::read_ref`] for the
    /// borrowing fast path).
    pub fn read<P: AsStorePath>(&self, caller: DomainId, path: P) -> Result<String, StoreError> {
        self.read_ref(caller, path).map(str::to_string)
    }

    /// Read a value without copying it: borrows straight out of the tree.
    pub fn read_ref<P: AsStorePath>(&self, caller: DomainId, path: P) -> Result<&str, StoreError> {
        let path = path.path_str();
        validate_path(path)?;
        let node = self.lookup(path).ok_or(StoreError::NotFound)?;
        if !node.perms.can_read(caller) {
            return Err(StoreError::PermissionDenied);
        }
        node.value.as_deref().ok_or(StoreError::NotFound)
    }

    /// Walk to the node at `path`, creating missing nodes with inherited
    /// permissions. Checks write permission on the deepest pre-existing
    /// node before creating anything (seed semantics), in a single pass.
    /// Returns the node plus how many nodes were created (all of which
    /// share the inherited permissions, hence a single owner).
    fn walk_create<'a>(
        root: &'a mut Node,
        caller: DomainId,
        path: &str,
    ) -> Result<(&'a mut Node, u64), StoreError> {
        let mut node = root;
        let mut created = 0u64;
        for s in path_segments(path) {
            if created == 0 && node.children.contains_key(s) {
                node = node.children.get_mut(s).unwrap();
            } else {
                if created == 0 {
                    // First missing segment: `node` is the deepest
                    // pre-existing node — nothing has been created yet.
                    if !node.perms.can_write(caller) {
                        return Err(StoreError::PermissionDenied);
                    }
                }
                created += 1;
                let inherited = node.perms;
                node = node
                    .children
                    .entry(s.to_string())
                    .or_insert_with(|| Node::new(inherited));
            }
        }
        if created == 0 && !node.perms.can_write(caller) {
            return Err(StoreError::PermissionDenied);
        }
        Ok((node, created))
    }

    /// Write a value, creating intermediate nodes. Intermediate and leaf
    /// nodes created by the write inherit the nearest existing ancestor's
    /// permissions; writing into an existing node requires write permission
    /// on it.
    pub fn write<P: AsStorePath, V: IntoStoreValue>(
        &mut self,
        caller: DomainId,
        path: P,
        value: V,
    ) -> Result<(), StoreError> {
        let path_str = path.path_str();
        validate_path(path_str)?;
        if path_str == "/" {
            return Err(StoreError::BadPath);
        }
        if self.quota.is_some() {
            self.enforce_quota(caller, path_str, value.value_str().len())?;
        }
        let (value, created, created_owner) = {
            let (node, created) = match Self::walk_create(&mut self.root, caller, path_str) {
                Ok(hit) => hit,
                Err(e) => {
                    if matches!(e, StoreError::PermissionDenied) {
                        self.note_denied(caller, path_str);
                    }
                    return Err(e);
                }
            };
            let value = value.into_value();
            node.value = Some(Rc::clone(&value));
            (value, created, node.perms.owner)
        };
        self.account_owned(created_owner, created as i64);
        *self.write_counts.entry(caller).or_insert(0) += 1;
        self.write_total += 1;
        trace_event!(
            self.trace_now,
            TraceEventKind::StoreWrite {
                dom: caller.0,
                path: path
                    .to_shared()
                    .unwrap_or_else(|| Rc::from(path.path_str())),
                value: Rc::clone(&value),
            }
        );
        self.fire_watches(path_str, path.to_shared(), Some(value));
        Ok(())
    }

    /// Write a value only if it differs from what is already stored.
    /// Returns `Ok(true)` if the store changed (watches fired), `Ok(false)`
    /// if the identical value was already present — in which case nothing
    /// is republished and no watch event is queued. Permission checks are
    /// identical to [`XenStore::write`] either way.
    pub fn write_if_changed<P: AsStorePath, V: IntoStoreValue>(
        &mut self,
        caller: DomainId,
        path: P,
        value: V,
    ) -> Result<bool, StoreError> {
        let path_str = path.path_str();
        validate_path(path_str)?;
        if path_str == "/" {
            return Err(StoreError::BadPath);
        }
        if let Some(node) = self.lookup(path_str) {
            if !node.perms.can_write(caller) {
                self.note_denied(caller, path_str);
                return Err(StoreError::PermissionDenied);
            }
            if node.value.as_deref() == Some(value.value_str()) {
                return Ok(false);
            }
        }
        self.write(caller, path, value)?;
        Ok(true)
    }

    /// Remove a node and its subtree. Fires one watch event per removed
    /// node — the named path first, then every descendant in depth-first
    /// child order — so a watcher of a deleted subtree learns about every
    /// node that vanished, not just the root of the removal.
    pub fn remove<P: AsStorePath>(&mut self, caller: DomainId, path: P) -> Result<(), StoreError> {
        let path_str = path.path_str();
        validate_path(path_str)?;
        if path_str == "/" {
            return Err(StoreError::BadPath);
        }
        let node = self.lookup(path_str).ok_or(StoreError::NotFound)?;
        if !node.perms.can_write(caller) {
            self.note_denied(caller, path_str);
            return Err(StoreError::PermissionDenied);
        }
        let (parent_path, leaf) = path_str.rsplit_once('/').unwrap();
        let parent = if parent_path.is_empty() {
            &mut self.root
        } else {
            self.lookup_mut(parent_path).ok_or(StoreError::NotFound)?
        };
        let removed = parent.children.remove(leaf).ok_or(StoreError::NotFound)?;
        if self.quota.is_some() {
            // Removing a subtree frees its nodes from the owners' quotas.
            fn tally(node: &Node, counts: &mut BTreeMap<DomainId, u64>) {
                *counts.entry(node.perms.owner).or_insert(0) += 1;
                for child in node.children.values() {
                    tally(child, counts);
                }
            }
            let mut counts = BTreeMap::new();
            tally(&removed, &mut counts);
            for (owner, n) in counts {
                self.account_owned(owner, -(n as i64));
            }
        }
        // Event for the removed root (sharing the caller's interned path
        // when available), then one per descendant, parent-first.
        self.fire_watches(path_str, path.to_shared(), None);
        let mut buf = String::from(path_str);
        self.fire_removed_subtree(&removed, &mut buf);
        Ok(())
    }

    fn fire_removed_subtree(&mut self, node: &Node, path: &mut String) {
        for (name, child) in &node.children {
            let len = path.len();
            path.push('/');
            path.push_str(name);
            self.fire_watches(path, None, None);
            self.fire_removed_subtree(child, path);
            path.truncate(len);
        }
    }

    /// List child names of a directory node.
    pub fn list<P: AsStorePath>(
        &self,
        caller: DomainId,
        path: P,
    ) -> Result<Vec<String>, StoreError> {
        let path = path.path_str();
        validate_path(path)?;
        let node = self.lookup(path).ok_or(StoreError::NotFound)?;
        if !node.perms.can_read(caller) {
            return Err(StoreError::PermissionDenied);
        }
        Ok(node.children.keys().cloned().collect())
    }

    /// Set permissions on an existing node. Only dom0 or the current owner
    /// may change them.
    pub fn set_perms<P: AsStorePath>(
        &mut self,
        caller: DomainId,
        path: P,
        perms: Perms,
    ) -> Result<(), StoreError> {
        let path = path.path_str();
        validate_path(path)?;
        let node = self.lookup_mut(path).ok_or(StoreError::NotFound)?;
        if caller != DOM0 && caller != node.perms.owner {
            return Err(StoreError::PermissionDenied);
        }
        let old_owner = node.perms.owner;
        node.perms = perms;
        if old_owner != perms.owner {
            self.account_owned(old_owner, -1);
            self.account_owned(perms.owner, 1);
        }
        Ok(())
    }

    /// Create a directory node with explicit permissions (dom0 setup path;
    /// also allowed for a domain inside its own subtree).
    pub fn mkdir<P: AsStorePath>(
        &mut self,
        caller: DomainId,
        path: P,
        perms: Perms,
    ) -> Result<(), StoreError> {
        let path = path.path_str();
        validate_path(path)?;
        if path == "/" {
            return Err(StoreError::BadPath);
        }
        if self.quota.is_some() {
            self.enforce_quota(caller, path, 0)?;
        }
        let (created, inherited_owner, old_owner) = {
            let (node, created) = match Self::walk_create(&mut self.root, caller, path) {
                Ok(hit) => hit,
                Err(e) => {
                    if matches!(e, StoreError::PermissionDenied) {
                        self.note_denied(caller, path);
                    }
                    return Err(e);
                }
            };
            let old_owner = node.perms.owner;
            node.perms = perms;
            (created, old_owner, old_owner)
        };
        // Created nodes were charged to the inherited owner; the explicit
        // perms may hand the leaf to someone else.
        self.account_owned(inherited_owner, created as i64);
        if old_owner != perms.owner {
            self.account_owned(old_owner, -1);
            self.account_owned(perms.owner, 1);
        }
        Ok(())
    }

    /// Register a watch on a path prefix. Any write/remove at or below the
    /// prefix queues a [`WatchEvent`] for `owner`.
    pub fn watch<P: AsStorePath>(&mut self, owner: DomainId, prefix: P) -> WatchId {
        let id = WatchId(self.next_watch);
        self.next_watch += 1;
        let key: Rc<str> = prefix
            .to_shared()
            .unwrap_or_else(|| Rc::from(prefix.path_str()));
        self.watch_prefixes.insert(id.0, Rc::clone(&key));
        self.watch_index
            .entry(key)
            .or_default()
            .push(Watch { id, owner });
        self.watch_epoch += 1;
        id
    }

    /// Remove a watch.
    pub fn unwatch(&mut self, id: WatchId) -> bool {
        let Some(prefix) = self.watch_prefixes.remove(&id.0) else {
            return false;
        };
        if let Some(bucket) = self.watch_index.get_mut(&*prefix) {
            bucket.retain(|w| w.id != id);
            if bucket.is_empty() {
                self.watch_index.remove(&*prefix);
            }
        }
        self.watch_epoch += 1;
        true
    }

    /// Remove every watch registered by `owner` (a crashed control plane
    /// loses its subscriptions; recovery re-arms them fresh). Returns how
    /// many watches were removed. Events already queued are untouched —
    /// delivery-time gating is the machine's job.
    pub fn unwatch_owner(&mut self, owner: DomainId) -> usize {
        let ids: Vec<u64> = self
            .watch_index
            .values()
            .flatten()
            .filter(|w| w.owner == owner)
            .map(|w| w.id.0)
            .collect();
        for id in &ids {
            self.unwatch(WatchId(*id));
        }
        ids.len()
    }

    /// Number of registered watches.
    pub fn watch_count(&self) -> usize {
        self.watch_prefixes.len()
    }

    /// Forget a destroyed domain: drop its watches, its write/denied
    /// counters, its write-rate bucket and its owned-node count. The
    /// monotonic [`write_total`](XenStore::write_total) and
    /// [`denied_total`](XenStore::denied_total) keep their values. Events
    /// already queued for the domain's watches are kept, so removing the
    /// domain's subtree first still delivers every removal event.
    pub fn forget_domain(&mut self, dom: DomainId) {
        self.unwatch_owner(dom);
        self.write_counts.remove(&dom);
        self.denied_counts.remove(&dom);
        self.buckets.remove(&dom);
        self.owned_counts.remove(&dom);
    }

    /// Entries in the per-domain maps: write counters, denied counters,
    /// rate buckets and owned-node counts. Each holds only domains not yet
    /// passed to [`forget_domain`](XenStore::forget_domain).
    pub fn domain_entries(&self) -> [usize; 4] {
        [
            self.write_counts.len(),
            self.denied_counts.len(),
            self.buckets.len(),
            self.owned_counts.len(),
        ]
    }

    /// Queue events for every watch whose prefix covers `path`.
    ///
    /// Matching semantics are identical to the seed's linear scan: a watch
    /// with prefix `q` fires when `path == q`, when `q` is an ancestor of
    /// `path` (segment boundary), or when `q` is the catch-all `"/"` (or
    /// the degenerate `""`). Instead of scanning every watch, the path's
    /// ancestor prefixes are looked up directly; events are emitted in
    /// watch-registration order, exactly as the scan produced them.
    fn fire_watches(&mut self, path: &str, shared: Option<Rc<str>>, value: Option<Rc<str>>) {
        if self.watch_index.is_empty() {
            return;
        }
        let memo_valid = self.memo_epoch == self.watch_epoch
            && match (&self.memo_key, &shared) {
                (Some(k), Some(p)) => Rc::ptr_eq(k, p),
                _ => false,
            };
        if !memo_valid {
            let XenStore {
                watch_index,
                scratch_hits,
                ..
            } = self;
            scratch_hits.clear();
            {
                let mut probe = |prefix: &str| {
                    if let Some(bucket) = watch_index.get(prefix) {
                        for w in bucket {
                            scratch_hits.push((w.id.0, w.owner));
                        }
                    }
                };
                probe("");
                probe("/");
                if path != "/" {
                    let bytes = path.as_bytes();
                    for i in 1..bytes.len() {
                        if bytes[i] == b'/' {
                            probe(&path[..i]);
                        }
                    }
                    probe(path);
                }
            }
            // Registration order == ascending watch id (the seed scanned
            // its watch list in push order, which is the same order).
            self.scratch_hits.sort_unstable_by_key(|&(id, _)| id);
            // Interned paths carry a stable shared Rc — memoize the hit
            // list against it (an empty hit list is a valid memo too).
            self.memo_key = shared.as_ref().map(Rc::clone);
            self.memo_epoch = self.watch_epoch;
        }
        if self.scratch_hits.is_empty() {
            return;
        }
        let shared = shared.unwrap_or_else(|| Rc::from(path));
        for &(id, owner) in self.scratch_hits.iter() {
            self.pending.push(WatchEvent {
                watch: WatchId(id),
                owner,
                path: Rc::clone(&shared),
                value: value.clone(),
            });
        }
    }

    /// Drain queued watch events (the machine delivers them over XenBus).
    /// The recycled spare buffer (see [`XenStore::recycle_events`]) is
    /// installed in place of `pending`, so the steady-state delivery
    /// cycle reuses one allocation instead of growing a fresh `Vec` per
    /// flush.
    pub fn take_events(&mut self) -> Vec<WatchEvent> {
        std::mem::replace(&mut self.pending, std::mem::take(&mut self.spare_events))
    }

    /// Return a drained delivery buffer so its capacity is reused by the
    /// next [`XenStore::take_events`].
    pub fn recycle_events(&mut self, mut buf: Vec<WatchEvent>) {
        buf.clear();
        if buf.capacity() > self.spare_events.capacity() {
            self.spare_events = buf;
        }
    }

    /// Whether any watch events are queued.
    pub fn has_events(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Begin a transaction: writes are buffered and applied atomically at
    /// commit (no isolation conflicts modelled — the paper's policies are
    /// single-writer per key).
    pub fn txn_begin(&mut self) -> TxnId {
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(id, Vec::new());
        TxnId(id)
    }

    /// Buffer a write inside a transaction (permissions checked at commit).
    pub fn txn_write<P: AsStorePath, V: IntoStoreValue>(
        &mut self,
        txn: TxnId,
        caller: DomainId,
        path: P,
        value: V,
    ) -> Result<(), StoreError> {
        let buf = self
            .txns
            .get_mut(&txn.0)
            .ok_or(StoreError::BadTransaction)?;
        // Intern here so a malformed path is representable until commit
        // rejects it; StorePath::parse would eagerly reject, but the seed
        // deferred all validation to commit, so buffer the raw string.
        let path = StorePath {
            full: path
                .to_shared()
                .unwrap_or_else(|| Rc::from(path.path_str())),
        };
        buf.push((caller, path, value.into_value()));
        Ok(())
    }

    /// Validate one buffered transaction write against the current tree:
    /// the same check [`XenStore::write`] performs, with no mutation.
    ///
    /// Because created nodes inherit their parent's permissions verbatim,
    /// the deepest pre-existing node on any buffered path carries exactly
    /// the permissions the seed's clone-and-replay probe would have seen —
    /// so checking against the unmodified tree is equivalent to the seed's
    /// full-store clone, without the clone.
    fn check_txn_write(&self, caller: DomainId, path: &str) -> Result<(), StoreError> {
        validate_path(path)?;
        if path == "/" {
            return Err(StoreError::BadPath);
        }
        let mut node = &self.root;
        for s in path_segments(path) {
            match node.children.get(s) {
                Some(child) => node = child,
                None => break,
            }
        }
        if !node.perms.can_write(caller) {
            return Err(StoreError::PermissionDenied);
        }
        Ok(())
    }

    /// Commit a transaction. If any write fails its permission check the
    /// whole transaction is rolled back (the store is untouched and no
    /// watch events fire) and the error returned. A successful commit
    /// applies and publishes the writes in buffer order.
    pub fn txn_commit(&mut self, txn: TxnId) -> Result<(), StoreError> {
        let buf = self.txns.remove(&txn.0).ok_or(StoreError::BadTransaction)?;
        for (caller, path, _) in &buf {
            self.check_txn_write(*caller, path)?;
        }
        for (caller, path, value) in buf {
            self.write(caller, &path, value)?;
        }
        Ok(())
    }

    /// Abort a transaction.
    pub fn txn_abort(&mut self, txn: TxnId) -> Result<(), StoreError> {
        self.txns.remove(&txn.0).ok_or(StoreError::BadTransaction)?;
        Ok(())
    }

    /// Writes performed by a domain — input for the anomaly detector
    /// ("IOrchestra can be configured to identify malicious VMs").
    /// Suppressed [`XenStore::write_if_changed`] republishes do not count:
    /// they put no traffic on the channel.
    pub fn write_count(&self, dom: DomainId) -> u64 {
        self.write_counts.get(&dom).copied().unwrap_or(0)
    }

    /// Denied write-type operations by a domain (permission violations) —
    /// the anomaly detector's misbehaving-writer signal.
    pub fn denied_count(&self, dom: DomainId) -> u64 {
        self.denied_counts.get(&dom).copied().unwrap_or(0)
    }

    /// Writes performed by all domains together. Monotonic; equal totals
    /// across two observations prove no per-domain [`write_count`] moved,
    /// letting per-tick scans short-circuit without touching the map.
    ///
    /// [`write_count`]: XenStore::write_count
    pub fn write_total(&self) -> u64 {
        self.write_total
    }

    /// Denied write-type operations across all domains (monotonic; see
    /// [`XenStore::write_total`] for the change-detection contract).
    pub fn denied_total(&self) -> u64 {
        self.denied_total
    }

    /// Conventional per-domain subtree root, as in Xen.
    pub fn domain_path(dom: DomainId) -> String {
        format!("/local/domain/{}", dom.0)
    }

    /// Flatten the tree into `(path, value, perms)` rows, depth-first in
    /// child order. Used by tests to compare whole-store state (e.g. that
    /// a failed transaction left the tree byte-identical) and by the
    /// differential suite against the legacy implementation.
    pub fn dump(&self) -> Vec<(String, Option<String>, Perms)> {
        let mut out = Vec::new();
        fn visit(node: &Node, path: &mut String, out: &mut Vec<(String, Option<String>, Perms)>) {
            for (name, child) in &node.children {
                let len = path.len();
                path.push('/');
                path.push_str(name);
                out.push((
                    path.clone(),
                    child.value.as_deref().map(str::to_string),
                    child.perms,
                ));
                visit(child, path, out);
                path.truncate(len);
            }
        }
        visit(&self.root, &mut String::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(n: u32) -> DomainId {
        DomainId(n)
    }

    fn store_with_domain(dom: DomainId) -> XenStore {
        let mut s = XenStore::new();
        let path = XenStore::domain_path(dom);
        s.mkdir(DOM0, &path, Perms::private_to(dom)).unwrap();
        s
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/virt-dev/flush_now", "1")
            .unwrap();
        assert_eq!(
            s.read(d(1), "/local/domain/1/virt-dev/flush_now").unwrap(),
            "1"
        );
    }

    #[test]
    fn dom0_reads_everything() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/secret", "42").unwrap();
        assert_eq!(s.read(DOM0, "/local/domain/1/secret").unwrap(), "42");
    }

    #[test]
    fn cross_domain_access_denied() {
        let mut s = store_with_domain(d(1));
        s.mkdir(DOM0, "/local/domain/2", Perms::private_to(d(2)))
            .unwrap();
        s.write(d(1), "/local/domain/1/nr", "100").unwrap();
        // Domain 2 can neither read nor write domain 1's subtree.
        assert_eq!(
            s.read(d(2), "/local/domain/1/nr"),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(
            s.write(d(2), "/local/domain/1/nr", "0"),
            Err(StoreError::PermissionDenied)
        );
        // And cannot create nodes there either.
        assert_eq!(
            s.write(d(2), "/local/domain/1/evil", "x"),
            Err(StoreError::PermissionDenied)
        );
    }

    #[test]
    fn created_nodes_inherit_perms() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/a/b/c", "v").unwrap();
        // The intermediate nodes are private to domain 1.
        assert_eq!(
            s.read(d(2), "/local/domain/1/a/b/c"),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(s.read(d(1), "/local/domain/1/a/b/c").unwrap(), "v");
    }

    #[test]
    fn missing_path_not_found() {
        let s = XenStore::new();
        assert_eq!(s.read(DOM0, "/nope"), Err(StoreError::NotFound));
    }

    #[test]
    fn bad_paths_rejected() {
        let mut s = XenStore::new();
        assert_eq!(s.write(DOM0, "relative", "x"), Err(StoreError::BadPath));
        assert_eq!(s.write(DOM0, "//double", "x"), Err(StoreError::BadPath));
        assert_eq!(s.write(DOM0, "/", "x"), Err(StoreError::BadPath));
        assert_eq!(s.write(DOM0, "/trailing/", "x"), Err(StoreError::BadPath));
        assert_eq!(s.write(DOM0, "/mid//dle", "x"), Err(StoreError::BadPath));
    }

    #[test]
    fn store_path_parse_matches_string_validation() {
        assert!(StorePath::parse("/a/b").is_ok());
        assert_eq!(StorePath::parse("/a/b").unwrap().as_str(), "/a/b");
        assert!(StorePath::parse("/").is_ok());
        assert_eq!(StorePath::parse("rel"), Err(StoreError::BadPath));
        assert_eq!(StorePath::parse("//x"), Err(StoreError::BadPath));
        assert_eq!(StorePath::parse("/x/"), Err(StoreError::BadPath));
        let p = StorePath::parse("/a/b/c").unwrap();
        assert_eq!(p.segments().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(
            StorePath::parse("/").unwrap().segments().count(),
            0,
            "root has no segments"
        );
    }

    #[test]
    fn interned_path_roundtrip_and_shared_event_payload() {
        let mut s = store_with_domain(d(1));
        let key = StorePath::parse("/local/domain/1/virt-dev/nr").unwrap();
        s.watch(DOM0, "/local/domain/1");
        s.write(d(1), &key, "7").unwrap();
        assert_eq!(s.read_ref(d(1), &key).unwrap(), "7");
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        // The event shares the interned path allocation.
        assert!(Rc::ptr_eq(&evs[0].path, &key.shared()));
    }

    #[test]
    fn read_ref_borrows_without_copy() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/x", "hello").unwrap();
        assert_eq!(s.read_ref(d(1), "/local/domain/1/x").unwrap(), "hello");
        assert_eq!(
            s.read_ref(d(2), "/local/domain/1/x"),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(s.read_ref(DOM0, "/nope"), Err(StoreError::NotFound));
    }

    #[test]
    fn write_if_changed_suppresses_republish() {
        let mut s = store_with_domain(d(1));
        s.watch(DOM0, "/local");
        assert!(s.write_if_changed(d(1), "/local/domain/1/nr", "5").unwrap());
        assert_eq!(s.take_events().len(), 1);
        assert_eq!(s.write_count(d(1)), 1);
        // Identical value: no event, no write counted.
        assert!(!s.write_if_changed(d(1), "/local/domain/1/nr", "5").unwrap());
        assert!(s.take_events().is_empty());
        assert_eq!(s.write_count(d(1)), 1);
        // Changed value publishes again.
        assert!(s.write_if_changed(d(1), "/local/domain/1/nr", "6").unwrap());
        assert_eq!(s.take_events().len(), 1);
        assert_eq!(s.read_ref(d(1), "/local/domain/1/nr").unwrap(), "6");
        // Permission checks still apply even when the value matches.
        assert_eq!(
            s.write_if_changed(d(2), "/local/domain/1/nr", "6"),
            Err(StoreError::PermissionDenied)
        );
    }

    #[test]
    fn remove_subtree() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/a/b", "v").unwrap();
        s.remove(d(1), "/local/domain/1/a").unwrap();
        assert_eq!(
            s.read(d(1), "/local/domain/1/a/b"),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn remove_fires_event_per_deleted_node() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/virt-dev/weight/0", "0.5")
            .unwrap();
        s.write(d(1), "/local/domain/1/virt-dev/weight/1", "0.5")
            .unwrap();
        s.take_events();
        // The guest watches its own weight subtree; deleting the parent
        // must tell it about every vanished node.
        s.watch(d(1), "/local/domain/1/virt-dev/weight");
        s.remove(DOM0, "/local/domain/1/virt-dev").unwrap();
        let evs = s.take_events();
        let paths: Vec<&str> = evs.iter().map(|e| &*e.path).collect();
        assert_eq!(
            paths,
            vec![
                "/local/domain/1/virt-dev/weight",
                "/local/domain/1/virt-dev/weight/0",
                "/local/domain/1/virt-dev/weight/1",
            ],
            "parent-first, then descendants in child order; the removed \
             root itself is outside the watch prefix"
        );
        assert!(evs.iter().all(|e| e.value.is_none()));
    }

    #[test]
    fn list_children() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/x", "1").unwrap();
        s.write(d(1), "/local/domain/1/y", "2").unwrap();
        let kids = s.list(d(1), "/local/domain/1").unwrap();
        assert_eq!(kids, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn watch_fires_on_subtree_write() {
        let mut s = store_with_domain(d(1));
        let w = s.watch(DOM0, "/local/domain/1");
        s.write(d(1), "/local/domain/1/has_dirty_pages", "1")
            .unwrap();
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].watch, w);
        assert_eq!(evs[0].owner, DOM0);
        assert_eq!(&*evs[0].path, "/local/domain/1/has_dirty_pages");
        assert_eq!(evs[0].value.as_deref(), Some("1"));
        // Drained.
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn watch_prefix_must_match_segment_boundary() {
        let mut s = XenStore::new();
        s.watch(DOM0, "/a/b");
        s.write(DOM0, "/a/bc", "x").unwrap();
        assert!(s.take_events().is_empty(), "no boundary-crossing matches");
        s.write(DOM0, "/a/b", "x").unwrap();
        assert_eq!(s.take_events().len(), 1);
        s.write(DOM0, "/a/b/c", "x").unwrap();
        assert_eq!(s.take_events().len(), 1);
    }

    #[test]
    fn root_watch_catches_everything() {
        let mut s = XenStore::new();
        s.watch(DOM0, "/");
        s.write(DOM0, "/a", "1").unwrap();
        s.write(DOM0, "/deep/ly/nested/key", "2").unwrap();
        assert_eq!(s.take_events().len(), 2);
    }

    #[test]
    fn watch_fires_on_remove() {
        let mut s = XenStore::new();
        s.write(DOM0, "/a/b", "x").unwrap();
        s.take_events();
        s.watch(d(3), "/a");
        s.remove(DOM0, "/a/b").unwrap();
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].owner, d(3));
        assert!(evs[0].value.is_none());
    }

    #[test]
    fn unwatch_stops_events() {
        let mut s = XenStore::new();
        let w = s.watch(DOM0, "/a");
        assert_eq!(s.watch_count(), 1);
        assert!(s.unwatch(w));
        assert!(!s.unwatch(w));
        assert_eq!(s.watch_count(), 0);
        s.write(DOM0, "/a/b", "x").unwrap();
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn multiple_watches_fire_independently() {
        let mut s = XenStore::new();
        s.watch(d(1), "/shared");
        s.watch(d(2), "/shared");
        s.write(DOM0, "/shared/v", "7").unwrap();
        let evs = s.take_events();
        assert_eq!(evs.len(), 2);
        let owners: Vec<DomainId> = evs.iter().map(|e| e.owner).collect();
        assert!(owners.contains(&d(1)) && owners.contains(&d(2)));
    }

    #[test]
    fn events_preserve_registration_order_across_prefixes() {
        // Watches at different depths (thus different index buckets) must
        // still fire in registration order, as the seed's scan did.
        let mut s = XenStore::new();
        let w_deep = s.watch(d(2), "/a/b");
        let w_root = s.watch(d(1), "/");
        let w_mid = s.watch(d(3), "/a");
        s.write(DOM0, "/a/b/c", "x").unwrap();
        let ids: Vec<WatchId> = s.take_events().iter().map(|e| e.watch).collect();
        assert_eq!(ids, vec![w_deep, w_root, w_mid]);
    }

    #[test]
    fn transaction_commit_applies_all() {
        let mut s = store_with_domain(d(1));
        let t = s.txn_begin();
        s.txn_write(t, d(1), "/local/domain/1/a", "1").unwrap();
        s.txn_write(t, d(1), "/local/domain/1/b", "2").unwrap();
        s.txn_commit(t).unwrap();
        assert_eq!(s.read(d(1), "/local/domain/1/a").unwrap(), "1");
        assert_eq!(s.read(d(1), "/local/domain/1/b").unwrap(), "2");
    }

    #[test]
    fn transaction_rolls_back_on_denied_write() {
        let mut s = store_with_domain(d(1));
        s.mkdir(DOM0, "/local/domain/2", Perms::private_to(d(2)))
            .unwrap();
        let t = s.txn_begin();
        s.txn_write(t, d(1), "/local/domain/1/ok", "1").unwrap();
        s.txn_write(t, d(1), "/local/domain/2/evil", "1").unwrap();
        assert_eq!(s.txn_commit(t), Err(StoreError::PermissionDenied));
        // Nothing applied.
        assert_eq!(
            s.read(d(1), "/local/domain/1/ok"),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn transaction_abort_discards() {
        let mut s = store_with_domain(d(1));
        let t = s.txn_begin();
        s.txn_write(t, d(1), "/local/domain/1/a", "1").unwrap();
        s.txn_abort(t).unwrap();
        assert_eq!(s.read(d(1), "/local/domain/1/a"), Err(StoreError::NotFound));
        assert_eq!(s.txn_commit(t), Err(StoreError::BadTransaction));
    }

    #[test]
    fn transaction_dependent_writes_commit() {
        // A later txn write below a node created by an earlier one: the
        // walk-based validation must accept it, as the clone-probe did.
        let mut s = store_with_domain(d(1));
        let t = s.txn_begin();
        s.txn_write(t, d(1), "/local/domain/1/a", "1").unwrap();
        s.txn_write(t, d(1), "/local/domain/1/a/b/c", "2").unwrap();
        s.txn_commit(t).unwrap();
        assert_eq!(s.read(d(1), "/local/domain/1/a/b/c").unwrap(), "2");
    }

    #[test]
    fn write_counts_tracked_per_domain() {
        let mut s = store_with_domain(d(1));
        for _ in 0..5 {
            s.write(d(1), "/local/domain/1/x", "v").unwrap();
        }
        assert_eq!(s.write_count(d(1)), 5);
        assert_eq!(s.write_count(d(9)), 0);
    }

    #[test]
    fn denied_counts_tracked_per_domain() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/x", "v").unwrap();
        // Dom 2 violating dom 1's subtree is denied and counted, through
        // every write-type entry point.
        assert_eq!(
            s.write(d(2), "/local/domain/1/x", "evil"),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(
            s.write_if_changed(d(2), "/local/domain/1/x", "evil"),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(
            s.remove(d(2), "/local/domain/1/x"),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(
            s.mkdir(d(2), "/local/domain/1/sub", Perms::private_to(d(2))),
            Err(StoreError::PermissionDenied)
        );
        assert_eq!(s.denied_count(d(2)), 4);
        // The victim's counters are untouched, and so is its data.
        assert_eq!(s.denied_count(d(1)), 0);
        assert_eq!(s.write_count(d(2)), 0);
        assert_eq!(s.read(d(1), "/local/domain/1/x").unwrap(), "v");
    }

    #[test]
    fn set_perms_owner_only() {
        let mut s = store_with_domain(d(1));
        s.write(d(1), "/local/domain/1/x", "v").unwrap();
        let open = Perms {
            owner: d(1),
            others_read: true,
            others_write: false,
        };
        assert_eq!(
            s.set_perms(d(2), "/local/domain/1/x", open),
            Err(StoreError::PermissionDenied)
        );
        s.set_perms(d(1), "/local/domain/1/x", open).unwrap();
        assert_eq!(s.read(d(2), "/local/domain/1/x").unwrap(), "v");
    }

    #[test]
    fn unwatch_owner_removes_only_that_owners_watches() {
        let mut s = XenStore::new();
        s.watch(DOM0, "/a");
        s.watch(DOM0, "/b");
        let survivor = s.watch(d(1), "/a");
        assert_eq!(s.unwatch_owner(DOM0), 2);
        assert_eq!(s.watch_count(), 1);
        s.write(DOM0, "/a/x", "1").unwrap();
        s.write(DOM0, "/b/x", "1").unwrap();
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].watch, survivor);
        assert_eq!(s.unwatch_owner(DOM0), 0);
    }

    #[test]
    fn forget_domain_drops_per_domain_state_but_keeps_totals_and_queued_events() {
        let mut s = quota_store(StoreQuota::generous());
        let path = XenStore::domain_path(d(1));
        let own = s.watch(d(1), path.as_str());
        s.write(d(1), "/local/domain/1/x", "v").unwrap();
        let _ = s.write(d(1), "/local/domain/2/x", "v");
        s.take_events();
        let (writes, denied) = (s.write_total(), s.denied_total());
        s.remove(DOM0, path.as_str()).unwrap();
        s.forget_domain(d(1));
        assert_eq!(s.watch_count(), 0);
        assert_eq!(s.domain_entries(), [0, 0, 0, 1], "only dom0's owned count");
        assert_eq!((s.write_total(), s.denied_total()), (writes, denied));
        // The removal events queued before the forget are still delivered.
        let evs = s.take_events();
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.watch == own && e.value.is_none()));
    }

    fn quota_store(quota: StoreQuota) -> XenStore {
        let mut s = XenStore::new();
        s.set_quota(quota);
        let path = XenStore::domain_path(d(1));
        s.mkdir(DOM0, &path, Perms::private_to(d(1))).unwrap();
        s
    }

    #[test]
    fn quotas_are_off_by_default() {
        // A bare store never rate-limits, whatever the (absent) clock says:
        // the differential oracle and hot-path bench rely on this.
        let mut s = store_with_domain(d(1));
        for i in 0..10_000u32 {
            s.write(d(1), "/local/domain/1/x", i.to_string()).unwrap();
        }
        assert_eq!(s.owned_count(d(1)), 0, "no accounting without a quota");
    }

    #[test]
    fn value_size_quota_is_enforced() {
        let mut s = quota_store(StoreQuota {
            max_owned_nodes: 0,
            max_value_bytes: 8,
            write_rate_per_sec: 0,
            write_burst: 0,
        });
        s.write(d(1), "/local/domain/1/ok", "12345678").unwrap();
        assert_eq!(
            s.write(d(1), "/local/domain/1/big", "123456789"),
            Err(StoreError::QuotaExceeded)
        );
        assert_eq!(s.denied_count(d(1)), 1, "quota trips feed denied counts");
        // Dom0 is exempt.
        s.write(DOM0, "/local/domain/1/big", "x".repeat(64))
            .unwrap();
    }

    #[test]
    fn owned_node_quota_counts_creates_and_removes() {
        let mut s = quota_store(StoreQuota {
            max_owned_nodes: 5,
            max_value_bytes: 0,
            write_rate_per_sec: 0,
            write_burst: 0,
        });
        // Only the domain root itself transfers to the guest; the
        // intermediate /local and /local/domain nodes stay dom0's.
        assert_eq!(s.owned_count(d(1)), 1);
        assert_eq!(s.owned_count(DOM0), 2);
        s.write(d(1), "/local/domain/1/a", "1").unwrap();
        s.write(d(1), "/local/domain/1/b", "2").unwrap();
        s.write(d(1), "/local/domain/1/c", "3").unwrap();
        s.write(d(1), "/local/domain/1/e", "4").unwrap();
        assert_eq!(s.owned_count(d(1)), 5);
        assert_eq!(
            s.write(d(1), "/local/domain/1/f", "5"),
            Err(StoreError::QuotaExceeded)
        );
        // Rewriting an existing node creates nothing and still works.
        s.write(d(1), "/local/domain/1/a", "1'").unwrap();
        // Removing frees quota.
        s.remove(d(1), "/local/domain/1/b").unwrap();
        assert_eq!(s.owned_count(d(1)), 4);
        s.write(d(1), "/local/domain/1/f", "5").unwrap();
        // A multi-node create is charged atomically up front.
        assert_eq!(
            s.write(d(1), "/local/domain/1/deep/chain", "x"),
            Err(StoreError::QuotaExceeded)
        );
        assert_eq!(s.owned_count(d(1)), 5, "failed create leaves no debris");
    }

    #[test]
    fn write_rate_quota_throttles_and_refills() {
        let mut s = quota_store(StoreQuota {
            max_owned_nodes: 0,
            max_value_bytes: 0,
            write_rate_per_sec: 10,
            write_burst: 4,
        });
        s.set_now(SimTime::from_millis(1));
        for _ in 0..4 {
            s.write(d(1), "/local/domain/1/x", "v").unwrap();
        }
        assert_eq!(
            s.write(d(1), "/local/domain/1/x", "v"),
            Err(StoreError::QuotaExceeded),
            "burst exhausted"
        );
        // 100 ms at 10/s refills exactly one token.
        s.set_now(SimTime::from_millis(101));
        s.write(d(1), "/local/domain/1/x", "v").unwrap();
        assert_eq!(
            s.write(d(1), "/local/domain/1/x", "v"),
            Err(StoreError::QuotaExceeded)
        );
        // A long idle stretch caps at the burst, not unbounded credit.
        s.set_now(SimTime::from_secs(100));
        for _ in 0..4 {
            s.write(d(1), "/local/domain/1/x", "v").unwrap();
        }
        assert_eq!(
            s.write(d(1), "/local/domain/1/x", "v"),
            Err(StoreError::QuotaExceeded)
        );
        // Dom0 never throttles.
        for _ in 0..100 {
            s.write(DOM0, "/local/domain/1/x", "v").unwrap();
        }
    }

    #[test]
    fn suppressed_republish_is_not_rate_charged() {
        let mut s = quota_store(StoreQuota {
            max_owned_nodes: 0,
            max_value_bytes: 0,
            write_rate_per_sec: 10,
            write_burst: 2,
        });
        s.write(d(1), "/local/domain/1/x", "v").unwrap();
        // Identical-value republishes put no traffic on the channel and
        // cost no tokens.
        for _ in 0..50 {
            assert!(!s.write_if_changed(d(1), "/local/domain/1/x", "v").unwrap());
        }
        s.write(d(1), "/local/domain/1/x", "w").unwrap();
        assert_eq!(
            s.write(d(1), "/local/domain/1/x", "z"),
            Err(StoreError::QuotaExceeded)
        );
    }

    #[test]
    fn dump_flattens_depth_first() {
        let mut s = XenStore::new();
        s.write(DOM0, "/b", "2").unwrap();
        s.write(DOM0, "/a/x", "1").unwrap();
        let rows: Vec<(String, Option<String>)> =
            s.dump().into_iter().map(|(p, v, _)| (p, v)).collect();
        assert_eq!(
            rows,
            vec![
                ("/a".to_string(), None),
                ("/a/x".to_string(), Some("1".to_string())),
                ("/b".to_string(), Some("2".to_string())),
            ]
        );
    }
}
