//! NUMA topology and VCPU placement.
//!
//! The paper's testbed is a two-socket machine (2 × six-core Xeon E5-2620).
//! Placement matters for §3.3: SDC-style dedicated-I/O-core designs assume
//! every VCPU of a VM sits on one socket; large VMs violate that, and
//! IOrchestra balances their I/O across per-socket cores instead.

/// A physical core index on one machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CoreId(pub usize);

/// NUMA sockets of the paper's testbed host (2-socket Xeon).
const SOCKETS: usize = 2;
/// Cores per socket of the paper's testbed host (12 cores in total).
const CORES_PER_SOCKET: usize = 6;

/// Machine CPU topology plus current VCPU load per core.
#[derive(Clone, Debug)]
pub struct NumaTopology {
    sockets: usize,
    cores_per_socket: usize,
    /// VCPUs assigned per core.
    load: Vec<u32>,
    /// Cores reserved as dedicated I/O cores (never get VCPUs).
    reserved: Vec<bool>,
}

impl NumaTopology {
    /// Build a `sockets × cores_per_socket` topology.
    pub fn new(sockets: usize, cores_per_socket: usize) -> Self {
        assert!(sockets >= 1 && cores_per_socket >= 1);
        NumaTopology {
            sockets,
            cores_per_socket,
            load: vec![0; sockets * cores_per_socket],
            reserved: vec![false; sockets * cores_per_socket],
        }
    }

    /// The paper's testbed: 2 sockets × 6 cores.
    pub fn paper_testbed() -> Self {
        Self::new(SOCKETS, CORES_PER_SOCKET)
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.load.len()
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Socket of a core.
    pub fn socket_of(&self, core: CoreId) -> usize {
        core.0 / self.cores_per_socket
    }

    /// First core of a socket.
    pub fn first_core_of(&self, socket: usize) -> CoreId {
        CoreId(socket * self.cores_per_socket)
    }

    /// Reserve a specific core as a dedicated I/O core (evicting nothing:
    /// call before placing VMs). Returns false if already reserved.
    pub fn reserve_io_core(&mut self, core: CoreId) -> bool {
        if self.reserved[core.0] {
            return false;
        }
        self.reserved[core.0] = true;
        true
    }

    /// Whether a core is reserved for I/O.
    pub fn is_reserved(&self, core: CoreId) -> bool {
        self.reserved[core.0]
    }

    /// VCPUs currently assigned to a core.
    pub fn core_load(&self, core: CoreId) -> u32 {
        self.load[core.0]
    }

    /// Place `vcpus` VCPUs of a VM; returns one core per VCPU. Fills the
    /// least-loaded socket first and spills to other sockets only when
    /// the VM has more VCPUs than the socket has room (the common vSphere
    /// / Xen practice the paper describes).
    pub fn place(&mut self, vcpus: u32) -> Vec<CoreId> {
        let mut cores = Vec::with_capacity(vcpus as usize);
        let mut remaining = vcpus;
        while remaining > 0 {
            // Pick the socket with the most free (unreserved, zero-load)
            // cores; tie-break on total load.
            let socket = self.best_socket();
            let take = remaining.min(self.free_cores_in(socket).max(1) as u32);
            for _ in 0..take {
                let core = self.least_loaded_core_in(socket);
                self.load[core.0] += 1;
                cores.push(core);
            }
            remaining -= take;
        }
        cores
    }

    /// Release a VM's VCPUs.
    pub fn unplace(&mut self, cores: &[CoreId]) {
        for c in cores {
            self.load[c.0] = self.load[c.0].saturating_sub(1);
        }
    }

    fn free_cores_in(&self, socket: usize) -> usize {
        self.cores_of(socket)
            .filter(|&c| !self.reserved[c.0] && self.load[c.0] == 0)
            .count()
    }

    fn cores_of(&self, socket: usize) -> impl Iterator<Item = CoreId> + '_ {
        let start = socket * self.cores_per_socket;
        (start..start + self.cores_per_socket).map(CoreId)
    }

    fn best_socket(&self) -> usize {
        (0..self.sockets)
            .max_by_key(|&s| {
                let free = self.free_cores_in(s);
                let load: u32 = self.cores_of(s).map(|c| self.load[c.0]).sum();
                (free, std::cmp::Reverse(load))
            })
            .unwrap()
    }

    fn least_loaded_core_in(&self, socket: usize) -> CoreId {
        self.cores_of(socket)
            .filter(|&c| !self.reserved[c.0])
            .min_by_key(|&c| self.load[c.0])
            .unwrap_or_else(|| self.first_core_of(socket))
    }

    /// Cores available to VCPUs (total minus dedicated I/O cores).
    pub fn unreserved_cores(&self) -> usize {
        self.reserved.iter().filter(|&&r| !r).count()
    }

    /// Largest number of unreserved cores on any single socket — the
    /// biggest VM that can stay NUMA-local on this machine.
    pub fn max_unreserved_in_socket(&self) -> usize {
        (0..self.sockets)
            .map(|s| self.cores_of(s).filter(|&c| !self.reserved[c.0]).count())
            .max()
            .unwrap_or(0)
    }

    /// VCPUs currently placed across all cores.
    pub fn placed_vcpus(&self) -> u32 {
        self.load.iter().sum()
    }

    /// Distinct sockets a set of cores spans.
    pub fn sockets_spanned(&self, cores: &[CoreId]) -> Vec<usize> {
        let mut s: Vec<usize> = cores.iter().map(|&c| self.socket_of(c)).collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let t = NumaTopology::paper_testbed();
        assert_eq!(t.cores(), 12);
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.socket_of(CoreId(0)), 0);
        assert_eq!(t.socket_of(CoreId(5)), 0);
        assert_eq!(t.socket_of(CoreId(6)), 1);
        assert_eq!(t.first_core_of(1), CoreId(6));
    }

    #[test]
    fn small_vm_stays_on_one_socket() {
        let mut t = NumaTopology::paper_testbed();
        let cores = t.place(4);
        assert_eq!(cores.len(), 4);
        assert_eq!(t.sockets_spanned(&cores).len(), 1);
    }

    #[test]
    fn big_vm_spans_sockets() {
        let mut t = NumaTopology::paper_testbed();
        // 10 VCPUs on a 12-core (2×6) machine must span both sockets.
        let cores = t.place(10);
        assert_eq!(cores.len(), 10);
        assert_eq!(t.sockets_spanned(&cores).len(), 2);
    }

    #[test]
    fn reserved_cores_never_get_vcpus() {
        let mut t = NumaTopology::new(2, 2);
        assert!(t.reserve_io_core(CoreId(0)));
        assert!(!t.reserve_io_core(CoreId(0)));
        let cores = t.place(3);
        assert!(!cores.contains(&CoreId(0)));
        assert!(t.is_reserved(CoreId(0)));
    }

    #[test]
    fn load_tracking_and_unplace() {
        let mut t = NumaTopology::new(1, 2);
        let cores = t.place(4);
        // 4 VCPUs over 2 cores -> 2 each.
        assert_eq!(t.core_load(CoreId(0)) + t.core_load(CoreId(1)), 4);
        t.unplace(&cores);
        assert_eq!(t.core_load(CoreId(0)), 0);
        assert_eq!(t.core_load(CoreId(1)), 0);
    }

    #[test]
    fn capacity_accessors_track_reservation_and_load() {
        let mut t = NumaTopology::paper_testbed();
        assert_eq!(t.unreserved_cores(), 12);
        assert_eq!(t.max_unreserved_in_socket(), 6);
        assert_eq!(t.placed_vcpus(), 0);
        t.reserve_io_core(CoreId(0));
        t.reserve_io_core(CoreId(6));
        t.reserve_io_core(CoreId(7));
        assert_eq!(t.unreserved_cores(), 9);
        assert_eq!(t.max_unreserved_in_socket(), 5);
        let cores = t.place(4);
        assert_eq!(t.placed_vcpus(), 4);
        t.unplace(&cores);
        assert_eq!(t.placed_vcpus(), 0);
    }

    #[test]
    fn second_vm_lands_on_other_socket() {
        let mut t = NumaTopology::paper_testbed();
        let a = t.place(4);
        let b = t.place(4);
        let sa = t.sockets_spanned(&a);
        let sb = t.sockets_spanned(&b);
        assert_ne!(sa, sb, "second VM should prefer the emptier socket");
    }
}
