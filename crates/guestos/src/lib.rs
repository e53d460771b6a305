//! # iorch-guestos — simulated Linux guest I/O stack
//!
//! The guest-side half of the semantic gap. Each VM in the reproduction
//! runs one [`GuestKernel`], a faithful-in-structure model of the Linux 3.5
//! code paths the paper patches:
//!
//! * [`Vfs`] — files as extents on the virtual disk;
//! * [`PageCache`] — chunked LRU cache with dirty accounting
//!   (`bdi_writeback.nr`);
//! * [`Writeback`] — background/periodic/expire flushing, writer
//!   throttling at `dirty_ratio`, and the `sync()` barrier that
//!   IOrchestra's `flush_now` triggers remotely (paper §3.1);
//! * [`GuestQueue`] — the request queue with Linux's exact congestion
//!   hysteresis (on at 7/8 of `nr_requests`, off below 13/16) and the
//!   collaborative `release_request` bypass (paper §3.2);
//! * [`GuestKernel`] — the composition, driven by the hypervisor machine
//!   through timers, block completions and collaborative hooks.

#![warn(missing_docs)]

mod kernel;
mod pagecache;
mod queue;
mod vfs;
mod writeback;

pub use kernel::{
    CompletedOp, FileOp, GuestConfig, GuestKernel, KernelOutputs, KernelSignal, KernelStats,
    Misbehavior, OpClass, OpId, OpStart,
};
pub use pagecache::{chunks_of, ChunkIdx, PageCache, CHUNK_PAGES, CHUNK_SIZE, PAGE_SIZE};
pub use queue::{
    congestion_off_threshold, congestion_on_threshold, GuestQueue, GuestQueueParams, QueueEvent,
    Submit, NR_REQUESTS, PLUG_DELAY,
};
pub use vfs::{FileId, Vfs, VfsError};
pub use writeback::{coalesce_chunks, run_to_bytes, Writeback, WritebackParams};
