//! One server node: CPU, buffer pool, and attached disks (§5.2).
//!
//! Nodes are "shared-nothing": a read request travels terminal → owning
//! node → disk → reply without touching any other node ("read requests
//! need not pass through any intermediate nodes and there is no need to
//! consult a global page mapping database before each disk access").

use std::collections::VecDeque;

use spiffi_bufferpool::{BufferPool, FrameId, PolicyKind};
use spiffi_cpu::{Cpu, CpuParams};
use spiffi_disk::{Disk, DiskParams};
use spiffi_layout::BlockAddr;
use spiffi_prefetch::{PrefetchKind, PrefetchQueue};
use spiffi_sched::{DiskRequest, DiskScheduler, RequestId, SchedulerKind};
use spiffi_simcore::{FastHashMap, SimRng, SimTime};

/// Work items processed by a node's FCFS CPU. Each carries the continuation
/// the system runs when the CPU cost has been paid.
#[derive(Clone, Copy, Debug)]
pub enum CpuJob {
    /// Receive + decode a terminal's read request (Table 1: 2 200 instr).
    RecvRequest {
        /// Requesting terminal.
        term: u32,
        /// Terminal's request epoch (stale-reply filtering).
        epoch: u16,
        /// Requested stripe block.
        block: BlockAddr,
        /// Deadline the terminal assigned.
        deadline: SimTime,
    },
    /// Start a disk I/O (Table 1: 20 000 instr); afterwards the request
    /// enters the disk scheduler.
    StartIo {
        /// Node-local disk index.
        disk: u32,
        /// The scheduler entry to enqueue.
        req: DiskRequest,
    },
    /// Send a reply message (Table 1: 6 800 instr); afterwards the data
    /// goes on the wire.
    SendReply {
        /// Destination terminal.
        term: u32,
        /// Epoch echoed from the request.
        epoch: u16,
        /// The block being delivered.
        block: BlockAddr,
        /// Payload size in bytes.
        len: u64,
    },
}

/// Bookkeeping for an I/O that has been handed to a disk scheduler.
#[derive(Clone, Copy, Debug)]
pub struct IoCtx {
    /// The block being read.
    pub block: BlockAddr,
    /// The pool frame the data lands in.
    pub frame: FrameId,
    /// True if this I/O was issued by the prefetcher.
    pub is_prefetch: bool,
    /// When the I/O entered the disk scheduler (queueing + service
    /// latency measurement).
    pub issued_at: SimTime,
    /// The deadline carried by the request, for miss accounting.
    pub deadline: Option<SimTime>,
}

/// A demand read that could not get a buffer frame (every page pinned);
/// retried as frames free up. §7.3: "with fewer than 128 Mbytes the server
/// began to run out of free pages."
#[derive(Clone, Copy, Debug)]
pub struct PendingRead {
    /// Requesting terminal.
    pub term: u32,
    /// Terminal's request epoch.
    pub epoch: u16,
    /// Requested block.
    pub block: BlockAddr,
    /// Deadline from the request.
    pub deadline: SimTime,
}

/// One disk with its scheduler, prefetch queue, and in-flight table.
pub struct DiskUnit {
    /// The mechanical drive model.
    pub disk: Disk,
    /// The scheduling algorithm ordering this disk's queue.
    pub sched: Box<dyn DiskScheduler>,
    /// This disk's prefetch queue + process pool.
    pub prefetch: PrefetchQueue,
    /// Rotational-latency randomness, independent per disk.
    pub rng: SimRng,
    /// The request currently being serviced by the drive.
    pub current: Option<RequestId>,
    /// All requests handed to the scheduler or drive, by id. Never
    /// iterated, so the deterministic fast hasher is safe.
    pub inflight: FastHashMap<RequestId, IoCtx>,
    /// Reverse index for prefetch escalation (block → queued request).
    pub by_block: FastHashMap<BlockAddr, RequestId>,
    /// Generation counter deduplicating delayed-prefetch release timers.
    pub release_gen: u64,
    /// Release instant of the currently armed delayed-prefetch timer, if
    /// any. A new timer is armed only when the queue head's release time
    /// moves earlier; otherwise the armed timer stays valid.
    pub release_timer: Option<SimTime>,
    /// False once a fault scenario has killed this disk: no new I/O is
    /// issued to it and its queue has been failed over to a surviving
    /// sibling on the same node.
    pub alive: bool,
}

impl DiskUnit {
    fn new(
        params: DiskParams,
        scheduler: SchedulerKind,
        prefetch: PrefetchKind,
        rng: SimRng,
        inflight_hint: usize,
    ) -> Self {
        DiskUnit {
            disk: Disk::new(params),
            sched: scheduler.build(),
            prefetch: PrefetchQueue::new(prefetch),
            rng,
            current: None,
            inflight: FastHashMap::with_capacity_and_hasher(inflight_hint, Default::default()),
            by_block: FastHashMap::with_capacity_and_hasher(inflight_hint, Default::default()),
            release_gen: 0,
            release_timer: None,
            alive: true,
        }
    }

    /// Requests queued at the scheduler plus the one on the drive.
    pub fn queue_depth(&self) -> usize {
        self.sched.len() + usize::from(self.current.is_some())
    }
}

impl std::fmt::Debug for DiskUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskUnit")
            .field("sched", &self.sched.name())
            .field("queued", &self.sched.len())
            .field("current", &self.current)
            .finish()
    }
}

/// One server node.
pub struct Node {
    /// The node CPU (FCFS).
    pub cpu: Cpu<CpuJob>,
    /// This node's share of the server buffer pool.
    pub pool: BufferPool,
    /// Attached disks.
    pub disks: Vec<DiskUnit>,
    /// Demand reads waiting for a free buffer frame.
    pub pending_reads: VecDeque<PendingRead>,
}

impl Node {
    /// Build a node with `n_disks` disks. `inflight_hint` pre-sizes each
    /// disk's in-flight maps (steady-state I/Os queued per disk, a small
    /// multiple of the terminal count per disk); pass 0 when unknown.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node_index: u32,
        n_disks: u32,
        pool_frames: usize,
        policy: PolicyKind,
        cpu: CpuParams,
        disk: DiskParams,
        scheduler: SchedulerKind,
        prefetch: PrefetchKind,
        seed: u64,
        inflight_hint: usize,
    ) -> Self {
        let disks = (0..n_disks)
            .map(|d| {
                let rng = SimRng::stream(seed, ((node_index as u64) << 16) | d as u64);
                DiskUnit::new(disk, scheduler, prefetch, rng, inflight_hint)
            })
            .collect();
        Node {
            cpu: Cpu::new(cpu),
            pool: BufferPool::new(pool_frames, policy),
            disks,
            pending_reads: VecDeque::with_capacity(16),
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("disks", &self.disks.len())
            .field("pool", &self.pool)
            .field("pending_reads", &self.pending_reads.len())
            .finish()
    }
}

/// Encode a waiter as (terminal, epoch) for the buffer pool's opaque
/// waiter tokens. The epoch occupies the low 32-bit slot (zero-extended)
/// so tokens keep their historical values.
pub fn waiter_token(term: u32, epoch: u16) -> u64 {
    ((term as u64) << 32) | epoch as u64
}

/// Decode a waiter token back to (terminal, epoch).
pub fn decode_waiter(token: u64) -> (u32, u16) {
    ((token >> 32) as u32, token as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiter_token_round_trips() {
        for (t, e) in [(0u32, 0u16), (1, 2), (u32::MAX, u16::MAX), (760, 3)] {
            assert_eq!(decode_waiter(waiter_token(t, e)), (t, e));
        }
    }

    #[test]
    fn node_construction() {
        let n = Node::new(
            0,
            4,
            64,
            PolicyKind::GlobalLru,
            CpuParams::default(),
            DiskParams::default(),
            SchedulerKind::Elevator,
            PrefetchKind::Standard { processes: 1 },
            7,
            32,
        );
        assert_eq!(n.disks.len(), 4);
        assert_eq!(n.pool.capacity(), 64);
        assert!(!n.cpu.is_busy());
        assert_eq!(n.disks[0].queue_depth(), 0);
    }

    #[test]
    fn disk_rngs_are_independent() {
        let mut a = Node::new(
            0,
            2,
            4,
            PolicyKind::GlobalLru,
            CpuParams::default(),
            DiskParams::default(),
            SchedulerKind::Elevator,
            PrefetchKind::Off,
            7,
            0,
        );
        let x = a.disks[0].rng.next_u64_raw();
        let y = a.disks[1].rng.next_u64_raw();
        assert_ne!(x, y);
    }
}
