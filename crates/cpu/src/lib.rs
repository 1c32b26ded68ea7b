//! Node CPU model (Table 1 of the SPIFFI paper).
//!
//! Each server node has one CPU: **40 MIPS, FCFS scheduling**, with fixed
//! instruction costs per operation — 20 000 instructions to start an I/O
//! (0.5 ms, "measured on an Intel Paragon. Although it is high, the video
//! server is still completely I/O bound"), 6 800 to send a message
//! (0.17 ms) and 2 200 to receive one (0.055 ms).
//!
//! [`Cpu`] is a single-server FCFS queue of jobs carrying an opaque payload
//! `T` (the continuation the server loop runs when the job completes). Each
//! job is one [`CpuOp`], whose execution time the CPU works out once, when
//! it is built. The caller owns the event calendar: [`Cpu::submit`] returns
//! the completion delay when the CPU was idle, and [`Cpu::finish`] returns
//! the finished payload plus the next job's delay, if any. Figure 17's CPU utilization
//! falls out of the built-in busy-time accounting.

#![warn(missing_docs)]

use std::collections::VecDeque;

use spiffi_simcore::stats::Utilization;
use spiffi_simcore::{SimDuration, SimTime};

/// CPU cost parameters (defaults: Table 1).
#[derive(Clone, Copy, Debug)]
pub struct CpuParams {
    /// Execution rate in millions of instructions per second.
    pub mips: f64,
    /// Instructions to start a disk I/O.
    pub start_io_instr: u64,
    /// Instructions to send a message.
    pub send_msg_instr: u64,
    /// Instructions to receive a message.
    pub recv_msg_instr: u64,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            mips: 40.0,
            start_io_instr: 20_000,
            send_msg_instr: 6_800,
            recv_msg_instr: 2_200,
        }
    }
}

impl CpuParams {
    /// Execution time of `instr` instructions.
    pub fn time_for(&self, instr: u64) -> SimDuration {
        SimDuration::from_secs_f64(instr as f64 / (self.mips * 1e6))
    }

    /// Instructions one `op` executes.
    pub fn instructions(&self, op: CpuOp) -> u64 {
        match op {
            CpuOp::StartIo => self.start_io_instr,
            CpuOp::SendMsg => self.send_msg_instr,
            CpuOp::RecvMsg => self.recv_msg_instr,
        }
    }
}

/// The operations a node CPU executes, each at a fixed instruction cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuOp {
    /// Start a disk I/O.
    StartIo,
    /// Send a message.
    SendMsg,
    /// Receive a message.
    RecvMsg,
}

impl CpuOp {
    const ALL: [CpuOp; 3] = [CpuOp::StartIo, CpuOp::SendMsg, CpuOp::RecvMsg];
}

/// A single FCFS CPU executing jobs with payloads of type `T`.
#[derive(Clone, Debug)]
pub struct Cpu<T> {
    params: CpuParams,
    /// Execution time of each [`CpuOp`], indexed by its discriminant.
    op_time: [SimDuration; 3],
    /// Queued jobs: (operation, payload).
    queue: VecDeque<(CpuOp, T)>,
    /// Payload of the job currently executing, if any.
    running: Option<T>,
    /// When the running job started executing (queueing excluded).
    running_since: Option<SimTime>,
    util: Utilization,
    completed: u64,
}

impl<T> Cpu<T> {
    /// An idle CPU.
    pub fn new(params: CpuParams) -> Self {
        Cpu {
            params,
            op_time: CpuOp::ALL.map(|op| params.time_for(params.instructions(op))),
            queue: VecDeque::new(),
            running: None,
            running_since: None,
            util: Utilization::new(),
            completed: 0,
        }
    }

    /// Cost parameters.
    pub fn params(&self) -> &CpuParams {
        &self.params
    }

    /// Submit a job executing `op` at `now`. If the CPU was idle the job
    /// starts immediately and its completion delay is returned — the
    /// caller must schedule a completion event and then call
    /// [`Cpu::finish`]. If the CPU is busy the job queues and `None` is
    /// returned; it will surface from a later [`Cpu::finish`].
    #[must_use]
    pub fn submit(&mut self, now: SimTime, op: CpuOp, payload: T) -> Option<SimDuration> {
        if self.running.is_none() {
            debug_assert!(self.queue.is_empty(), "idle CPU with queued jobs");
            self.running = Some(payload);
            self.running_since = Some(now);
            self.util.set_busy(now, true);
            Some(self.op_time[op as usize])
        } else {
            self.queue.push_back((op, payload));
            None
        }
    }

    /// The currently running job finished at `now`. Returns its payload
    /// and, if another job was queued, that job's completion delay — the
    /// caller schedules the next completion event.
    pub fn finish(&mut self, now: SimTime) -> (T, Option<SimDuration>) {
        let done = self.running.take().expect("finish called on an idle CPU");
        self.completed += 1;
        match self.queue.pop_front() {
            Some((op, payload)) => {
                self.running = Some(payload);
                self.running_since = Some(now);
                (done, Some(self.op_time[op as usize]))
            }
            None => {
                self.running_since = None;
                self.util.set_busy(now, false);
                (done, None)
            }
        }
    }

    /// True while a job is executing.
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// When the running job started executing, or `None` while idle. Read
    /// *before* [`Cpu::finish`] to get the finishing job's span start.
    pub fn running_since(&self) -> Option<SimTime> {
        self.running_since
    }

    /// Jobs waiting behind the running one.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs completed in the current window.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Busy fraction over the current measurement window.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.util.utilization(now)
    }

    /// Begin a fresh measurement window.
    pub fn reset_window(&mut self, now: SimTime) {
        self.util.reset_window(now);
        self.completed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_costs_match_table_1() {
        let p = CpuParams::default();
        // 20 000 instructions at 40 MIPS = 0.5 ms.
        assert_eq!(p.time_for(p.start_io_instr), SimDuration::from_micros(500));
        assert_eq!(p.time_for(p.send_msg_instr), SimDuration::from_micros(170));
        assert_eq!(p.time_for(p.recv_msg_instr), SimDuration::from_micros(55));
    }

    #[test]
    fn each_op_runs_for_its_instruction_count() {
        let p = CpuParams {
            mips: 33.0,
            ..CpuParams::default()
        };
        for op in CpuOp::ALL {
            let mut cpu = Cpu::new(p);
            let d = cpu.submit(SimTime::ZERO, op, ()).unwrap();
            assert_eq!(d, p.time_for(p.instructions(op)), "{op:?}");
            assert_eq!(cpu.submit(SimTime::ZERO, op, ()), None);
            assert_eq!(cpu.finish(SimTime::ZERO + d).1, Some(d), "{op:?}");
        }
    }

    #[test]
    fn idle_cpu_starts_job_immediately() {
        let mut cpu = Cpu::new(CpuParams::default());
        let d = cpu.submit(SimTime::ZERO, CpuOp::StartIo, "io");
        assert_eq!(d, Some(SimDuration::from_micros(500)));
        assert!(cpu.is_busy());
    }

    #[test]
    fn busy_cpu_queues_fcfs() {
        let mut cpu = Cpu::new(CpuParams::default());
        let d0 = cpu.submit(SimTime::ZERO, CpuOp::StartIo, 0).unwrap();
        assert_eq!(cpu.submit(SimTime::ZERO, CpuOp::SendMsg, 1), None);
        assert_eq!(cpu.submit(SimTime::ZERO, CpuOp::RecvMsg, 2), None);
        assert_eq!(cpu.queue_len(), 2);
        // First completion returns job 0 and starts job 1.
        let t1 = SimTime::ZERO + d0;
        let (done, next) = cpu.finish(t1);
        assert_eq!(done, 0);
        assert_eq!(next, Some(SimDuration::from_micros(170)));
        // Then job 2.
        let t2 = t1 + next.unwrap();
        let (done, next) = cpu.finish(t2);
        assert_eq!(done, 1);
        assert_eq!(next, Some(SimDuration::from_micros(55)));
        let t3 = t2 + next.unwrap();
        let (done, next) = cpu.finish(t3);
        assert_eq!(done, 2);
        assert_eq!(next, None);
        assert!(!cpu.is_busy());
        assert_eq!(cpu.completed(), 3);
    }

    #[test]
    fn running_since_tracks_execution_start() {
        let mut cpu = Cpu::new(CpuParams::default());
        assert_eq!(cpu.running_since(), None);
        let d0 = cpu.submit(SimTime::ZERO, CpuOp::StartIo, 0).unwrap();
        assert_eq!(cpu.running_since(), Some(SimTime::ZERO));
        assert_eq!(cpu.submit(SimTime::ZERO, CpuOp::SendMsg, 1), None);
        let t1 = SimTime::ZERO + d0;
        cpu.finish(t1);
        // The queued job starts executing at t1, not at submission time.
        assert_eq!(cpu.running_since(), Some(t1));
        let t2 = t1 + SimDuration::from_micros(170);
        cpu.finish(t2);
        assert_eq!(cpu.running_since(), None);
    }

    #[test]
    #[should_panic(expected = "idle CPU")]
    fn finish_on_idle_panics() {
        let mut cpu: Cpu<()> = Cpu::new(CpuParams::default());
        cpu.finish(SimTime::ZERO);
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut cpu = Cpu::new(CpuParams {
            start_io_instr: 40_000_000, // 1 s
            ..CpuParams::default()
        });
        let d = cpu.submit(SimTime::ZERO, CpuOp::StartIo, ()).unwrap();
        assert_eq!(d, SimDuration::from_secs(1));
        let end = SimTime::ZERO + d;
        cpu.finish(end);
        // Busy 1 s out of 2 s.
        let u = cpu.utilization(SimTime::from_secs_f64(2.0));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        cpu.reset_window(SimTime::from_secs_f64(2.0));
        assert_eq!(cpu.utilization(SimTime::from_secs_f64(3.0)), 0.0);
        assert_eq!(cpu.completed(), 0);
    }

    #[test]
    fn utilization_counts_open_job() {
        let mut cpu = Cpu::new(CpuParams {
            send_msg_instr: 80_000_000, // 2 s
            ..CpuParams::default()
        });
        cpu.submit(SimTime::ZERO, CpuOp::SendMsg, ()).unwrap();
        // Half way through, utilization is 100% so far.
        let u = cpu.utilization(SimTime::from_secs_f64(1.0));
        assert!((u - 1.0).abs() < 1e-9);
    }
}
