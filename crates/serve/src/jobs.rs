//! The daemon's job table: every admitted job, from admission to its
//! terminal frame, under one lock.
//!
//! A job is either **queued** — in its client's FIFO, waiting for a
//! worker — or **running** — claimed by a worker, which polls the job's
//! [`CancelToken`]. Every transition ([`Jobs::admit`], [`Jobs::claim`],
//! [`Jobs::cancel`], [`Jobs::disconnect`], [`Jobs::finish`],
//! [`Jobs::close`]) takes the one lock, so until its worker has written
//! the terminal frame an admitted job is always in exactly one of the
//! two states: a `Cancel` can neither fall between them nor be answered
//! twice.
//!
//! Queued jobs are served round-robin across clients and FIFO within
//! one, so a client submitting a burst of 50 jobs cannot starve a client
//! submitting one. At most `capacity` jobs queue in total; beyond that
//! `admit` refuses and the server answers `Busy{retry_after_ms}` —
//! explicit backpressure instead of unbounded buffering.

use crate::proto::JobSpec;
use crate::server::SharedWriter;
use anacin_obs::{CancelToken, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// An admitted job, with everything a worker needs to run and answer it.
pub(crate) struct Job {
    /// The submitting connection.
    pub client: u64,
    /// Client-chosen job id.
    pub id: u64,
    /// What to run.
    pub spec: JobSpec,
    /// When the job was admitted (queue-wait histogram).
    pub enqueued: Instant,
    /// The connection's writer, for `Progress` and the terminal frame.
    pub writer: SharedWriter,
}

/// What [`Jobs::cancel`] found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Cancel {
    /// The job was queued and is gone; the caller answers `"cancelled"`.
    Dequeued,
    /// The job is running; its token fired and its worker answers.
    Signalled,
    /// Never admitted, or its terminal frame is already written.
    Unknown,
}

struct Table {
    /// Queued jobs: one non-empty FIFO per client, in serving order.
    /// Claiming takes the front client's first job and sends the client
    /// to the back if it has more.
    queued: VecDeque<(u64, VecDeque<Job>)>,
    /// Cancel tokens of claimed jobs, keyed (client, job id).
    running: HashMap<(u64, u64), CancelToken>,
    /// Draining: nothing more is admitted.
    closed: bool,
}

impl Table {
    fn turn_of(&self, client: u64) -> Option<usize> {
        self.queued.iter().position(|(c, _)| *c == client)
    }
}

/// See the module docs.
pub(crate) struct Jobs {
    table: Mutex<Table>,
    ready: Condvar,
    capacity: usize,
    /// The daemon registry. Admission and dequeue counters move under
    /// the table lock, so once the workers have exited
    /// `jobs_admitted == jobs_completed + jobs_failed + jobs_cancelled`.
    reg: MetricsRegistry,
}

impl Jobs {
    /// An empty table queueing at most `capacity` jobs.
    pub(crate) fn new(capacity: usize, reg: MetricsRegistry) -> Self {
        Jobs {
            table: Mutex::new(Table {
                queued: VecDeque::new(),
                running: HashMap::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            reg,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("job table poisoned")
    }

    /// Queue `job` behind its client's earlier jobs. `false` — answer
    /// `Busy` — when draining or `capacity` jobs are already queued.
    pub(crate) fn admit(&self, job: Job) -> bool {
        let mut t = self.lock();
        let queued: usize = t.queued.iter().map(|(_, fifo)| fifo.len()).sum();
        if t.closed || queued >= self.capacity {
            self.reg.counter("serve/jobs_rejected").inc();
            return false;
        }
        match t.turn_of(job.client) {
            Some(turn) => t.queued[turn].1.push_back(job),
            None => t.queued.push_back((job.client, VecDeque::from([job]))),
        }
        self.reg.counter("serve/jobs_admitted").inc();
        drop(t);
        self.ready.notify_one();
        true
    }

    /// Block until a job is queued, then move the next one round-robin
    /// to running, registering the token its worker polls. `None` once
    /// the table is closed and nothing is queued — the worker's exit
    /// signal.
    pub(crate) fn claim(&self) -> Option<(Job, CancelToken)> {
        let mut t = self.lock();
        loop {
            if let Some((client, mut fifo)) = t.queued.pop_front() {
                let job = fifo.pop_front().expect("queued FIFOs are never empty");
                if !fifo.is_empty() {
                    t.queued.push_back((client, fifo));
                }
                let cancel = CancelToken::new();
                t.running.insert((job.client, job.id), cancel.clone());
                return Some((job, cancel));
            }
            if t.closed {
                return None;
            }
            t = self.ready.wait(t).expect("job table poisoned");
        }
    }

    /// Stop job `id` of `client`: drop it if queued, fire its token if
    /// running.
    pub(crate) fn cancel(&self, client: u64, id: u64) -> Cancel {
        let mut t = self.lock();
        if let Some(token) = t.running.get(&(client, id)) {
            token.cancel();
            return Cancel::Signalled;
        }
        let Some(turn) = t.turn_of(client) else {
            return Cancel::Unknown;
        };
        let fifo = &mut t.queued[turn].1;
        let Some(pos) = fifo.iter().position(|j| j.id == id) else {
            return Cancel::Unknown;
        };
        fifo.remove(pos);
        if fifo.is_empty() {
            t.queued.remove(turn);
        }
        self.reg.counter("serve/jobs_cancelled").inc();
        Cancel::Dequeued
    }

    /// A client left: drop its queued jobs and fire its running jobs'
    /// tokens — nobody is left to read their results.
    pub(crate) fn disconnect(&self, client: u64) {
        let mut t = self.lock();
        if let Some(turn) = t.turn_of(client) {
            let (_, fifo) = t.queued.remove(turn).expect("turn is in range");
            self.reg
                .counter("serve/jobs_cancelled")
                .add(fifo.len() as u64);
        }
        for ((c, _), token) in &t.running {
            if *c == client {
                token.cancel();
            }
        }
    }

    /// A worker has written the job's terminal frame: forget it. Only
    /// from here on does a `Cancel` for the id find nothing.
    pub(crate) fn finish(&self, client: u64, id: u64) {
        self.lock().running.remove(&(client, id));
    }

    /// Drain: admit nothing more. Workers still claim what is queued;
    /// after that every [`claim`](Self::claim) returns `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Has [`close`](Self::close) been called?
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Stream;
    use anacin_core::prelude::CampaignConfig;
    use anacin_miniapps::Pattern;
    use std::os::unix::net::UnixStream;
    use std::sync::{Arc, Barrier};

    fn job(client: u64, id: u64) -> Job {
        let (end, _peer) = UnixStream::pair().expect("socket pair");
        Job {
            client,
            id,
            spec: JobSpec::Campaign {
                config: CampaignConfig::new(Pattern::MessageRace, 4).runs(2),
            },
            enqueued: Instant::now(),
            writer: Arc::new(Mutex::new(Stream::Unix(end))),
        }
    }

    fn table(capacity: usize) -> (Jobs, MetricsRegistry) {
        let reg = MetricsRegistry::new();
        (Jobs::new(capacity, reg.clone()), reg)
    }

    fn claim_order(jobs: &Jobs, n: usize) -> Vec<(u64, u64)> {
        (0..n)
            .map(|_| {
                let (j, _) = jobs.claim().unwrap();
                (j.client, j.id)
            })
            .collect()
    }

    #[test]
    fn round_robin_across_clients_fifo_within() {
        let (jobs, _) = table(16);
        // Client 1 floods; client 2 then submits one job.
        for id in 0..4 {
            assert!(jobs.admit(job(1, id)));
        }
        assert!(jobs.admit(job(2, 100)));
        // Client 2's single job is served second, not fifth.
        assert_eq!(
            claim_order(&jobs, 5),
            vec![(1, 0), (2, 100), (1, 1), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn three_clients_interleave_fairly() {
        let (jobs, _) = table(16);
        for id in 0..2 {
            for client in 1..=3 {
                assert!(jobs.admit(job(client, id)));
            }
        }
        assert_eq!(
            claim_order(&jobs, 6),
            vec![(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]
        );
    }

    #[test]
    fn capacity_refuses_until_a_claim_frees_a_slot() {
        let (jobs, reg) = table(2);
        assert!(jobs.admit(job(1, 0)));
        assert!(jobs.admit(job(1, 1)));
        assert!(!jobs.admit(job(1, 2)));
        assert!(!jobs.admit(job(2, 0)));
        // Claiming frees capacity again: running jobs do not count.
        jobs.claim().unwrap();
        assert!(jobs.admit(job(2, 0)));
        let report = reg.report();
        assert_eq!(report.counter("serve/jobs_admitted"), Some(3));
        assert_eq!(report.counter("serve/jobs_rejected"), Some(2));
    }

    #[test]
    fn close_drains_then_signals_workers() {
        let (jobs, _) = table(4);
        assert!(jobs.admit(job(1, 0)));
        jobs.close();
        assert!(jobs.is_closed());
        assert!(!jobs.admit(job(1, 1)), "closed tables admit nothing");
        assert_eq!(claim_order(&jobs, 1), vec![(1, 0)]);
        assert!(jobs.claim().is_none(), "closed and drained");
    }

    #[test]
    fn disconnect_removes_only_that_client() {
        let (jobs, reg) = table(8);
        assert!(jobs.admit(job(1, 0)));
        assert!(jobs.admit(job(2, 0)));
        assert!(jobs.admit(job(1, 1)));
        let (_, running) = jobs.claim().unwrap();
        jobs.disconnect(1);
        assert!(running.is_cancelled(), "client 1's running job is stopped");
        assert_eq!(reg.report().counter("serve/jobs_cancelled"), Some(1));
        assert_eq!(claim_order(&jobs, 1), vec![(2, 0)]);
        jobs.close();
        assert!(jobs.claim().is_none(), "client 1's queued job is gone");
    }

    #[test]
    fn cancel_removes_one_queued_job() {
        let (jobs, reg) = table(8);
        assert!(jobs.admit(job(1, 0)));
        assert!(jobs.admit(job(1, 1)));
        assert_eq!(jobs.cancel(1, 0), Cancel::Dequeued);
        assert_eq!(jobs.cancel(1, 0), Cancel::Unknown, "already gone");
        assert_eq!(jobs.cancel(2, 1), Cancel::Unknown, "ids are per client");
        assert_eq!(reg.report().counter("serve/jobs_cancelled"), Some(1));
        assert_eq!(claim_order(&jobs, 1), vec![(1, 1)]);
        jobs.close();
        assert!(jobs.claim().is_none());
    }

    #[test]
    fn blocked_claim_wakes_on_admit() {
        let (jobs, _) = table(4);
        let jobs = Arc::new(jobs);
        let worker = Arc::clone(&jobs);
        let h = std::thread::spawn(move || worker.claim().map(|(j, _)| j.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(jobs.admit(job(1, 7)));
        assert_eq!(h.join().unwrap(), Some(7));
    }

    /// A claimed job is running until `finish`: a cancel racing a claim
    /// finds the job queued or running, never unknown.
    #[test]
    fn cancel_after_claim_finds_the_job_running() {
        let (jobs, _) = table(4);
        assert!(jobs.admit(job(1, 0)));
        let (_, token) = jobs.claim().unwrap();
        assert_eq!(jobs.cancel(1, 0), Cancel::Signalled);
        assert!(token.is_cancelled());
        jobs.finish(1, 0);
        assert_eq!(jobs.cancel(1, 0), Cancel::Unknown);

        for id in 0..500 {
            let (jobs, _) = table(4);
            let jobs = Arc::new(jobs);
            assert!(jobs.admit(job(1, id)));
            let start = Arc::new(Barrier::new(2));
            let (worker, go) = (Arc::clone(&jobs), Arc::clone(&start));
            let h = std::thread::spawn(move || {
                go.wait();
                worker.claim().map(|(_, token)| token)
            });
            start.wait();
            match jobs.cancel(1, id) {
                Cancel::Signalled => {
                    let token = h.join().unwrap().expect("the job was claimed");
                    assert!(token.is_cancelled());
                }
                Cancel::Dequeued => {
                    jobs.close();
                    assert!(h.join().unwrap().is_none(), "nothing left to claim");
                }
                Cancel::Unknown => panic!("cancel fell between queued and running"),
            }
        }
    }
}
