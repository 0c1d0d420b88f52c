//! Property tests of the tracer's delivery contract.
//!
//! Whatever mix of single records and batches one to four threads record,
//! the sink receives every record exactly once, each thread's records in
//! the order that thread recorded them, and `finish()` returns the total.
//! A full channel makes recording threads wait; it never drops a record.

// Deadlines and timings read the clock (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use anacin_obs::tracer::{SimEvent, SimEventKind, TraceRecord, Tracer, CHANNEL_BATCHES};
use anacin_obs::TraceSink;
use proptest::prelude::*;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A record tagged with its recording thread (`run`) and that thread's
/// sequence number (`idx`), so arrivals can be checked for identity and
/// per-thread order.
fn seq_record(thread: u32, seq: u32) -> TraceRecord {
    TraceRecord::Sim(SimEvent {
        run: thread,
        seed: 1,
        rank: seq % 7,
        idx: seq,
        kind: SimEventKind::Init,
        t_ns: seq as u64,
    })
}

/// A sink logging each record's `(thread, seq)` in arrival order.
#[derive(Clone, Default)]
struct Arrivals(Arc<Mutex<Vec<(u32, u32)>>>);

impl Arrivals {
    fn seqs_of(&self, thread: u32) -> Vec<u32> {
        let log = self.0.lock().unwrap();
        log.iter()
            .filter(|(t, _)| *t == thread)
            .map(|&(_, s)| s)
            .collect()
    }

    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

impl TraceSink for Arrivals {
    fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
        if let TraceRecord::Sim(e) = record {
            self.0.lock().unwrap().push((e.run, e.idx));
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Record `bursts` from one thread: a burst of 0 is one single record, a
/// burst of n > 0 one batch of n records. Returns how many were recorded.
fn record_bursts(tracer: &Tracer, thread: u32, bursts: &[usize]) -> u32 {
    let mut next = 0u32;
    for &n in bursts {
        if n == 0 {
            tracer.record(seq_record(thread, next));
            next += 1;
        } else {
            let end = next + n as u32;
            tracer.record_batch((next..end).map(|s| seq_record(thread, s)).collect());
            next = end;
        }
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One recording thread: the sink receives exactly the recorded
    /// sequence, and `finish()` counts it.
    #[test]
    fn lossless_ring_drains_every_record_in_order(bursts in prop::collection::vec(0usize..40, 1..24)) {
        let arrivals = Arrivals::default();
        let tracer = Tracer::new(arrivals.clone());
        let total = record_bursts(&tracer, 0, &bursts);
        prop_assert_eq!(tracer.finish().unwrap(), total as u64);
        prop_assert_eq!(arrivals.seqs_of(0), (0..total).collect::<Vec<_>>());
    }

    /// One to four threads recording at once: every record arrives
    /// exactly once, each thread's in its own order.
    #[test]
    fn every_record_arrives_once_in_per_thread_order(
        threads in prop::collection::vec(prop::collection::vec(0usize..40, 0..16), 1..5)
    ) {
        let arrivals = Arrivals::default();
        let tracer = Tracer::new(arrivals.clone());
        let counts: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = threads
                .iter()
                .enumerate()
                .map(|(th, bursts)| {
                    let tracer = tracer.clone();
                    s.spawn(move || record_bursts(&tracer, th as u32, bursts))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = counts.iter().map(|&n| n as u64).sum();
        prop_assert_eq!(tracer.finish().unwrap(), total);
        prop_assert_eq!(arrivals.len() as u64, total);
        for (th, &n) in counts.iter().enumerate() {
            prop_assert_eq!(arrivals.seqs_of(th as u32), (0..n).collect::<Vec<_>>(), "thread {}", th);
        }
    }
}

/// While the sink is stuck, a recording thread gets exactly the
/// channel's batches plus the one the writer holds past `record`, then
/// waits there; once the sink moves again every record arrives.
#[test]
fn full_channel_makes_recorders_wait_instead_of_dropping() {
    struct Gated(Arc<Mutex<()>>, Arrivals);
    impl TraceSink for Gated {
        fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
            drop(self.0.lock().unwrap());
            self.1.accept(record)
        }
        fn finish(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let gate = Arc::new(Mutex::new(()));
    let arrivals = Arrivals::default();
    let tracer = Tracer::new(Gated(Arc::clone(&gate), arrivals.clone()));
    let total = CHANNEL_BATCHES + 8;
    let sent = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let closed = gate.lock().unwrap();
        s.spawn(|| {
            for seq in 0..total as u32 {
                tracer.record(seq_record(0, seq));
                sent.fetch_add(1, Ordering::SeqCst);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while sent.load(Ordering::SeqCst) < CHANNEL_BATCHES + 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        // Give a recorder that wrongly kept going time to show it.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sent.load(Ordering::SeqCst), CHANNEL_BATCHES + 1);
        drop(closed);
    });
    assert_eq!(tracer.finish().unwrap(), total as u64);
    assert_eq!(arrivals.seqs_of(0), (0..total as u32).collect::<Vec<_>>());
}
