//! End-to-end tests of the campaign service over real Unix-domain
//! sockets: payload byte-identity with the local CLI path, cross-client
//! warm sharing, fairness under a single worker, backpressure at
//! capacity, cancellation, per-job timeouts, graceful drain, the Hello
//! handshake, refusal of unknown config fields, and the protocol contract
//! under random client sessions.

// Deadlines and timings read the clock (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use anacin_core::prelude::*;
use anacin_miniapps::Pattern;
use anacin_mpisim::explore::ExploreConfig;
use anacin_serve::client::{Client, Outcome};
use anacin_serve::frame::{read_frame, write_frame};
use anacin_serve::proto::{Frame, JobSpec, PROTOCOL_SCHEMA};
use anacin_serve::server::{Server, ServerConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long any one test may run before it fails instead of hanging.
const TEST_DEADLINE: Duration = Duration::from_secs(120);

/// Run a test body on its own thread and fail if it has not returned
/// within [`TEST_DEADLINE`]: a lost frame would otherwise block a
/// client read, and the test, forever.
fn within(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let test = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if finished.recv_timeout(TEST_DEADLINE) == Err(RecvTimeoutError::Timeout) {
        panic!("test still running after {TEST_DEADLINE:?}");
    }
    // Returned, or panicked (dropping `done` unsent): report which.
    if let Err(panic) = test.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A scratch directory per test (removed on success; left for
/// inspection on panic).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anacin_serve_test_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn start(tag: &str, cfg_of: impl FnOnce(ServerConfig) -> ServerConfig) -> (PathBuf, ServerHandle) {
    let dir = scratch(tag);
    let cfg = cfg_of(ServerConfig::new(dir.join("store")));
    let handle = Server::bind_unix(dir.join("serve.sock"), cfg)
        .expect("bind unix socket")
        .spawn();
    (dir, handle)
}

fn connect(dir: &Path, peer: &str) -> Client {
    Client::connect_unix(dir.join("serve.sock"), peer).expect("connect")
}

fn done(outcome: Outcome) -> anacin_serve::client::JobResult {
    match outcome {
        Outcome::Done(r) => r,
        other => panic!("expected Done, got {other:?}"),
    }
}

/// The acceptance oracle: a served campaign's payload is byte-identical
/// to the local `anacin run --json` output — cold (first client, empty
/// store) AND warm (second client, artifacts published by the first) —
/// and the warm hits are attributed to cross-client sharing.
#[test]
fn result_payload_matches_local_json_cold_and_warm_across_clients() {
    within(|| {
        let cfg = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
        // What `anacin run --json` prints for this campaign: the pretty
        // report plus println!'s newline.
        let result = run_campaign(&cfg).expect("local campaign");
        let expected = format!(
            "{}\n",
            measurement_json(&cfg, &result.matrix).expect("local json")
        );

        let (dir, handle) = start("identity", |c| c.workers(2));
        let job = JobSpec::Campaign {
            config: cfg.clone(),
        };
        let mut alice = connect(&dir, "alice");
        let cold = done(alice.run(1, job.clone(), |_| {}).expect("cold job"));
        assert_eq!(cold.payload, expected, "cold payload must match local CLI");
        assert_eq!(cold.store_hits, 0, "first run of an empty store is cold");
        assert!(cold.store_puts > 0, "cold run publishes artifacts");

        let mut bob = connect(&dir, "bob");
        let warm = done(bob.run(1, job, |_| {}).expect("warm job"));
        assert_eq!(warm.payload, expected, "warm payload must match local CLI");
        assert!(
            warm.store_hits >= 1,
            "bob's run must be served from alice's artifacts, got {} hits",
            warm.store_hits
        );

        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_completed"), Some(2));
        assert!(
            report.counter("serve/cross_client_hits").unwrap_or(0) >= warm.store_hits,
            "warm hits by a second client count as cross-client sharing"
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// With one worker and round-robin admission, a client submitting a
/// single job is never starved behind another client's burst: bob's
/// one job completes before alice's burst finishes.
#[test]
fn single_job_client_is_not_starved_by_a_burst() {
    within(|| {
        let (dir, handle) = start("fairness", |c| c.workers(1));
        let burst = 4u64;
        let alice_thread = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let mut alice = connect(&dir, "alice");
                for id in 0..burst {
                    // Distinct seeds: every burst job is cold work, long
                    // enough that the burst outlasts bob's connect and submit.
                    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 16)
                        .runs(24)
                        .base_seed(100 + id);
                    alice
                        .submit(id, JobSpec::Campaign { config: cfg })
                        .expect("submit");
                }
                let mut finished = Vec::new();
                for id in 0..burst {
                    done(alice.wait(id, |_| {}).expect("burst job"));
                    finished.push(Instant::now());
                }
                finished
            })
        };
        // Once alice's whole burst is in the queue, submit one job.
        while handle.metrics().counter("serve/jobs_admitted").unwrap_or(0) < burst {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut bob = connect(&dir, "bob");
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 16)
            .runs(6)
            .base_seed(999);
        bob.submit(7, JobSpec::Campaign { config: cfg })
            .expect("submit");
        done(bob.wait(7, |_| {}).expect("bob's job"));
        let bob_done = Instant::now();
        let alice_done = alice_thread.join().expect("alice thread");
        assert!(
            bob_done < *alice_done.last().expect("burst completions"),
            "round-robin must serve bob before alice's burst drains"
        );
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// At queue capacity the server refuses with `Busy{retry_after_ms}`
/// instead of buffering without bound. Zero workers pin the queue.
#[test]
fn submits_beyond_capacity_get_busy() {
    within(|| {
        let (dir, handle) = start("backpressure", |c| c.workers(0).queue_capacity(2));
        let mut client = connect(&dir, "greedy");
        let cfg = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
        for id in 1..=2 {
            client
                .submit(
                    id,
                    JobSpec::Campaign {
                        config: cfg.clone(),
                    },
                )
                .expect("submit within capacity");
        }
        match client
            .run(3, JobSpec::Campaign { config: cfg }, |_| {})
            .expect("third submit")
        {
            Outcome::Rejected { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected Busy at capacity, got {other:?}"),
        }
        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_admitted"), Some(2));
        assert_eq!(report.counter("serve/jobs_rejected"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A `Busy` answer is not fatal when the client retries: with the
/// one-slot queue pinned full behind a long job, `run_with_retry`
/// sleeps the server-suggested backoff between attempts and lands the
/// job once capacity frees — and the interim refusals are counted.
#[test]
fn busy_submit_succeeds_after_server_suggested_backoff() {
    within(|| {
        let (dir, handle) = start("retry", |c| c.workers(1).queue_capacity(1));
        let mut alice = connect(&dir, "alice");
        // A long job the single worker picks up…
        let long = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(40);
        alice
            .submit(1, JobSpec::Campaign { config: long })
            .expect("submit long job");
        // …once it has (one queue-wait sample), pin the queue's one slot.
        while handle
            .metrics()
            .span("serve/queue_wait")
            .map_or(0, |s| s.count)
            < 1
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let quick = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
        alice
            .submit(
                2,
                JobSpec::Campaign {
                    config: quick.clone(),
                },
            )
            .expect("submit queued job");
        while handle.metrics().counter("serve/jobs_admitted").unwrap_or(0) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A second client retrying into the full queue eventually lands.
        let mut bob = connect(&dir, "bob");
        let outcome = bob
            .run_with_retry(7, JobSpec::Campaign { config: quick }, 500, |_| {})
            .expect("retrying job");
        done(outcome);
        done(alice.wait(1, |_| {}).expect("long job"));
        done(alice.wait(2, |_| {}).expect("queued job"));
        let report = handle.join();
        assert!(
            report.counter("serve/jobs_rejected").unwrap_or(0) >= 1,
            "the full queue must have refused at least one attempt"
        );
        assert_eq!(report.counter("serve/jobs_completed"), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// An `Append` job's payload is byte-identical to the equivalent
/// `Campaign` job (and the local CLI) whether the store holds a prefix
/// to grow or not — append is a schedule, never a different answer.
#[test]
fn append_job_payload_matches_campaign_job() {
    within(|| {
        let base = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
        let grown = base.clone().runs(7);
        let expected = {
            let result = run_campaign(&grown).expect("local campaign");
            format!(
                "{}\n",
                measurement_json(&grown, &result.matrix).expect("local json")
            )
        };

        let (dir, handle) = start("append", |c| c.workers(1));
        let mut client = connect(&dir, "appender");
        // Cold append — no stored prefix — falls back to the full
        // incremental path and still answers the CLI-identical payload.
        let cold = done(
            client
                .run(
                    1,
                    JobSpec::Append {
                        config: base.clone(),
                    },
                    |_| {},
                )
                .expect("cold append"),
        );
        let local_base = run_campaign(&base).expect("local base campaign");
        assert_eq!(
            cold.payload,
            format!(
                "{}\n",
                measurement_json(&base, &local_base.matrix).expect("local base json")
            ),
            "cold append payload must match the local CLI"
        );
        // Warm append — grow the stored 6-run campaign by one run.
        let warm = done(
            client
                .run(2, JobSpec::Append { config: grown }, |_| {})
                .expect("warm append"),
        );
        assert_eq!(
            warm.payload, expected,
            "appended payload must match a cold recompute byte-for-byte"
        );
        assert!(warm.store_hits > 0, "append must reuse the stored prefix");
        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_completed"), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// An explore job answers exactly what `anacin run --explore --json`
/// prints: the local `explore_json` output plus println!'s newline.
#[test]
fn explore_job_payload_matches_local_json() {
    within(|| {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 5).runs(20);
        let xcfg = ExploreConfig::with_budget(64);
        let sampled = run_campaign(&cfg).expect("local campaign");
        let explored = explore_campaign(&cfg, &sampled.program, &xcfg, &RunCtx::default())
            .expect("local exploration");
        let json = explore_json(&cfg, &sampled, &xcfg, &explored).expect("local json");

        let (dir, handle) = start("explore", |c| c.workers(1));
        let job = JobSpec::Explore {
            config: cfg,
            budget: 64,
            brute_force: false,
        };
        let mut client = connect(&dir, "explorer");
        let got = done(client.run(1, job, |_| {}).expect("explore job"));
        assert_eq!(
            got.payload,
            format!("{json}\n"),
            "explore payload must match the local CLI"
        );
        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_completed"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Cancelling a job — queued or already running — answers an Error
/// frame naming the cancellation; the worker pool survives.
#[test]
fn cancel_stops_a_job_with_an_error_frame() {
    within(|| {
        let (dir, handle) = start("cancel", |c| c.workers(1));
        let mut client = connect(&dir, "impatient");
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(40);
        client
            .submit(5, JobSpec::Campaign { config: cfg })
            .expect("submit");
        client.cancel(5).expect("cancel");
        match client.wait(5, |_| {}).expect("terminal frame") {
            Outcome::Failed { message } => {
                assert!(
                    message.contains("cancel"),
                    "expected a cancellation message, got '{message}'"
                );
            }
            other => panic!("expected Failed after cancel, got {other:?}"),
        }
        // The worker is free again: a fresh job still completes.
        let quick = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
        done(
            client
                .run(6, JobSpec::Campaign { config: quick }, |_| {})
                .expect("post-cancel job"),
        );
        let report = handle.join();
        assert!(report.counter("serve/jobs_cancelled").unwrap_or(0) >= 1);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A per-job timeout cancels cooperatively and reports it.
#[test]
fn job_timeout_cancels_with_a_timeout_error() {
    within(|| {
        let (dir, handle) = start("timeout", |c| {
            c.workers(1).job_timeout(Duration::from_millis(1))
        });
        let mut client = connect(&dir, "slow");
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(60);
        match client
            .run(1, JobSpec::Campaign { config: cfg }, |_| {})
            .expect("terminal frame")
        {
            Outcome::Failed { message } => assert!(
                message.contains("timed out"),
                "expected a timeout message, got '{message}'"
            ),
            other => panic!("expected Failed on timeout, got {other:?}"),
        }
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Draining refuses new submits but still delivers the result of a job
/// that was already admitted — no in-flight work is lost.
#[test]
fn drain_delivers_admitted_jobs_and_refuses_new_ones() {
    within(|| {
        let (dir, handle) = start("drain", |c| c.workers(1));
        let mut client = connect(&dir, "drained");
        let cfg = CampaignConfig::new(Pattern::Amg2013, 16).runs(6);
        client
            .submit(
                1,
                JobSpec::Campaign {
                    config: cfg.clone(),
                },
            )
            .expect("submit before drain");
        // Drain only once the job is actually admitted (the Submit frame is
        // processed by a reader thread, racing a bare drain call).
        while handle.metrics().counter("serve/jobs_admitted").unwrap_or(0) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.drain();
        // Admitted before the drain: its result must still arrive.
        let result = done(client.wait(1, |_| {}).expect("drained job"));
        assert!(!result.payload.is_empty());
        // Submitted after the drain: refused, not queued.
        match client
            .run(2, JobSpec::Campaign { config: cfg }, |_| {})
            .expect("post-drain submit")
        {
            Outcome::Rejected { .. } => {}
            other => panic!("expected Busy while draining, got {other:?}"),
        }
        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_completed"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The accept thread blocks on the listener; a drain wakes it by
/// connecting to the socket, so an idle daemon joins at once and leaves
/// no socket file behind.
#[test]
fn idle_unix_daemon_joins() {
    within(|| {
        let (dir, handle) = start("idle-unix", |c| c.workers(1));
        handle.join();
        assert!(!dir.join("serve.sock").exists(), "socket file left behind");
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Over TCP the drain's wake-up connects to the listener's bound address.
#[test]
fn idle_tcp_daemon_joins() {
    within(|| {
        let dir = scratch("idle-tcp");
        let handle = Server::bind_tcp(
            "127.0.0.1:0",
            ServerConfig::new(dir.join("store")).workers(1),
        )
        .expect("bind tcp")
        .spawn();
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// With its socket file removed nobody can reach the listener, the drain
/// included; `join` leaves the unreachable accept thread and returns.
#[test]
fn daemon_whose_socket_file_was_removed_still_joins() {
    within(|| {
        let (dir, handle) = start("unlinked", |c| c.workers(1));
        std::fs::remove_file(dir.join("serve.sock")).expect("remove socket file");
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A long cold job streams Progress frames while it runs, with a
/// stable total and monotone done counts.
#[test]
fn progress_frames_stream_while_a_job_runs() {
    within(|| {
        let (dir, handle) = start("progress", |c| {
            c.workers(1).progress_interval(Duration::from_millis(5))
        });
        let mut client = connect(&dir, "watcher");
        let runs = 24u32;
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 32).runs(runs);
        let mut seen = 0u32;
        let mut last_done = 0u64;
        let result = client
            .run(1, JobSpec::Campaign { config: cfg }, |frame| {
                if let Frame::Progress {
                    done_runs,
                    total_runs,
                    ..
                } = frame
                {
                    seen += 1;
                    assert_eq!(*total_runs, runs as u64);
                    assert!(*done_runs >= last_done, "done count must not go backwards");
                    last_done = *done_runs;
                }
            })
            .expect("job");
        done(result);
        assert!(seen >= 1, "a multi-run cold job must stream progress");
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The first frame must be Hello, and the server answers with the
/// minimum schema both sides speak.
#[test]
fn hello_negotiates_the_minimum_schema() {
    within(|| {
        let (dir, handle) = start("hello", |c| c.workers(0));
        // A future client speaking schema 99 still converses at ours.
        let mut stream =
            std::os::unix::net::UnixStream::connect(dir.join("serve.sock")).expect("connect");
        write_frame(
            &mut stream,
            &Frame::Hello {
                schema: 99,
                peer: "from-the-future".into(),
            },
        )
        .expect("send hello");
        match read_frame(&mut stream).expect("read hello") {
            Some(Frame::Hello { schema, .. }) => assert_eq!(schema, PROTOCOL_SCHEMA),
            other => panic!("expected Hello, got {other:?}"),
        }
        drop(stream);
        // Skipping Hello is a protocol error answered before disconnect.
        let mut rude =
            std::os::unix::net::UnixStream::connect(dir.join("serve.sock")).expect("connect");
        write_frame(&mut rude, &Frame::Cancel { id: 1 }).expect("send non-hello");
        match read_frame(&mut rude).expect("read error") {
            Some(Frame::Error { id, message }) => {
                assert_eq!(id, 0);
                assert!(message.contains("Hello"), "got '{message}'");
            }
            other => panic!("expected Error for missing Hello, got {other:?}"),
        }
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A Submit whose config carries a field `CampaignConfig` lacks (here
/// `approx`, which older clients still send) is a protocol error, never
/// a job run without that field.
#[test]
fn submit_with_an_unknown_config_field_is_refused() {
    within(|| {
        use std::io::Write;
        let (dir, handle) = start("unknown-field", |c| c.workers(1));
        let mut stream = UnixStream::connect(dir.join("serve.sock")).expect("connect");
        let hello = Frame::Hello {
            schema: PROTOCOL_SCHEMA,
            peer: "old-client".into(),
        };
        write_frame(&mut stream, &hello).expect("send hello");
        match read_frame(&mut stream).expect("read hello") {
            Some(Frame::Hello { .. }) => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        let submit = Frame::Submit {
            id: 1,
            job: JobSpec::Campaign {
                config: CampaignConfig::new(Pattern::MessageRace, 4).runs(3),
            },
        };
        let json = serde_json::to_string(&submit).expect("encode").replacen(
            "\"config\":{",
            "\"config\":{\"approx\":\"exact\",",
            1,
        );
        assert!(json.contains("\"approx\""), "{json}");
        stream
            .write_all(&(json.len() as u32).to_be_bytes())
            .expect("send header");
        stream.write_all(json.as_bytes()).expect("send payload");
        match read_frame(&mut stream).expect("read error") {
            Some(Frame::Error { message, .. }) => {
                assert!(message.starts_with("protocol error:"), "{message}");
                assert!(message.contains("approx"), "{message}");
            }
            other => panic!("expected Error for the unknown field, got {other:?}"),
        }
        drop(stream);
        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_admitted").unwrap_or(0), 0);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The service also listens on TCP (`--listen`): the same handshake
/// and job path work over an ephemeral localhost port.
#[test]
fn tcp_transport_serves_jobs_too() {
    within(|| {
        let dir = scratch("tcp");
        let handle = Server::bind_tcp(
            "127.0.0.1:0",
            ServerConfig::new(dir.join("store")).workers(1),
        )
        .expect("bind tcp")
        .spawn();
        let addr = handle.local_addr().expect("tcp address");
        let mut client = Client::connect_tcp(&addr.to_string(), "tcp-client").expect("connect");
        let cfg = CampaignConfig::new(Pattern::MessageRace, 4).runs(2);
        let result = done(
            client
                .run(1, JobSpec::Campaign { config: cfg }, |_| {})
                .expect("tcp job"),
        );
        assert!(!result.payload.is_empty());
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Waiting on a later job first keeps an earlier job's terminal frame:
/// `wait(2)` reads job 1's `Result` on the way and `wait(1)` then
/// returns it instead of blocking forever.
#[test]
fn waits_in_either_order_keep_other_jobs_terminal_frames() {
    within(|| {
        let (dir, handle) = start("wait_order", |c| c.workers(1));
        let mut client = connect(&dir, "out-of-order");
        for id in 1..=2 {
            let cfg = CampaignConfig::new(Pattern::MessageRace, 4)
                .runs(2)
                .base_seed(id);
            client
                .submit(id, JobSpec::Campaign { config: cfg })
                .expect("submit");
        }
        done(client.wait(2, |_| {}).expect("second job"));
        done(client.wait(1, |_| {}).expect("first job"));
        let report = handle.join();
        assert_eq!(report.counter("serve/jobs_completed"), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// One raw connection of the contract test: the test thread writes
/// frames, a reader thread forwards every frame the daemon sends.
struct Session {
    stream: UnixStream,
    frames: Receiver<Frame>,
    reader: std::thread::JoinHandle<()>,
    /// Every frame received so far, in arrival order.
    seen: Vec<Frame>,
    /// Ids submitted on this connection, in order.
    submitted: Vec<u64>,
    /// False once the test has hung up.
    live: bool,
}

impl Session {
    fn open(socket: &Path) -> Session {
        let mut stream = UnixStream::connect(socket).expect("connect");
        let hello = Frame::Hello {
            schema: PROTOCOL_SCHEMA,
            peer: "contract".into(),
        };
        write_frame(&mut stream, &hello).expect("send hello");
        match read_frame(&mut stream).expect("read hello") {
            Some(Frame::Hello { .. }) => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        let (tx, frames) = mpsc::channel();
        let mut incoming = stream.try_clone().expect("clone stream");
        let reader = std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut incoming) {
                let _ = tx.send(frame);
            }
        });
        Session {
            stream,
            frames,
            reader,
            seen: Vec::new(),
            submitted: Vec::new(),
            live: true,
        }
    }

    fn send(&mut self, frame: &Frame) {
        write_frame(&mut self.stream, frame).expect("send frame");
    }

    fn terminated(&self, id: u64) -> bool {
        self.seen.iter().any(|f| terminal_id(f) == Some(id))
    }

    /// Read frames until every submitted id has its terminal frame.
    fn await_all(&mut self, seed: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while let Some(&id) = self.submitted.iter().find(|&&id| !self.terminated(id)) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.frames.recv_timeout(left) {
                Ok(frame) => self.seen.push(frame),
                Err(e) => panic!("seed {seed}: job {id} got no terminal frame ({e:?})"),
            }
        }
    }

    /// Hang up and collect whatever arrived before the daemon saw it.
    fn close(mut self) -> (Vec<u64>, Vec<Frame>) {
        self.stream.shutdown(Shutdown::Both).ok();
        self.reader.join().expect("reader thread");
        self.seen.extend(self.frames.try_iter());
        (self.submitted, self.seen)
    }
}

/// The id a frame ends, if it is terminal. `"no such job"` answers a
/// `Cancel`, not a job, so it ends nothing.
fn terminal_id(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Result { id, .. } | Frame::Busy { id, .. } => Some(*id),
        Frame::Error { id, message } if message != "no such job" => Some(*id),
        _ => None,
    }
}

/// Check one connection's frames in arrival order: each submitted id
/// gets at most one terminal frame (exactly one when `complete`), no
/// `Progress` after it, and `"no such job"` only after it — so a cancel
/// never falls between queued and running. Returns the terminal frames.
fn check_session<'a>(
    seed: u64,
    submitted: &[u64],
    frames: &'a [Frame],
    complete: bool,
) -> Vec<&'a Frame> {
    let mut ended: HashMap<u64, &Frame> = HashMap::new();
    for frame in frames {
        let id = frame.job_id().unwrap_or(0);
        assert!(
            submitted.contains(&id),
            "seed {seed}: frame for unknown id: {frame:?}"
        );
        if let Some(first) = ended.get(&id) {
            assert!(
                matches!(frame, Frame::Error { message, .. } if message == "no such job"),
                "seed {seed}: {frame:?} after job {id}'s terminal {first:?}"
            );
        } else if terminal_id(frame).is_some() {
            ended.insert(id, frame);
        } else {
            assert!(
                matches!(frame, Frame::Progress { .. }),
                "seed {seed}: {frame:?} before job {id}'s terminal frame"
            );
        }
    }
    if complete {
        for id in submitted {
            assert!(ended.contains_key(id), "seed {seed}: job {id} never ended");
        }
    }
    ended.into_values().collect()
}

/// The protocol contract under random sessions: a one-worker daemon
/// with a two-job queue, driven by 2–3 clients through seeded random
/// sequences of submit, cancel, disconnect and drain. Every admitted
/// job gets exactly one terminal frame, never `"no such job"` in its
/// place; every refused job exactly one `Busy`; and once the daemon is
/// joined, every admitted job is counted completed, failed or cancelled.
#[test]
fn random_sessions_keep_the_protocol_contract() {
    within(|| {
        let dir = scratch("contract");
        let (mut busy, mut cancelled) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let socket = dir.join(format!("{seed}.sock"));
            let cfg = ServerConfig::new(dir.join("store"))
                .workers(1)
                .queue_capacity(2);
            let handle = Server::bind_unix(&socket, cfg).expect("bind").spawn();
            let mut sessions: Vec<Session> = (0..rng.gen_range(2..=3))
                .map(|_| Session::open(&socket))
                .collect();
            let mut next_id = 1u64;
            let mut drained = false;
            for _ in 0..rng.gen_range(6..=16) {
                let live: Vec<usize> = (0..sessions.len()).filter(|&i| sessions[i].live).collect();
                if live.is_empty() {
                    break;
                }
                let s = live[rng.gen_range(0..live.len())];
                match rng.gen_range(0..100) {
                    0..=54 => {
                        // Tiny message-race campaigns, a few seeds so
                        // jobs are a mix of cold and warm.
                        let config = CampaignConfig::new(Pattern::MessageRace, 4)
                            .runs(rng.gen_range(2..=4))
                            .base_seed(rng.gen_range(0..4));
                        sessions[s].send(&Frame::Submit {
                            id: next_id,
                            job: JobSpec::Campaign { config },
                        });
                        sessions[s].submitted.push(next_id);
                        next_id += 1;
                    }
                    55..=79 => {
                        let ids = &sessions[s].submitted;
                        if !ids.is_empty() {
                            let id = ids[rng.gen_range(0..ids.len())];
                            sessions[s].send(&Frame::Cancel { id });
                        }
                    }
                    80..=89 => {
                        // Hang up mid-session; a fresh client takes
                        // the slot while the daemon still accepts.
                        sessions[s].stream.shutdown(Shutdown::Both).ok();
                        sessions[s].live = false;
                        if !drained {
                            sessions.push(Session::open(&socket));
                        }
                    }
                    90..=92 if !drained => {
                        handle.drain();
                        drained = true;
                    }
                    _ => std::thread::sleep(Duration::from_micros(rng.gen_range(0..2000))),
                }
            }
            for session in sessions.iter_mut().filter(|s| s.live) {
                session.await_all(seed);
            }
            let closed: Vec<_> = sessions.into_iter().map(|s| (s.live, s.close())).collect();
            let ends: Vec<&Frame> = closed
                .iter()
                .flat_map(|(live, (submitted, frames))| {
                    check_session(seed, submitted, frames, *live)
                })
                .collect();
            let refused = ends
                .iter()
                .filter(|f| matches!(f, Frame::Busy { .. }))
                .count();
            busy += refused;
            cancelled += ends
                .iter()
                .filter(|f| matches!(f, Frame::Error { message, .. } if message == "cancelled"))
                .count();
            let report = handle.join();
            let count = |name: &str| report.counter(name).unwrap_or(0) as usize;
            assert_eq!(
                count("serve/jobs_admitted"),
                count("serve/jobs_completed")
                    + count("serve/jobs_failed")
                    + count("serve/jobs_cancelled"),
                "seed {seed}: admitted jobs must all be accounted for: {report:?}"
            );
            assert_eq!(count("serve/jobs_failed"), 0, "seed {seed}");
            assert!(
                count("serve/jobs_admitted") >= ends.len() - refused,
                "seed {seed}"
            );
            assert!(count("serve/jobs_rejected") >= refused, "seed {seed}");
        }
        // The sessions did reach the interesting paths.
        assert!(busy > 0, "no submit was ever refused");
        assert!(cancelled > 0, "no cancel ever reached a live job");
        std::fs::remove_dir_all(&dir).ok();
    });
}
