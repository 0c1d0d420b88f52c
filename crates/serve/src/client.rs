//! A small synchronous client for the campaign service, used by
//! `anacin client`, the benchmark, and the integration tests.
//!
//! One [`Client`] is one connection: connect, exchange `Hello`s, then
//! submit jobs and read frames. The blocking read loop is fine here —
//! a client waiting on a job has nothing better to do — and keeps the
//! client dependency-free.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{Frame, JobSpec, PROTOCOL_SCHEMA};
use crate::server::Stream;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or a frame was malformed.
    Frame(FrameError),
    /// Connecting failed.
    Io(io::Error),
    /// The peer violated the protocol (no Hello, early close, …).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A finished job's `Result` frame, unpacked.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Output byte-identical to the equivalent local CLI invocation.
    pub payload: String,
    /// Server-side execution time (queue wait excluded).
    pub elapsed_ms: u64,
    /// Artifacts read from the shared store.
    pub store_hits: u64,
    /// Artifacts looked up but computed.
    pub store_misses: u64,
    /// Artifacts published.
    pub store_puts: u64,
}

/// How a submitted job ended.
#[derive(Debug)]
pub enum Outcome {
    /// The job ran to completion.
    Done(JobResult),
    /// Admission was refused (queue full or server draining).
    Rejected {
        /// Server-suggested backoff.
        retry_after_ms: u64,
    },
    /// The job failed or was cancelled; `message` says why.
    Failed {
        /// Human-readable cause from the server.
        message: String,
    },
}

/// One connection to a campaign daemon.
pub struct Client {
    reader: Stream,
    writer: Stream,
    /// Terminal outcomes read while waiting on another job id.
    finished: HashMap<u64, Outcome>,
}

impl Client {
    /// Connect over a Unix-domain socket and exchange `Hello`s. `peer`
    /// names this client in server logs.
    pub fn connect_unix(path: impl AsRef<Path>, peer: &str) -> Result<Client, ClientError> {
        Self::handshake(Stream::connect_unix(path.as_ref())?, peer)
    }

    /// Connect over TCP (`host:port`) and exchange `Hello`s.
    pub fn connect_tcp(addr: &str, peer: &str) -> Result<Client, ClientError> {
        Self::handshake(Stream::connect_tcp(addr)?, peer)
    }

    fn handshake(stream: Stream, peer: &str) -> Result<Client, ClientError> {
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: stream,
            writer,
            finished: HashMap::new(),
        };
        client.send(&Frame::Hello {
            schema: PROTOCOL_SCHEMA,
            peer: peer.to_string(),
        })?;
        match client.recv()? {
            Some(Frame::Hello { .. }) => Ok(client),
            Some(Frame::Error { message, .. }) => Err(ClientError::Protocol(message)),
            other => Err(ClientError::Protocol(format!(
                "expected Hello from server, got {other:?}"
            ))),
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame)?;
        Ok(())
    }

    /// Submit a job under a client-chosen id (unique per connection).
    pub fn submit(&mut self, id: u64, job: JobSpec) -> Result<(), ClientError> {
        self.send(&Frame::Submit { id, job })
    }

    /// Ask the server to stop a queued or running job.
    pub fn cancel(&mut self, id: u64) -> Result<(), ClientError> {
        self.send(&Frame::Cancel { id })
    }

    /// Read the next frame from the server (blocking). `None` means
    /// the server closed the connection.
    pub fn recv(&mut self) -> Result<Option<Frame>, ClientError> {
        Ok(read_frame(&mut self.reader)?)
    }

    /// Submit `job` and block until its terminal frame, invoking
    /// `on_progress` for each `Progress` frame on the way.
    pub fn run(
        &mut self,
        id: u64,
        job: JobSpec,
        on_progress: impl FnMut(&Frame),
    ) -> Result<Outcome, ClientError> {
        self.submit(id, job)?;
        self.wait(id, on_progress)
    }

    /// Submit `job` and block until a terminal frame, retrying refused
    /// admissions up to `retries` times. Each `Busy` answer is followed
    /// by a sleep of the server-suggested `retry_after_ms` before the
    /// job is resubmitted under a fresh id (`id`, `id + 1`, …), so the
    /// backoff is always the server's current suggestion, not a guess.
    /// When every attempt is refused the final `Rejected` outcome is
    /// returned so callers can report how long the server asked for.
    pub fn run_with_retry(
        &mut self,
        id: u64,
        job: JobSpec,
        retries: u32,
        mut on_progress: impl FnMut(&Frame),
    ) -> Result<Outcome, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.run(id + attempt as u64, job.clone(), &mut on_progress)?;
            match outcome {
                Outcome::Rejected { retry_after_ms } if attempt < retries => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms));
                }
                other => return Ok(other),
            }
        }
    }

    /// Block until job `id` reaches a terminal frame (`Result`,
    /// `Error`, or `Busy`). Terminal frames for other job ids are kept
    /// for their own `wait`, so callers can interleave jobs and wait for
    /// each in any order; other jobs' `Progress` frames are dropped.
    pub fn wait(
        &mut self,
        id: u64,
        mut on_progress: impl FnMut(&Frame),
    ) -> Result<Outcome, ClientError> {
        if let Some(outcome) = self.finished.remove(&id) {
            return Ok(outcome);
        }
        loop {
            let frame = match self.recv()? {
                Some(f) => f,
                None => {
                    return Err(ClientError::Protocol(
                        "server closed the connection before the job finished".into(),
                    ))
                }
            };
            let (fid, outcome) = match frame {
                Frame::Progress { id: fid, .. } => {
                    if fid == id {
                        on_progress(&frame);
                    }
                    continue;
                }
                Frame::Result {
                    id: fid,
                    payload,
                    elapsed_ms,
                    store_hits,
                    store_misses,
                    store_puts,
                } => (
                    fid,
                    Outcome::Done(JobResult {
                        payload,
                        elapsed_ms,
                        store_hits,
                        store_misses,
                        store_puts,
                    }),
                ),
                // Id 0 is a connection-level error: it ends every wait.
                Frame::Error { id: fid, message } => {
                    (if fid == 0 { id } else { fid }, Outcome::Failed { message })
                }
                Frame::Busy {
                    id: fid,
                    retry_after_ms,
                } => (fid, Outcome::Rejected { retry_after_ms }),
                _ => continue,
            };
            if fid == id {
                return Ok(outcome);
            }
            self.finished.insert(fid, outcome);
        }
    }
}
