//! # anacin-store
//!
//! A content-addressed, versioned artifact store for pipeline products.
//!
//! The whole anacin pipeline is bit-deterministic given (pattern,
//! configuration, seed, ND fraction): the same inputs always produce the
//! same trace, the same event graph, the same WL features and the same
//! Gram matrix, down to float bit patterns. That determinism is exactly
//! what makes memoization *sound* — a stored artifact keyed by its
//! semantic inputs can substitute for recomputation with zero behavioural
//! difference (cf. Aviram et al., deterministic execution as a foundation
//! for reuse; Hunold & Carpen-Amarie on versioned, verifiable experiment
//! artifacts for reproducible MPI benchmarking).
//!
//! Three layers:
//!
//! * [`Fingerprint`] / [`FingerprintHasher`] — stable 128-bit keys over
//!   canonical key material. The hash is frozen (fingerprints are file
//!   names); key evolution happens through the callers' key-schema
//!   version, never by editing the hash.
//! * [`Artifact`] + the wire module — compact, bit-deterministic binary
//!   codecs that domain crates implement for their own types.
//! * [`ArtifactStore`] — the sharded on-disk store: atomic publish
//!   (temp file + rename) made durable by one filesystem barrier per
//!   campaign ([`ArtifactStore::sync`]), checksum footers, schema-version
//!   invalidation, byte-budget GC, and activity counters that mirror
//!   into `crates/obs`. A killed process leaves whole artifacts or none;
//!   a power loss mid-campaign can leave empty or torn files, which read
//!   as misses or corrupt and are recomputed by the next campaign that
//!   needs them.
//!
//! ```
//! use anacin_store::{ArtifactStore, DistanceSample, Fingerprint};
//!
//! let root = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&root).unwrap();
//! let fp = Fingerprint::of(b"campaign-level key material");
//! store.put(fp, &DistanceSample(vec![0.25, 0.5])).unwrap();
//! let back: DistanceSample = store.get(fp).unwrap().unwrap();
//! assert_eq!(back.0, vec![0.25, 0.5]);
//! # let _ = std::fs::remove_dir_all(&root);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod fingerprint;
pub mod store;
pub mod wire;

pub use artifact::{Artifact, ArtifactKind, DistanceSample};
pub use fingerprint::{Fingerprint, FingerprintHasher};
pub use store::{
    ActivitySnapshot, ArtifactStore, GcReport, StoreError, StoreStats, VerifyReport,
    FORMAT_VERSION, FRAME_OVERHEAD, MAGIC, STORE_SCHEMA_VERSION,
};
pub use wire::{ByteReader, ByteWriter, WireError};
