//! Artifact kinds and the [`Artifact`] codec trait.
//!
//! Each pipeline product the store can hold — trace, event graph, WL
//! feature vector, Gram matrix, kernel-distance sample — is one
//! [`ArtifactKind`]. The kind byte is stamped into the store frame header
//! and doubles as the file extension, so a `get` with the wrong kind (or a
//! key collision across kinds) is detected before any payload decoding.
//!
//! Domain crates implement [`Artifact`] for their own types (the codec
//! lives next to the fields it encodes); `crates/store` itself only ships
//! the trait plus [`DistanceSample`], the one artifact that has no richer
//! owning type.

use crate::wire::{ByteReader, ByteWriter, WireError};

/// What kind of pipeline product an artifact payload holds.
///
/// The discriminant values are part of the on-disk format — never reuse
/// or renumber them; retire a kind by leaving its number unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ArtifactKind {
    /// A per-run execution trace (`mpisim::Trace`).
    Trace = 1,
    /// A per-run event graph (`event_graph::EventGraph`).
    Graph = 2,
    /// Per-run WL feature vector for one kernel configuration.
    Features = 3,
    /// Campaign-level Gram matrix for one kernel configuration.
    Gram = 4,
    /// Campaign-level kernel-distance sample (upper-triangle distances).
    Distances = 5,
}

impl ArtifactKind {
    /// Every kind, in discriminant order.
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::Trace,
        ArtifactKind::Graph,
        ArtifactKind::Features,
        ArtifactKind::Gram,
        ArtifactKind::Distances,
    ];

    /// This kind's position in [`ArtifactKind::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize - 1
    }

    /// The on-disk file extension for this kind.
    pub fn ext(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "trace",
            ArtifactKind::Graph => "graph",
            ArtifactKind::Features => "feat",
            ArtifactKind::Gram => "gram",
            ArtifactKind::Distances => "dist",
        }
    }

    /// Recover a kind from its frame-header byte.
    pub fn from_u8(b: u8) -> Option<ArtifactKind> {
        match b {
            1 => Some(ArtifactKind::Trace),
            2 => Some(ArtifactKind::Graph),
            3 => Some(ArtifactKind::Features),
            4 => Some(ArtifactKind::Gram),
            5 => Some(ArtifactKind::Distances),
            _ => None,
        }
    }

    /// Recover a kind from its file extension (used by `store verify`).
    pub fn from_ext(ext: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.iter().copied().find(|k| k.ext() == ext)
    }
}

/// A value the store can persist: a binary codec plus a kind tag.
///
/// Implementations must be **bit-deterministic**: encoding equal values
/// must yield equal bytes (sort any hash-map iteration), and decode ∘
/// encode must be the identity down to float bit patterns — the warm/cold
/// differential tests in `tests/store.rs` rely on it.
pub trait Artifact: Sized {
    /// The kind tag stamped into this artifact's store frame.
    const KIND: ArtifactKind;

    /// Append the canonical encoding of `self` to `w`.
    fn encode_into(&self, w: &mut ByteWriter);

    /// Decode a value previously produced by [`Artifact::encode_into`].
    /// Implementations should *not* call `r.finish()` — the store frame
    /// does that once after the outermost decode, so artifacts compose.
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh byte buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(128);
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode from a complete payload, requiring full consumption.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// A campaign's kernel-distance sample: the upper-triangle pairwise
/// distances in row-major (i < j) order, exactly as
/// `KernelMatrix::distance_sample` produces them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DistanceSample(pub Vec<f64>);

impl Artifact for DistanceSample {
    const KIND: ArtifactKind = ArtifactKind::Distances;

    fn encode_into(&self, w: &mut ByteWriter) {
        w.seq_len(self.0.len());
        for &d in &self.0 {
            w.f64(d);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.f64()?);
        }
        Ok(DistanceSample(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_round_trip_and_are_frozen() {
        for k in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::from_u8(k as u8), Some(k));
            assert_eq!(ArtifactKind::from_ext(k.ext()), Some(k));
            assert_eq!(ArtifactKind::ALL[k.index()], k);
        }
        // Frozen discriminants: these are on-disk bytes.
        assert_eq!(ArtifactKind::Trace as u8, 1);
        assert_eq!(ArtifactKind::Graph as u8, 2);
        assert_eq!(ArtifactKind::Features as u8, 3);
        assert_eq!(ArtifactKind::Gram as u8, 4);
        assert_eq!(ArtifactKind::Distances as u8, 5);
        assert_eq!(ArtifactKind::from_u8(0), None);
        assert_eq!(ArtifactKind::from_u8(6), None);
        assert_eq!(ArtifactKind::from_ext("exe"), None);
    }

    #[test]
    fn distance_sample_round_trips_bit_exactly() {
        let d = DistanceSample(vec![0.0, -0.0, 1.5, f64::NAN, 1e-300]);
        let bytes = d.to_wire();
        let back = DistanceSample::from_wire(&bytes).unwrap();
        assert_eq!(back.0.len(), d.0.len());
        for (a, b) in back.0.iter().zip(&d.0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn distance_sample_rejects_trailing_bytes() {
        let mut bytes = DistanceSample(vec![1.0]).to_wire();
        bytes.push(0);
        assert!(matches!(
            DistanceSample::from_wire(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }
}
